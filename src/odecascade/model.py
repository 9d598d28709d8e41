"""Data model for constant-coefficient linear ODEs."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .algebra import Expr
from .errors import OverflowGuard


class LinearODE(namedtuple("LinearODE", "coeffs forcing var")):
    """a_n y^(n) + ... + a_1 y' + a_0 y = q(t).

    ``coeffs`` lists a_0 .. a_n in ascending derivative order; the leading
    coefficient must be nonzero and the order at least 1.  Coefficients are
    Fractions in exact mode or floats in approximate mode.
    """

    __slots__ = ()

    def __new__(cls, coeffs, forcing: Expr, var: str = "t"):
        coeffs = tuple(
            c if isinstance(c, (Fraction, float)) else Fraction(c) for c in coeffs
        )
        if len(coeffs) < 2:
            raise ValueError("the equation must be at least first order")
        if not coeffs[-1]:
            raise ValueError("leading coefficient must be nonzero")
        for c in coeffs:
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError("coefficients must be finite")
        if var not in ("t", "x"):
            raise ValueError("variable must be 't' or 'x'")
        return super().__new__(cls, coeffs, forcing, var)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coeffs) and self.forcing.is_exact()

    def to_float(self) -> "LinearODE":
        """The same equation in floats (an all-float one unchanged);
        OverflowGuard for a value with no double, or a nonzero one that
        rounds to 0.0."""
        if all(isinstance(c, float) for c in self.coeffs) and not (
                self.forcing and self.forcing.is_exact()):
            return self
        try:
            coeffs = tuple(float(c) for c in self.coeffs)
            forcing = self.forcing.to_float()
        except OverflowError as exc:
            raise OverflowGuard(f"a coefficient is beyond double range: {exc}") from exc
        if not coeffs[-1]:
            raise OverflowGuard("the leading coefficient underflows to zero as a float")
        # a forcing term lost to underflow shortens the sum, so only a shorter
        # one is searched
        if any(c and not f for c, f in zip(self.coeffs, coeffs)) or (
                len(forcing) < len(self.forcing)
                and any(t.coeff and not complex(t.coeff) for t in self.forcing.terms)):
            raise OverflowGuard("a nonzero coefficient underflows to zero as a float")
        return LinearODE(coeffs, forcing, self.var)

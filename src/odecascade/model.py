"""Data model for constant-coefficient linear ODEs."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .algebra import REL_EPS, Expr
from .errors import OverflowGuard
from .scalars import to_double


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
        """The same equation in floats, each value rounded once by :func:`to_double`
        (an all-float one unchanged); OverflowGuard also for a forcing term at
        most REL_EPS times the largest, which the float zero test would drop."""
        if all(isinstance(c, float) for c in self.coeffs) and not (
                self.forcing and self.forcing.is_exact()):
            return self
        coeffs = tuple(to_double(c, "a coefficient") for c in self.coeffs)
        forcing = self.forcing.to_float()
        floor = REL_EPS * forcing.max_coeff_mag()
        if any(abs(t.coeff) <= floor for t in forcing):
            raise OverflowGuard(f"the forcing's coefficients span more than 1/REL_EPS = "
                                f"{1 / REL_EPS:.0e}, past what the float route resolves")
        return LinearODE(coeffs, forcing, self.var)

"""Scalar backends for the term algebra.

Two backends coexist:

* exact: :class:`GaussianRational`, a complex number whose real and imaginary
  parts are arbitrary-precision ``fractions.Fraction`` values.  Arithmetic is
  associative, commutative and distributive with no rounding, so expressions
  built from rational data stay bit-exact through the whole pipeline.
* approximate: the built-in ``complex``.

Mixing the two coerces to ``complex``, mirroring how ``Fraction`` interacts
with ``float`` in the standard library.
"""

from __future__ import annotations

import math
from fractions import Fraction

_EXACT_INPUTS = (int, Fraction)
_FLOAT_INPUTS = (float, complex)


class GaussianRational:
    """Complex number with Fraction real and imaginary parts.

    Instances are treated as immutable; all arithmetic returns new objects.
    Operations with ``int`` and ``Fraction`` stay exact, operations with
    ``float`` and ``complex`` return ``complex``.  The hash is computed on
    the first call and kept on the object: hashing a ``Fraction`` takes a
    modular inverse, and a rate is hashed again at every merge.
    """

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re=0, im=0):
        # A Fraction is immutable, so one is kept as it is, not rebuilt.
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- conversions --------------------------------------------------

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __float__(self):
        if self.im:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return float(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def real(self):
        return self.re

    @property
    def imag(self):
        return self.im

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, _EXACT_INPUTS):
            return GaussianRational(self.re + other, self.im)
        if isinstance(other, _FLOAT_INPUTS):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, _EXACT_INPUTS):
            return GaussianRational(self.re - other, self.im)
        if isinstance(other, _FLOAT_INPUTS):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _EXACT_INPUTS):
            return GaussianRational(self.re * other, self.im * other)
        if isinstance(other, _FLOAT_INPUTS):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _EXACT_INPUTS):
            other = GaussianRational(other)
        if isinstance(other, GaussianRational):
            d = other.re * other.re + other.im * other.im
            if not d:
                raise ZeroDivisionError("division by zero GaussianRational")
            return GaussianRational(
                (self.re * other.re + self.im * other.im) / d,
                (self.im * other.re - self.re * other.im) / d,
            )
        if isinstance(other, _FLOAT_INPUTS):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _EXACT_INPUTS):
            return GaussianRational(other).__truediv__(self)
        if isinstance(other, _FLOAT_INPUTS):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return GaussianRational(1) / self ** (-n)
        if not self.im:
            return GaussianRational(self.re ** n)
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __abs__(self):
        return abs(complex(self))

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _EXACT_INPUTS):
            return self.im == 0 and self.re == other
        if isinstance(other, _FLOAT_INPUTS):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        # Consistent with int/Fraction for purely real values; complex
        # floats and GaussianRationals must not share a dict.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.re, self.im) if self.im else self.re)
            return self._hash

    def __repr__(self):
        if not self.im:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        imag = "i" if abs(self.im) == 1 else f"{abs(self.im)}i"
        if not self.re:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"


def as_scalar(value):
    """Coerce a number to one of the two scalar backends.

    int and Fraction become exact GaussianRationals, float and complex stay
    approximate.
    """
    if type(value) is complex or isinstance(value, GaussianRational):
        return value
    if isinstance(value, _EXACT_INPUTS):
        return GaussianRational(value)
    if isinstance(value, float):
        return complex(value, 0.0)
    if isinstance(value, complex):
        return value
    raise TypeError(f"cannot use {type(value).__name__} as a scalar")


def is_exact(value) -> bool:
    return isinstance(value, GaussianRational)


def conj(value):
    if isinstance(value, GaussianRational):
        return value.conjugate()
    return value.conjugate() if isinstance(value, complex) else as_scalar(value).conjugate()


def rational_sqrt(value: Fraction):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    if value < 0:
        raise ValueError("rational_sqrt needs a nonnegative value")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None

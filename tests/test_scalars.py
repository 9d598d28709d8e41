from fractions import Fraction

import pytest
from hypothesis import given

from odecascade import GaussianRational as GR
from odecascade import as_scalar, rational_sqrt

from support import gaussian_rationals


def test_basic_arithmetic():
    a = GR(1, 2)
    b = GR(3, -1)
    assert a + b == GR(4, 1)
    assert a - b == GR(-2, 3)
    assert a * b == GR(5, 5)          # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert (a * b) / b == a
    assert -a == GR(-1, -2)
    assert a.conjugate() == GR(1, -2)


def test_division_is_exact():
    one = GR(1)
    z = one / GR(4, -2)
    assert z == GR(Fraction(1, 5), Fraction(1, 10))
    assert z * GR(4, -2) == one
    with pytest.raises(ZeroDivisionError):
        one / GR(0)


def test_powers():
    i = GR(0, 1)
    assert i ** 2 == GR(-1)
    assert i ** 0 == GR(1)
    assert GR(2) ** -2 == GR(Fraction(1, 4))
    assert (GR(1, 1) ** 2) == GR(0, 2)


@pytest.mark.parametrize("base", [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 10)])
def test_real_powers_match_repeated_products(base):
    for n in range(0, 12):
        product = GR(1)
        for _ in range(n):
            product = product * GR(base)
        assert GR(base) ** n == product
        assert type((GR(base) ** n).re) is Fraction
    if base:
        assert GR(base) ** -3 == GR(1) / (GR(base) * GR(base) * GR(base))
    else:
        with pytest.raises(ZeroDivisionError):
            GR(base) ** -1


def test_mixing_with_exact_types_stays_exact():
    a = GR(Fraction(1, 3))
    assert isinstance(a + 1, GR)
    assert isinstance(a * Fraction(3, 7), GR)
    assert a * 3 == GR(1)
    assert Fraction(1, 2) * a == GR(Fraction(1, 6))


def test_mixing_with_floats_coerces_to_complex():
    a = GR(1, 2)
    assert isinstance(a + 0.5, complex)
    assert a + 0.5 == 1.5 + 2j
    assert a * 1j == complex(a) * 1j
    assert complex(GR(Fraction(1, 2), Fraction(-3, 4))) == 0.5 - 0.75j


def test_equality_and_hash_against_rationals():
    assert GR(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(GR(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert GR(2) == 2
    assert hash(GR(2)) == hash(2)
    assert GR(1, 1) != 1
    assert GR(1, 1) == 1 + 1j


def test_as_scalar():
    assert isinstance(as_scalar(3), GR)
    assert isinstance(as_scalar(Fraction(1, 3)), GR)
    assert as_scalar(0.5) == complex(0.5, 0)
    assert isinstance(as_scalar(0.5), complex)
    assert as_scalar(1 + 2j) == 1 + 2j
    with pytest.raises(TypeError):
        as_scalar("nope")


def test_float_conversion_guards_imaginary():
    assert float(GR(Fraction(3, 2))) == 1.5
    with pytest.raises(ValueError):
        float(GR(1, 1))


@given(gaussian_rationals, gaussian_rationals, gaussian_rationals)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(gaussian_rationals)
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0


@given(gaussian_rationals, gaussian_rationals)
def test_exact_division_round_trip(a, b):
    if not b:
        return
    assert (a / b) * b == a


def test_rational_sqrt():
    assert rational_sqrt(Fraction(16)) == 4
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(-1))


def test_str_forms():
    assert str(GR(1, -1)) == "1-i"
    assert str(GR(0, 1)) == "i"
    assert str(GR(0, -2)) == "-2i"
    assert str(GR(Fraction(1, 2))) == "1/2"

import random
from fractions import Fraction

import pytest

from odecascade import (
    GaussianRational as GR,
    LogForcingUnsupported,
    add,
    apply_operator,
    cascade,
    equal_mod_homogeneous,
    normalize,
    oracle_undetermined_coefficients,
    parse_forcing,
    parse_ode,
    realify,
    residual_symbolic,
    scale,
    term,
)

from support import random_problem


def E(*terms):
    return normalize(list(terms))


# ---------------------------------------------------------------------------
# apply_operator
# ---------------------------------------------------------------------------

def test_apply_operator_on_known_answer():
    ode = parse_ode("y'' + 5y' + 6y = exp(t)*cos(t)")
    y = parse_forcing("11/170*exp(t)*cos(t) + 7/170*exp(t)*sin(t)")
    assert apply_operator(ode, y) == parse_forcing("exp(t)*cos(t)")


def test_apply_operator_zero():
    ode = parse_ode("y''' + y = t")
    assert apply_operator(ode, E()).is_zero


def test_apply_operator_repeated_root_answer():
    # L = (D-2)^2 maps t^5 e^{2t}/20 to e^{2t} D^2 t^5 / 20 = t^3 e^{2t}
    ode = parse_ode("y'' - 4y' + 4y = t^3*exp(2t)")
    y = E(term(Fraction(1, 20), 5, 0, 2))
    assert apply_operator(ode, y) == E(term(1, 3, 0, 2))


def test_apply_operator_is_linear():
    rng = random.Random(17)
    for _ in range(10):
        ode, q, roots = random_problem(rng)
        from support import random_forcing
        y1 = random_forcing(rng, roots)
        y2 = random_forcing(rng, roots)
        c = GR(Fraction(3, 2), Fraction(-1, 2))
        lhs = apply_operator(ode, add(y1, scale(c, y2)))
        rhs = add(apply_operator(ode, y1), scale(c, apply_operator(ode, y2)))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# residual_symbolic
# ---------------------------------------------------------------------------

def test_residuals_of_known_solutions_are_zero():
    cases = [
        ("y'' + 5y' + 6y = exp(t)*cos(t)",
         "11/170*exp(t)*cos(t) + 7/170*exp(t)*sin(t)"),
        ("y'' - 4y' + 4y = t^3*exp(2t)", "1/20*t^5*exp(2*t)"),
        ("y'' - 2y' + 5y = sin(t)", "1/10*cos(t) + 1/5*sin(t)"),
    ]
    for ode_text, answer in cases:
        ode = parse_ode(ode_text)
        res = residual_symbolic(ode, parse_forcing(answer))
        assert res.is_zero and res.status == "exact-zero"


def test_residual_nonzero_detected():
    ode = parse_ode("y'' - 2y' + 5y = sin(t)")
    res = residual_symbolic(ode, parse_forcing("t"))
    assert not res.is_zero and res.status == "nonzero"
    assert not res.expr.is_zero


def test_residual_float_tolerance_status():
    ode = parse_ode("y'' - 4y' + 4y = t^3*exp(2t)").to_float()
    y = parse_forcing("1/20*t^5*exp(2*t)").to_float()
    res = residual_symbolic(ode, y)
    assert res.is_zero and res.status == "zero-within-tolerance"
    # an exact equation with a float candidate is checked the same way
    exact_ode = parse_ode("y'' - 4y' + 4y = t^3*exp(2t)")
    assert residual_symbolic(exact_ode, y) == res


# ---------------------------------------------------------------------------
# equal_mod_homogeneous
# ---------------------------------------------------------------------------

def test_equal_mod_homogeneous_examples():
    ode = parse_ode("y'' - 4y' + 4y = t^3*exp(2t)")
    y1 = parse_forcing("1/20*t^5*exp(2*t)")
    y2 = parse_forcing("1/20*t^5*exp(2*t) + exp(2*t) + t*exp(2*t)")
    y3 = parse_forcing("1/20*t^5*exp(2*t) + t")
    assert equal_mod_homogeneous(ode, y1, y1)
    assert equal_mod_homogeneous(ode, y1, y2)
    assert not equal_mod_homogeneous(ode, y1, y3)


def test_equal_mod_homogeneous_is_equivalence():
    rng = random.Random(23)
    ode, q, roots = random_problem(rng)
    from support import random_forcing
    hom = E(term(1, 0, 0, roots[0]))  # e^{rt} for a characteristic root
    a = random_forcing(rng, roots)
    b = add(a, hom)
    c = add(b, scale(GR(Fraction(-1, 2)), hom))
    assert equal_mod_homogeneous(ode, a, a)
    assert equal_mod_homogeneous(ode, a, b) == equal_mod_homogeneous(ode, b, a)
    if equal_mod_homogeneous(ode, a, b) and equal_mod_homogeneous(ode, b, c):
        assert equal_mod_homogeneous(ode, a, c)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_distinct_roots_fixture():
    ode = parse_ode("y'' + 5y' + 6y = exp(t)*cos(t)")
    y = oracle_undetermined_coefficients(ode, ode.forcing)
    pair = {t.coeff for t in y.terms}
    assert pair == {GR(Fraction(11, 340), Fraction(-7, 340)),
                    GR(Fraction(11, 340), Fraction(7, 340))}
    assert realify(y) == realify(parse_forcing(
        "11/170*exp(t)*cos(t) + 7/170*exp(t)*sin(t)"))
    assert residual_symbolic(ode, y).is_zero


def test_oracle_resonant_fixture():
    ode = parse_ode("y'' - 4y' + 4y = t^3*exp(2t)")
    y = oracle_undetermined_coefficients(ode, ode.forcing)
    assert y == E(term(Fraction(1, 20), 5, 0, 2))


def test_oracle_rejects_log_forcing():
    ode = parse_ode("y'' + 4y' + 4y = exp(-2t)*ln(t)")
    with pytest.raises(LogForcingUnsupported):
        oracle_undetermined_coefficients(ode, ode.forcing)


@pytest.mark.parametrize("text", ["y'' + y = t^(-1)", "y'' + y = t^2 + t^(-2)"])
def test_oracle_rejects_negative_powers(text):
    ode = parse_ode(text)
    with pytest.raises(LogForcingUnsupported):
        oracle_undetermined_coefficients(ode, ode.forcing)


def test_oracle_float_mode():
    ode = parse_ode("y'' + 5y' + 6y = exp(t)*cos(t)").to_float()
    y = oracle_undetermined_coefficients(ode, ode.forcing)
    res = residual_symbolic(ode, y)
    assert res.is_zero


def test_oracle_agrees_with_cascade_sample():
    rng = random.Random(31)
    for k in range(20):
        ode, q, roots = random_problem(rng, force_resonance=(k % 3 == 0))
        y_oracle = oracle_undetermined_coefficients(ode, q)
        trace = cascade(roots, q, ode.coeffs[-1])
        assert residual_symbolic(ode, y_oracle).is_zero
        assert residual_symbolic(ode, trace.y_p).is_zero
        assert equal_mod_homogeneous(ode, y_oracle, trace.y_p)

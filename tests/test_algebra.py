import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from odecascade import (
    DomainError,
    Expr,
    GaussianRational as GR,
    NotClosedForm,
    NotConjugateSymmetric,
    OverflowGuard,
    RealExpr,
    RealTerm,
    Term,
    add,
    antiderivative,
    differentiate,
    evaluate,
    multiply,
    normalize,
    realify,
    scale,
    term,
)

from support import antiderivable_exprs, exprs_strategy, real_exprs_strategy
from test_render import REAL_CASES

I = GR(0, 1)
HALF = GR(Fraction(1, 2))


def E(*terms):
    return normalize(list(terms))


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_merges_like_keys():
    raw = [term(2, 1, 0, 1), term(3, 1, 0, 1)]
    assert normalize(raw) == E(term(5, 1, 0, 1))


def test_normalize_cancellation_gives_zero():
    assert normalize([term(1, 2), term(-1, 2)]).is_zero


def test_normalize_keeps_distinct_keys():
    a = term(GR(1) / GR(0, 2), 0, 0, I)
    b = term(GR(-1) / GR(0, 2), 0, 0, -I)
    e = normalize([a, b])
    assert len(e.terms) == 2


def test_normalize_is_idempotent_and_sorted():
    raw = [term(1, 2, 0, 0), term(1, 0, 0, 1), term(1, 0, 1, 0)]
    e = normalize(raw)
    assert normalize(e.terms) == e
    keys = [(complex(t.exponent).real, complex(t.exponent).imag, t.tpow, t.logpow)
            for t in e.terms]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_multiply_adds_keys():
    e2t = E(term(1, 0, 0, 2))
    t3 = E(term(1, 3))
    assert multiply(e2t, t3) == E(term(1, 3, 0, 2))


def test_add_cancels():
    x = E(term(1, 1))
    assert add(x, scale(-1, x)).is_zero


def test_multiply_inner_cancellation():
    # e^{-2t} * (e^{2t} t^4/4) = t^4/4, the repeated-root stage shape
    lhs = E(term(1, 0, 0, -2))
    rhs = E(term(Fraction(1, 4), 4, 0, 2))
    assert multiply(lhs, rhs) == E(term(Fraction(1, 4), 4))


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------

def test_differentiate_product_rule_with_log():
    # d/dt (t ln t - t) = ln t
    e = E(term(1, 1, 1, 0), term(-1, 1, 0, 0))
    assert differentiate(e) == E(term(1, 0, 1, 0))


def test_differentiate_exp_poly():
    # d/dt (e^{2t} t^4/4) = e^{2t}(t^3 + t^4/2)
    e = E(term(Fraction(1, 4), 4, 0, 2))
    want = E(term(1, 3, 0, 2), term(Fraction(1, 2), 4, 0, 2))
    assert differentiate(e) == want


def test_differentiate_constant_is_zero():
    assert differentiate(E(term(7))).is_zero


def test_differentiate_bare_log_gives_inverse_power():
    assert differentiate(E(term(1, 0, 1))) == E(term(1, -1))


# ---------------------------------------------------------------------------
# antiderivative
# ---------------------------------------------------------------------------

def test_antiderivative_power_rule():
    assert antiderivative(E(term(1, 3))) == E(term(Fraction(1, 4), 4))


def test_antiderivative_exp_cos_pair():
    # int e^{4t} cos t dt = e^{4t}(sin t + 4 cos t)/17, checked by
    # differentiating back and against the realified closed form
    integrand = E(term(HALF, 0, 0, GR(4, 1)), term(HALF, 0, 0, GR(4, -1)))
    result = antiderivative(integrand)
    assert differentiate(result) == integrand
    real = realify(result)
    want = RealExpr([
        RealTerm(Fraction(4, 17), 0, 0, Fraction(4), Fraction(1), "cos"),
        RealTerm(Fraction(1, 17), 0, 0, Fraction(4), Fraction(1), "sin"),
    ])
    assert real == want


def test_antiderivative_log():
    # int ln t dt = t ln t - t
    got = antiderivative(E(term(1, 0, 1)))
    assert got == E(term(1, 1, 1), term(-1, 1))


def test_antiderivative_exp_log_not_closed():
    with pytest.raises(NotClosedForm) as err:
        antiderivative(E(term(1, 0, 1, 1)))
    assert err.value.terms


def test_antiderivative_constant_convention():
    # integrating a constant gives c*t; nonconstant integrands never produce
    # the pure-constant key
    assert antiderivative(E(term(5))) == E(term(5, 1))
    rng = random.Random(7)
    for _ in range(50):
        from support import random_antiderivable_expr
        e = random_antiderivable_expr(rng)
        anti = antiderivative(e)
        nonconstant = [t for t in e.terms if t.key != (0, 0, GR(0))]
        if len(nonconstant) == len(e.terms):
            for t in anti.terms:
                assert t.key != (0, 0, GR(0))


def test_antiderivative_inverse_power():
    assert antiderivative(E(term(1, -1))) == E(term(1, 0, 1))
    assert antiderivative(E(term(1, -1, 2))) == E(term(Fraction(1, 3), 0, 3))
    assert antiderivative(E(term(1, -2))) == E(term(-1, -1))


# ---------------------------------------------------------------------------
# realify
# ---------------------------------------------------------------------------

def test_realify_conjugate_fraction_pair():
    # (1/(2i)) (e^{it}/(4-2i) - e^{-it}/(4+2i)) = (1/10) cos t + (1/5) sin t
    c_plus = GR(1) / (GR(0, 2) * GR(4, -2))
    c_minus = GR(-1) / (GR(0, 2) * GR(4, 2))
    e = E(term(c_plus, 0, 0, I), term(c_minus, 0, 0, -I))
    want = RealExpr([
        RealTerm(Fraction(1, 10), 0, 0, Fraction(0), Fraction(1), "cos"),
        RealTerm(Fraction(1, 5), 0, 0, Fraction(0), Fraction(1), "sin"),
    ])
    assert realify(e) == want


def test_realify_euler():
    e = E(term(1, 0, 0, I), term(1, 0, 0, -I))
    assert realify(e) == RealExpr([
        RealTerm(Fraction(2), 0, 0, Fraction(0), Fraction(1), "cos"),
    ])


def test_realify_purely_real_unchanged():
    e = E(term(Fraction(3, 2), 2, 1, -1))
    re = realify(e)
    assert re == RealExpr([
        RealTerm(Fraction(3, 2), 2, 1, Fraction(-1), Fraction(0), "cos"),
    ])
    assert re.to_expr() == e


def test_realify_rejects_asymmetric():
    with pytest.raises(NotConjugateSymmetric):
        realify(E(term(1, 0, 0, I)))
    with pytest.raises(NotConjugateSymmetric):
        realify(E(term(I, 0, 0, 0)))
    with pytest.raises(NotConjugateSymmetric):
        realify(E(term(GR(1, 1), 0, 0, I), term(GR(1, 1), 0, 0, -I)))


@pytest.mark.parametrize("lone", [term(1, 0, 0, -I), Term(1.0, 0, 0, -1j)])
def test_realify_rejects_lone_negative_rate(lone):
    with pytest.raises(NotConjugateSymmetric):
        realify(E(lone))


def test_realify_float_partner_within_rate_tolerance():
    # the partner's rate is within REL_EPS of conj(1+i) but not equal to it
    e = normalize([Term(0.25 - 0.5j, 0, 0, 1 + 1j),
                   Term(0.25 + 0.5j, 0, 0, complex(1, -(1 + 1e-14)))])
    assert len(e.terms) == 2
    assert realify(e) == RealExpr([RealTerm(0.5, 0, 0, 1.0, 1.0, "cos"),
                                   RealTerm(1.0, 0, 0, 1.0, 1.0, "sin")])


FLOAT_TO_EXPR = [
    "Expr[((-0-0.375j))*t^10*ln^0*e^((-1-2.5j)t), (0.375j)*t^10*ln^0*e^((-1+2.5j)t)]",
    "Expr[((0.5+0j))*t^0*ln^0*e^((0.5-1j)t), ((0.5+0j))*t^0*ln^0*e^((0.5+1j)t)]",
    "Expr[((-1+0j))*t^1*ln^1*e^((1+0j)t)]",
]


@pytest.mark.parametrize("rt, want", zip(
    [rt for rt, _, _ in REAL_CASES if isinstance(rt.coeff, float)], FLOAT_TO_EXPR))
def test_to_expr_float_terms_pinned(rt, want):
    assert repr(RealExpr([rt]).to_expr()) == want


def test_realify_drops_float_imag_residue():
    e = normalize([Term(complex(0.5, 1e-15), 0, 0, 1j),
                   Term(complex(0.5, -1e-15), 0, 0, -1j)])
    re = realify(e)
    assert len(re.terms) == 1
    assert re.terms[0].kind == "cos"
    assert re.terms[0].coeff == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_polynomial():
    assert evaluate(E(term(Fraction(1, 4), 4)), 2.0) == pytest.approx(4.0)


def test_evaluate_log_at_one():
    e = E(term(1, 1, 1), term(-1, 1))
    assert evaluate(e, 1.0) == pytest.approx(-1.0)


def test_evaluate_real_expr_at_zero():
    re = RealExpr([
        RealTerm(Fraction(1, 10), 0, 0, Fraction(0), Fraction(1), "cos"),
        RealTerm(Fraction(1, 5), 0, 0, Fraction(0), Fraction(1), "sin"),
    ])
    assert re.eval(0.0) == pytest.approx(0.1)


def test_evaluate_domain_errors():
    e = E(term(1, 0, 1))
    with pytest.raises(DomainError):
        evaluate(e, 0.0)
    with pytest.raises(DomainError):
        evaluate(e, -1.0)
    with pytest.raises(DomainError):
        evaluate(E(term(1, -1)), 0.0)


# ---------------------------------------------------------------------------
# float backend behavior
# ---------------------------------------------------------------------------

def test_float_zero_test_is_relative():
    e = normalize([Term(1e-20, 1, 0, 0.0), Term(1.0, 1, 0, 0.0)])
    assert len(e.terms) == 1
    lonely = normalize([Term(1e-20, 1, 0, 0.0)])
    assert len(lonely.terms) == 1  # scale-free: tiny alone is not zero


def test_float_exponent_snapping_merges_resonant_keys():
    e = normalize([Term(1.0, 0, 0, complex(2.0, 0.0)),
                   Term(1.0, 0, 0, complex(2.0 + 4e-16, 1e-17))])
    assert len(e.terms) == 1
    near_zero = normalize([Term(1.0, 1, 0, complex(1e-16, -1e-18))])
    assert near_zero.terms[0].exponent == 0


def test_mixing_backends_in_a_sum_raises():
    exact = E(term(Fraction(1, 3), 1))
    floats = normalize([Term(0.5, 1, 0, 0.0)])
    with pytest.raises(TypeError):
        add(exact, floats)
    with pytest.raises(TypeError):
        normalize([Term(Fraction(1, 3), 1), Term(0.5, 1, 0, 0.0)])
    total = add(exact.to_float(), floats)
    assert not total.is_exact()
    assert total.terms[0].coeff == pytest.approx(1 / 3 + 0.5)


def test_a_term_holds_one_backend():
    # the exact field of a mixed term is converted when the term is built
    t = Term(0.5)
    assert type(t.coeff) is complex and type(t.exponent) is complex
    t = Term(GR(1, 2), 1, 0, 0.25)
    assert t.coeff == 1 + 2j and type(t.coeff) is complex and not t.is_exact()
    r = RealTerm(0.5, 1, 0, Fraction(1, 2), 2)
    assert (r.coeff, r.alpha, r.beta) == (0.5, 0.5, 2.0)
    assert all(type(v) is float for v in (r.coeff, r.alpha, r.beta)) and not r.is_exact()
    with pytest.raises(TypeError):
        RealExpr([RealTerm(Fraction(1, 3)), RealTerm(0.5, 1)])


# ---------------------------------------------------------------------------
# the Term and RealTerm contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, want", [
    (3, GR(3)),
    (Fraction(-3, 4), GR(Fraction(-3, 4))),
    (GR(1, -2), GR(1, -2)),
    (1 + 2j, 1 + 2j),
    (0.5, 0.5 + 0j),
])
def test_term_coerces_coeff_and_exponent(value, want):
    t = Term(value, 1, 0, value)
    assert t.coeff == want and type(t.coeff) is type(want)
    assert t.exponent == want and type(t.exponent) is type(want)


def test_term_defaults():
    t = Term(2)
    assert (t.tpow, t.logpow, t.exponent) == (0, 0, GR(0))
    assert isinstance(t.exponent, GR)
    r = RealTerm(2)
    assert (r.tpow, r.logpow, r.alpha, r.beta, r.kind) == (0, 0, 0, 0, "cos")


@pytest.mark.parametrize("kwargs", [{"tpow": 1.0}, {"logpow": 1.0}, {"tpow": "1"}])
def test_term_rejects_non_integer_powers(kwargs):
    with pytest.raises(TypeError, match="tpow and logpow must be integers"):
        Term(1, **kwargs)


def test_term_rejects_bad_scalars_and_negative_logpow():
    with pytest.raises(TypeError, match="cannot use str as a scalar"):
        Term("1")
    with pytest.raises(ValueError, match="logpow must be nonnegative"):
        Term(1, 0, -1)


def test_real_term_rejects_bad_kind_and_negative_exact_beta():
    with pytest.raises(ValueError, match="kind must be 'cos' or 'sin'"):
        RealTerm(1, kind="tan")
    for beta in (-1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="beta must be nonnegative"):
            RealTerm(1, beta=beta)
    assert RealTerm(1, beta=-0.5).beta == -0.5  # only an exact beta is checked


@pytest.mark.parametrize("obj, field", [
    (Term(1, 2), "coeff"), (Term(1, 2), "tpow"),
    (RealTerm(1, 2), "kind"), (RealTerm(1, 2), "beta"),
])
def test_terms_are_immutable(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, 0)


def test_term_repr_is_pinned():
    t = Term(Fraction(3, 2), 2, 1, GR(-1, 2))
    assert repr(t) == ("Term(coeff=GaussianRational(3/2), tpow=2, logpow=1, "
                       "exponent=GaussianRational(-1, 2))")
    r = RealTerm(Fraction(-1, 3), 1, 0, Fraction(2), Fraction(1, 2), "sin")
    assert repr(r) == ("RealTerm(coeff=Fraction(-1, 3), tpow=1, logpow=0, "
                       "alpha=Fraction(2, 1), beta=Fraction(1, 2), kind='sin')")


def test_term_hash_is_the_hash_of_its_fields():
    t = Term(Fraction(3, 2), 2, 1, GR(-1, 2))
    assert hash(t) == hash((t.coeff, t.tpow, t.logpow, t.exponent))
    r = RealTerm(Fraction(-1, 3), 1, 0, Fraction(2), Fraction(1, 2), "sin")
    assert hash(r) == hash((r.coeff, r.tpow, r.logpow, r.alpha, r.beta, r.kind))


def test_term_never_equals_real_term():
    assert Term(1) != RealTerm(1)
    assert Term(GR(1)) != RealTerm(GR(1), 0, 0, GR(0), GR(0))
    assert Term(1, 2, 0, 3) == Term(GR(1), 2, 0, GR(3))


def test_term_key_and_exactness():
    t = Term(1, 2, 1, GR(-1, 2))
    assert t.key == (2, 1, GR(-1, 2))
    assert t.is_exact() and not Term(1.0).is_exact() and not Term(1, 0, 0, 0.5).is_exact()
    assert RealTerm(1, 1, 2, 3, 4, "sin").key == (3, 4, 1, 2, "sin")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(antiderivable_exprs)
def test_fundamental_theorem_round_trip(e):
    assert differentiate(antiderivative(e)) == e


@given(exprs_strategy, exprs_strategy)
def test_differentiate_is_linear(a, b):
    assert differentiate(add(a, b)) == add(differentiate(a), differentiate(b))


@given(exprs_strategy)
def test_scale_commutes_with_differentiate(e):
    c = GR(Fraction(-3, 2), Fraction(1, 2))
    assert differentiate(scale(c, e)) == scale(c, differentiate(e))


@given(exprs_strategy)
def test_add_with_negation_is_zero(e):
    assert add(e, scale(-1, e)).is_zero


@given(exprs_strategy, exprs_strategy)
def test_multiply_closure_and_commutativity(a, b):
    assert multiply(a, b) == multiply(b, a)


@given(exprs_strategy)
def test_differentiate_never_raises(e):
    for _ in range(3):
        e = differentiate(e)


@settings(max_examples=60)
@given(real_exprs_strategy)
def test_realify_embedding_round_trip(re):
    assert realify(re.to_expr()) == re


@given(exprs_strategy)
def test_normalize_shuffle_invariance(e):
    shuffled = list(e.terms)[::-1]
    assert normalize(shuffled) == e


# ---------------------------------------------------------------------------
# rounding to floats
# ---------------------------------------------------------------------------

@given(exprs_strategy, real_exprs_strategy)
def test_to_float_rounds_each_value_once(e, re):
    for exact, fields in ((e, ("coeff", "exponent")), (re, ("coeff", "alpha", "beta"))):
        rounded = exact.to_float()
        assert len(rounded) == len(exact) and rounded.to_float() == rounded
        assert not exact or (not rounded.is_exact() and rounded.to_float() is rounded)
        for x, f in zip(exact, rounded):
            assert (x.tpow, x.logpow) == (f.tpow, f.logpow)
            for name in fields:
                want = getattr(x, name)
                want = complex(want) if isinstance(want, GR) else float(want)
                assert getattr(f, name) == want and type(getattr(f, name)) is type(want)


def test_to_float_drops_nothing_and_refuses_what_it_cannot_hold():
    wide = E(term(10 ** 15, 1), term(1, 2), term(-2))
    assert len(wide.to_float()) == 3  # normalize would drop t^2 and -2
    assert RealExpr([RealTerm(10 ** 15, 1), RealTerm(-2)]).to_float().terms \
        == (RealTerm(-2.0), RealTerm(1e15, 1))
    with pytest.raises(OverflowGuard, match="^a coefficient has no double value"):
        E(term(10 ** 400)).to_float()
    with pytest.raises(OverflowGuard, match="^a coefficient has no double value"):
        RealExpr([RealTerm(Fraction(1, 10 ** 400))]).to_float()
    with pytest.raises(OverflowGuard, match="^a rate has no double value"):
        E(term(1, 0, 0, GR(Fraction(1, 10 ** 400)))).to_float()
    close = GR(1 + Fraction(1, 10 ** 30))
    with pytest.raises(OverflowGuard, match="not distinct as doubles"):
        E(term(1, 0, 0, 1), term(1, 0, 0, close)).to_float()
    # distinct real parts that round to one double, the smaller with the larger
    # imaginary part: the rounded terms would leave canonical order
    with pytest.raises(OverflowGuard, match="not distinct as doubles"):
        E(term(1, 0, 0, GR(1, 1)), term(1, 0, 0, GR(close.re, 0))).to_float()


def test_float_sums_refuse_infinite_coefficients():
    big = E(term(1e308))
    with pytest.raises(OverflowGuard, match="past the double range"):
        big + big
    with pytest.raises(OverflowGuard, match="past the double range"):
        RealExpr([RealTerm(1e308), RealTerm(1e308)])

"""Canonical order by construction.

Negation on either backend, and on exact data the other kernels below,
build their output in canonical order (terms sorted by (Re lam, Im lam,
tpow, logpow), one per key, no zero coefficient) and skip the
merge-and-sort of :func:`normalize`.  Each test
checks that an output equals ``normalize`` of its own terms, and that it
equals what the general route gives, so a kernel that emits the right
terms in the wrong order, a zero or a duplicate key fails here.

Every sum also holds one backend, all exact or all float, which is what
lets ``is_exact()`` read one term; the last property checks it.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from odecascade import (
    Expr,
    GaussianRational as GR,
    NotClosedForm,
    RealExpr,
    Term,
    antiderivative,
    differentiate,
    multiply,
    normalize,
    parse_forcing,
    realify,
    scale,
)
from odecascade.algebra import _apply_by_shift, _real_part, solve_stage
from odecascade.scalars import as_scalar, is_exact

from support import (
    antiderivable_exprs,
    exponent_pool,
    exprs_strategy,
    small_fractions,
    terms_strategy,
)

_CANON = settings(derandomize=True, max_examples=100, deadline=None)


def _is_canonical(e: Expr) -> bool:
    return e == normalize(list(e.terms))


@_CANON
@given(exprs_strategy)
def test_negation_on_both_backends(e):
    for x in (e, e.to_float()):
        out = -x
        assert _is_canonical(out)
        assert out == normalize([Term(-t.coeff, *t[1:]) for t in x])


@_CANON
@given(exponent_pool, exprs_strategy)
def test_solve_stage(r, e):
    # logs only at the stage root, where the stage stays closed-form
    e = normalize([Term(t.coeff, t.tpow, t.logpow, r if t.logpow else t.exponent)
                   for t in e])
    phi = solve_stage(r, e)
    assert _is_canonical(phi)
    assert differentiate(phi) - scale(r, phi) == e


def test_stage_drops_cancelled_keys():
    # (t ln t)' = ln t + 1 and (t e^t)' = (t + 1) e^t: the t and t^0 e^t keys cancel
    for text, want in (("ln(t) + 1", Term(1, 1, 1)), ("(t + 1)*exp(t)", Term(1, 1, 0, 1))):
        assert antiderivative(parse_forcing(text)) == normalize([want])


@_CANON
@given(antiderivable_exprs)
def test_antiderivative(e):
    big = antiderivative(e)
    assert _is_canonical(big)
    assert differentiate(big) == e


@_CANON
@given(st.lists(small_fractions, min_size=1, max_size=5), exprs_strategy)
def test_apply_by_shift(coeffs, y):
    out = _apply_by_shift(coeffs, y)
    assert _is_canonical(out)
    want, d = Expr.zero(), y
    for a in coeffs:
        want, d = want + scale(a, d), differentiate(d)
    assert out == want


@_CANON
@given(exprs_strategy)
def test_real_part(y):
    out = _real_part(y)
    assert _is_canonical(out)
    assert out == scale(Fraction(1, 2), y + y.conjugate())


@_CANON
@given(exprs_strategy)
def test_realify(e):
    for sym in (e + e.conjugate(), _real_part(e)):
        r = realify(sym)
        assert r == RealExpr(list(r.terms))
        assert r.to_expr() == sym


_float_terms = st.builds(lambda t: Term(complex(t.coeff), t.tpow, t.logpow,
                                         complex(t.exponent)), terms_strategy)
#: one backend per draw, exact or float
_one_backend_exprs = st.one_of(st.lists(terms_strategy, max_size=6),
                               st.lists(_float_terms, max_size=6)).map(normalize)


@_CANON
@given(_one_backend_exprs, _one_backend_exprs,
       st.sampled_from([2, Fraction(1, 3), GR(1, -1), 0.5, 1j]))
def test_every_sum_holds_one_backend(a, b, c):
    if not (a.is_exact() and b.is_exact() and is_exact(as_scalar(c))):
        a, b, c = a.to_float(), b.to_float(), complex(c)  # a mixed draw, converted
    outs = [a, b, a + b, multiply(a, b), scale(c, a), differentiate(a), a.conjugate(),
            a.to_float(), -b]
    for e in (a, b):
        try:
            outs.append(antiderivative(e))
        except NotClosedForm:  # a log or 1/t at a nonzero rate
            pass
    for e in list(outs):
        real = realify(e + e.conjugate())
        outs += [real, real.to_expr()]
    for e in outs:
        assert len({t.is_exact() for t in e}) <= 1, e
        assert e.is_exact() == all(t.is_exact() for t in e)


_HALF_I = GR(0, Fraction(1, 2))


def test_parser_leaves_are_canonical():
    cases = {
        "sin(-2t)": [Term(_HALF_I, 0, 0, GR(0, 2)), Term(-_HALF_I, 0, 0, GR(0, -2))],
        "cos(0t)": [Term(1)],
        "sin(0t)": [],
        "exp(0t)": [Term(1)],
        "i": [Term(GR(0, 1))],
        "ln(t)": [Term(1, 0, 1)],
        "t^0": [Term(1)],
        "(2t)^3": [Term(8, 3)],
        "(-t)^2": [Term(1, 2)],
        "(sin(t))^2": [Term(Fraction(1, 2)), Term(Fraction(-1, 4), 0, 0, GR(0, 2)),
                       Term(Fraction(-1, 4), 0, 0, GR(0, -2))],
        "(1/2*exp(i*t))^3": [Term(Fraction(1, 8), 0, 0, GR(0, 3))],
    }
    for text, terms in cases.items():
        assert parse_forcing(text) == normalize(terms), text


def test_hash_is_cached_and_matches_the_real_part():
    for q in (Fraction(3, 7), Fraction(-5), Fraction(0)):
        g = GR(q)
        assert not hasattr(g, "_hash")
        assert hash(g) == hash(q)  # computed and stored
        assert g._hash == hash(q)
        assert hash(g) == hash(q)  # read back
    g = GR(Fraction(1, 3), Fraction(-2, 5))
    assert hash(g) == hash(g) == hash((Fraction(1, 3), Fraction(-2, 5)))

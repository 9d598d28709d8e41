"""Exact identities that every cascade answer obeys.

Each property runs over exact equations whose characteristic roots include
two conjugate pairs, repeated pairs and multiplicities up to 4, with real
exp-poly forcings whose rates often meet a root.  The answers come from
:func:`cascade` itself, not :func:`particular_solution`, so no identity
leans on the solver's own residual check:

- root order: any order of the stage roots gives the same y_p modulo
  homogeneous solutions;
- superposition: the answer for q1 + q2 is the sum of the answers;
- exponential shift: if y solves p(D) y = q, then e^(ct) y solves
  p(D - c) u = e^(ct) q, and it is what the cascade gives for the shifted
  roots;
- method against method: y_p equals the undetermined-coefficients oracle's
  answer modulo homogeneous solutions;
- realness: every drawn problem is real, so the cascade returns a real form
  that embeds back to y_p.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from odecascade import (
    GaussianRational as GR,
    LinearODE,
    Term,
    cascade,
    characteristic,
    equal_mod_homogeneous,
    find_roots,
    normalize,
    oracle_undetermined_coefficients,
    residual_symbolic,
)

from support import ode_from_roots

_REALS = [GR(Fraction(k, 2)) for k in range(-4, 5)]
_PAIRS = [GR(re, im) for re in (Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2))
          for im in (Fraction(1), Fraction(2), Fraction(1, 2))]
_RATES = _REALS + _PAIRS
_COEFFS = st.builds(GR, st.sampled_from([Fraction(k, 2) for k in range(-4, 5) if k]),
                    st.sampled_from([Fraction(k, 2) for k in range(-2, 3)]))

#: highest order of a drawn equation
_MAX_ORDER = 8

_IDENTITY = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def _root_multisets(draw) -> dict:
    """{root: multiplicity}, conjugate-closed: up to two pairs, then up to
    two real roots, multiplicities 1-4, order at most _MAX_ORDER."""
    planted, budget = {}, _MAX_ORDER
    for lam in draw(st.lists(st.sampled_from(_PAIRS), max_size=2, unique=True)):
        if budget >= 2:
            planted[lam] = planted[lam.conjugate()] = draw(st.integers(1, min(4, budget // 2)))
            budget -= 2 * planted[lam]
    for x in draw(st.lists(st.sampled_from(_REALS), min_size=0 if planted else 1,
                           max_size=2, unique=True)):
        if budget:
            planted[x] = draw(st.integers(1, min(4, budget)))
            budget -= planted[x]
    return planted


@st.composite
def _real_forcings(draw, roots):
    """A real exp-poly forcing of one to three terms and their conjugates;
    most rates are characteristic roots, so stages resonate."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        lam = draw(st.sampled_from(roots) if draw(st.booleans()) else st.sampled_from(_RATES))
        coeff, tpow = draw(_COEFFS), draw(st.integers(0, 3))
        if lam.im:
            terms.append(Term(coeff.conjugate(), tpow, 0, lam.conjugate()))
        else:
            coeff = GR(coeff.re)
        terms.append(Term(coeff, tpow, 0, lam))
    return normalize(terms)


@st.composite
def _problems(draw):
    """(ode, root sequence) of an exact equation; the sequence is
    find_roots' cascade order."""
    planted = draw(_root_multisets())
    seq = [r for r, m in planted.items() for _ in range(m)]
    lead = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)]))
    ode = ode_from_roots(seq, draw(_real_forcings(list(planted))), lead)
    rootset = find_roots(characteristic(ode))
    assert rootset.all_exact()
    return ode, rootset.expand()


def _y_p(seq, ode, forcing=None):
    return cascade(seq, ode.forcing if forcing is None else forcing, ode.coeffs[-1]).y_p


@_IDENTITY
@given(_problems(), st.data())
def test_root_order_changes_y_p_by_a_homogeneous_solution(problem, data):
    ode, seq = problem
    permuted = data.draw(st.permutations(seq))
    assert equal_mod_homogeneous(ode, _y_p(seq, ode), _y_p(permuted, ode))


@_IDENTITY
@given(_problems(), st.data())
def test_superposition(problem, data):
    ode, seq = problem
    other = data.draw(_real_forcings(list(dict.fromkeys(seq))))
    assert _y_p(seq, ode, ode.forcing + other) == _y_p(seq, ode) + _y_p(seq, ode, other)


def _shift_poly(coeffs, c):
    """Ascending coefficients of p(r - c) for p with ascending ``coeffs``."""
    out = []
    for a in reversed(coeffs):  # Horner: out = out * (r - c) + a
        out = [x - c * y for x, y in zip([Fraction(0)] + out, out + [Fraction(0)])]
        out[0] += a
    return out


def _times_exp(e, c):
    return normalize([Term(t.coeff, t.tpow, t.logpow, t.exponent + c) for t in e.terms])


@_IDENTITY
@given(_problems(), st.sampled_from([Fraction(k, 2) for k in range(-4, 5) if k]))
def test_exponential_shift(problem, c):
    ode, seq = problem
    u = _times_exp(_y_p(seq, ode), c)
    shifted = LinearODE(_shift_poly(ode.coeffs, c), _times_exp(ode.forcing, c), ode.var)
    assert residual_symbolic(shifted, u).status == "exact-zero"
    assert _y_p([r + c for r in seq], shifted) == u


@_IDENTITY
@given(_problems())
def test_cascade_agrees_with_the_oracle(problem):
    ode, seq = problem
    oracle = oracle_undetermined_coefficients(ode, ode.forcing)
    assert equal_mod_homogeneous(ode, _y_p(seq, ode), oracle)


@_IDENTITY
@given(_problems())
def test_real_problems_get_a_real_form(problem):
    ode, seq = problem
    trace = cascade(seq, ode.forcing, ode.coeffs[-1])
    assert trace.y_p_real is not None
    assert trace.y_p_real.to_expr() == trace.y_p

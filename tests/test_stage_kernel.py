"""The rate-grouped stage kernel against the integrating-factor route.

``reference_stage`` is the route the kernel replaced, written out here:
multiply by e^(-rt), integrate every term by parts into one Term per power
(polynomial/log antiderivative at rate 0), multiply by e^(rt).  The kernel
must equal it exactly on the exact backend and bit for bit on floats,
because the float residual verdicts depend on the last bits.
"""

import random
from fractions import Fraction

import pytest

from odecascade import (
    GaussianRational as GR,
    NotClosedForm,
    Term,
    antiderivative,
    exponential,
    multiply,
    normalize,
    solve_first_order,
)
from odecascade.algebra import _integrate_poly_log, solve_stage


def reference_stage(r, g):
    shifted = multiply(exponential(-r), g)
    out, offending = [], []
    for t in shifted.terms:
        lam = t.exponent
        if not lam:
            out.extend(Term(c, k, m, 0)
                       for c, k, m in _integrate_poly_log(t.coeff, t.tpow, t.logpow))
        elif t.logpow > 0 or t.tpow < 0:
            offending.append(t)
        else:
            c, j = t.coeff / lam, t.tpow
            while True:
                out.append(Term(c, j, 0, lam))
                if j == 0:
                    break
                c = -(c * j) / lam
                j -= 1
    if offending:
        names = ", ".join(f"t^{t.tpow}*ln^{t.logpow}(t)*e^({t.exponent}t)"
                          for t in offending)
        raise NotClosedForm(f"no closed-form antiderivative for: {names}",
                            terms=offending)
    return multiply(exponential(r), normalize(out))


def outcome(fn, *args):
    """(terms, None) or (None, (message, terms)) for a NotClosedForm."""
    try:
        return fn(*args).terms, None
    except NotClosedForm as exc:
        return None, (str(exc), exc.terms)


RATES = [GR(0), GR(1), GR(-2), GR(0, 1), GR(0, -1), GR(Fraction(1, 2), 3),
         GR(Fraction(-3, 4), Fraction(-1, 3))]


def random_coeff(rng):
    return GR(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
              rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 5))]))


def exact_case(rng, allow_escape):
    """(r, g): several rates, r often equal to one of them (resonance), log
    factors and t^-1 only at rate r unless ``allow_escape``."""
    r = rng.choice(RATES)
    rates = rng.sample(RATES, rng.randint(1, 4))
    terms = []
    for _ in range(rng.randint(1, 8)):
        lam = rng.choice(rates)
        if lam == r or allow_escape:
            tpow = rng.choice([-1, 0, 1, 2, 3, 5])
            logpow = rng.choice([0, 0, 1, 2])
        else:
            tpow, logpow = rng.randint(0, 6), 0
        terms.append(Term(random_coeff(rng), tpow, logpow, lam))
    return r, normalize(terms)


def float_case(rng):
    """(r, g) on the float backend.  Rates include one within a few 1e-12
    of r, which the kernel's snapping may treat as resonant, and one with a
    small imaginary part, whose shift shows whether r's roundoff-sized
    imaginary part (1e-17) was snapped away first."""
    r = complex(rng.uniform(-3, 3), rng.choice([0.0, 1e-17, rng.uniform(-3, 3)]))
    rates = [r, r + complex(3e-12, -3e-12), complex(rng.uniform(-3, 3), 1e-5)] + [
        complex(rng.uniform(-3, 3), rng.choice([0.0, rng.uniform(-3, 3)]))
        for _ in range(2)]
    terms = []
    for _ in range(rng.randint(1, 8)):
        lam = rng.choice(rates)
        coeff = complex(rng.uniform(-5, 5), rng.choice([0.0, -0.0, rng.uniform(-5, 5)]))
        if lam == r:
            tpow, logpow = rng.choice([-1, 0, 1, 2, 4]), rng.choice([0, 0, 1, 2])
        else:
            tpow, logpow = rng.randint(0, 6), 0
        terms.append(Term(coeff, tpow, logpow, lam))
    return r, normalize(terms)


def test_exact_kernel_equals_integrating_factor_route():
    rng = random.Random(2024)
    resonant = 0
    for _ in range(150):
        r, g = exact_case(rng, allow_escape=False)
        resonant += any(t.exponent == r for t in g.terms)
        want, _ = outcome(reference_stage, r, g)
        got, _ = outcome(solve_first_order, r, g)
        assert got == want, (r, g)
        assert solve_stage(r, g).is_exact()
    assert resonant > 30


def test_exact_kernel_names_the_same_offending_terms():
    rng = random.Random(77)
    raised = 0
    for _ in range(100):
        r, g = exact_case(rng, allow_escape=True)
        want = outcome(reference_stage, r, g)
        assert outcome(solve_stage, r, g) == want, (r, g)
        raised += want[1] is not None
    assert raised > 20


def test_exact_antiderivative_is_the_kernel_at_rate_zero():
    rng = random.Random(5)
    for _ in range(100):
        _, g = exact_case(rng, allow_escape=True)
        assert outcome(antiderivative, g) == outcome(reference_stage, GR(0), g)


def test_float_kernel_matches_route_bit_for_bit():
    rng = random.Random(31337)
    near = 0
    for _ in range(200):
        r, g = float_case(rng)
        near += any(0 < abs(t.exponent - r) < 1e-10 for t in g.terms)
        for got, want in ((outcome(solve_first_order, r, g), outcome(reference_stage, r, g)),
                          (outcome(antiderivative, g), outcome(reference_stage, 0j, g))):
            assert got == want, (r, g)
            # == treats -0.0 and 0.0 alike; repr shows the sign of zero parts
            assert repr(got) == repr(want), (r, g)
    assert near > 20


@pytest.mark.parametrize("r, g, want", [
    # phi' - 2 phi = t^3 e^{2t}: resonant, phi = t^4 e^{2t} / 4
    (GR(2), [Term(1, 3, 0, 2)], [Term(Fraction(1, 4), 4, 0, 2)]),
    # phi' - i phi = t^2: Q' - iQ = t^2, Q = i t^2 + 2t - 2i
    (GR(0, 1), [Term(1, 2)], [Term(GR(0, -2)), Term(2, 1), Term(GR(0, 1), 2)]),
    # phi' = 1/t + ln t: ln t + t ln t - t
    (GR(0), [Term(1, -1), Term(1, 0, 1)],
     [Term(1, 0, 1), Term(-1, 1), Term(1, 1, 1)]),
])
def test_kernel_worked_stages(r, g, want):
    assert solve_stage(r, normalize(g)) == normalize(want)

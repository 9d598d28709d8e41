"""The exact core's integer kernels against the routes they replaced.

Each reference below is the old route, written out here:

* ``reference_back_substitute``: Q' + mu*Q = P top down in
  GaussianRational arithmetic;
* ``reference_apply_operator``: k derivatives of y, each scaled by a_k;
* ``reference_real_part``: scale(1/2, y + conj(y));
* ``reference_power``: n successive multiplies.

On exact data each kernel must give the same values (==) and the same
reduced Fractions (repr) as its reference.  Float data keeps the reference
route itself, so there the results must agree bit for bit.
"""

import random
from fractions import Fraction

import pytest

from odecascade import (
    GaussianRational as GR,
    LinearODE,
    Term,
    apply_operator,
    const,
    differentiate,
    multiply,
    normalize,
    parse_forcing,
    parse_ode,
    particular_solution,
    scale,
)
from odecascade.algebra import _back_substitute, _real_part
from odecascade.parsing import _power


def reference_back_substitute(p, mu):
    inv = 1 / mu
    q = {}
    carry = None  # (j+1) q_{j+1}
    for j in range(max(p), -1, -1):
        c = p.get(j)
        if carry is not None:
            c = -carry if c is None else c - carry
        q[j] = c * inv
        carry = q[j] * j
    return q


def reference_apply_operator(ode, y):
    out = normalize([])
    d = y
    for k, a in enumerate(ode.coeffs):
        if k > 0:
            d = differentiate(d)
        if a:
            out = out + scale(a, d)
    return out


def reference_real_part(y):
    return scale(GR(Fraction(1, 2)), y + y.conjugate())


def reference_power(base, n):
    out = const(1)
    for _ in range(n):
        out = multiply(out, base)
    return out


def same(got, want):
    assert got == want
    assert repr(got) == repr(want)


#: non-integer Gaussian rates among them, and conjugate pairs
RATES = [GR(0), GR(1), GR(-2), GR(Fraction(5, 6)), GR(0, 1), GR(0, -1),
         GR(Fraction(1, 2), Fraction(3, 7)), GR(Fraction(1, 2), Fraction(-3, 7)),
         GR(Fraction(-3, 4), Fraction(-1, 3)), GR(Fraction(-3, 4), Fraction(1, 3))]


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 12]))


def random_coeff(rng):
    return GR(random_fraction(rng), rng.choice([0, random_fraction(rng)]))


def random_expr(rng, max_terms=8):
    """Exact y with log factors and t^-1 at every rate."""
    rates = rng.sample(RATES, rng.randint(1, 4))
    return normalize([Term(random_coeff(rng), rng.choice([-1, 0, 1, 2, 3, 6]),
                           rng.choice([0, 0, 1, 2]), rng.choice(rates))
                      for _ in range(rng.randint(0, max_terms))])


# ---------------------------------------------------------------------------
# back-substitution
# ---------------------------------------------------------------------------

def test_back_substitution_equals_gaussian_rational_route():
    rng = random.Random(8)
    big = 0
    for _ in range(200):
        mu = rng.choice(RATES[1:])
        top = rng.choice([0, 1, 2, 5, 13, 40, 80, 169])
        big += top == 169
        powers = {top} | set(rng.sample(range(top + 1), rng.randint(0, top + 1)))
        p = {j: random_coeff(rng) for j in sorted(powers, reverse=True)}
        p[top] = p[top] or GR(1)
        same(_back_substitute(p, mu), reference_back_substitute(p, mu))
    assert big > 10


@pytest.mark.parametrize("mu", [GR(0, -1), GR(Fraction(1, 2), Fraction(3, 7)), GR(-3)])
def test_back_substitution_keeps_numerators_that_cancel(mu):
    # P = Q' + mu Q for a Q with gaps: the integer recurrence must cancel
    # to exact zeros at the gaps, as the reference does.
    q = {9: GR(Fraction(2, 3), 1), 6: GR(-5), 3: GR(0, Fraction(1, 7)), 0: GR(4)}
    p = {j: mu * q.get(j, GR(0)) + (j + 1) * q.get(j + 1, GR(0)) for j in range(9, -1, -1)}
    got = _back_substitute(p, mu)
    same(got, reference_back_substitute(p, mu))
    assert got == {j: q.get(j, GR(0)) for j in range(9, -1, -1)}


@pytest.mark.parametrize("p, mu", [
    ({0: GR(10 ** 400)}, GR(-1)),            # y'' - y = 1e400
    ({171: GR(1)}, GR(0, 1)),                # coefficients reach 171!
    ({171: GR(Fraction(-7, 3))}, GR(Fraction(1, 2), Fraction(3, 7))),
])
def test_back_substitution_past_float_range(p, mu):
    same(_back_substitute(p, mu), reference_back_substitute(p, mu))


# ---------------------------------------------------------------------------
# operator by the shift identity
# ---------------------------------------------------------------------------

def random_ode(rng):
    coeffs = [rng.choice([0, random_fraction(rng)]) for _ in range(rng.randint(1, 6))]
    return LinearODE(tuple(coeffs) + (random_fraction(rng) or Fraction(1),), normalize([]))


def test_shift_identity_equals_differentiate_route():
    rng = random.Random(19)
    logs = negative = 0
    for _ in range(200):
        ode, y = random_ode(rng), random_expr(rng)
        logs += any(t.logpow for t in y.terms)
        negative += any(t.tpow < 0 for t in y.terms)
        same(apply_operator(ode, y), reference_apply_operator(ode, y))
    assert logs > 50 and negative > 50


def test_shift_identity_on_homogeneous_parts_cancels_to_zero():
    # (D - 1/2)(D^2 + 1)(D + 3/4 - i/3)(D + 3/4 + i/3) annihilates e^(t/2),
    # e^(+-it) and e^((-3/4 +- i/3)t); t^j ln(t)^m times them does not.
    ode = LinearODE((Fraction(-97, 288), Fraction(-11, 144), Fraction(191, 288),
                     Fraction(133, 144), Fraction(1), Fraction(1)), normalize([]))
    rng = random.Random(3)
    roots = [GR(Fraction(1, 2)), GR(0, 1), GR(0, -1), RATES[8], RATES[9]]
    for _ in range(30):
        homogeneous = normalize([Term(random_coeff(rng), 0, 0, lam) for lam in roots])
        assert apply_operator(ode, homogeneous).is_zero
        y = homogeneous + random_expr(rng, 4)
        same(apply_operator(ode, y), reference_apply_operator(ode, y))


@pytest.mark.parametrize("text", [
    "y'' + y = t^171",
    "y'' - y = 1e400",
    "y^(6) - 3y^(4) + 3y'' - y = t^4*exp(t) + t^3*cos(2t) + exp(-t)*t^2",
    "y''' - 3y'' + 3y' - y = 5*t^3*ln(t)*exp(t)",
    "4y'' + 4y' + 2y = t^2*exp(1/2*t)*sin(3/7*t)",
])
def test_shift_identity_on_cascade_answers(text):
    ode = parse_ode(text)
    _, trace = particular_solution(ode)
    for y in [trace.y_p] + [st.output for st in trace.stages]:
        same(apply_operator(ode, y), reference_apply_operator(ode, y))
    assert apply_operator(ode, trace.y_p) == ode.forcing


def test_float_pairs_keep_the_differentiate_route():
    rng = random.Random(23)
    for _ in range(50):
        ode, y = random_ode(rng), random_expr(rng)
        floats = (ode.to_float(), y.to_float())
        want = reference_apply_operator(*floats)
        # a mixed pair is converted to floats once, at entry
        for pair in ((ode.to_float(), y), (ode, y.to_float()), floats):
            same(apply_operator(*pair), want)


# ---------------------------------------------------------------------------
# one-pass real part
# ---------------------------------------------------------------------------

def test_real_part_equals_half_sum_with_conjugate():
    rng = random.Random(41)
    for _ in range(200):
        y = random_expr(rng)
        same(_real_part(y), reference_real_part(y))


def test_real_part_cancels_skew_terms_to_zero():
    rng = random.Random(6)
    for _ in range(50):
        y = random_expr(rng)
        # y - conj(y) is skew: its real part is zero at every key
        skew = y - y.conjugate()
        assert _real_part(skew).is_zero and reference_real_part(skew).is_zero
        same(_real_part(y + skew), reference_real_part(y + skew))


# ---------------------------------------------------------------------------
# powers in the parser
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base, powers", [
    ("t+1", range(65)),
    ("3/2*t*exp(-t)", range(65)),
    ("1+t+t^2", range(0, 65, 16)),
    ("exp(t)+exp(2*t)+exp(3*t)", range(0, 65, 16)),
    # two rate directions: base^n has O(n^2) terms and n = 64 takes seconds
    # on either route, so the sweep stops at 24
    ("exp(t)+sin(t)", list(range(17)) + [24]),
])
def test_powers_equal_successive_multiplies(base, powers):
    lowered = parse_forcing(base)
    want = const(1)
    done = 0
    for n in powers:
        for _ in range(n - done):
            want = multiply(want, lowered)
        done = n
        same(_power(lowered, n), want)
        if n % 8 == 0:
            same(parse_forcing(f"({base})^{n}"), want)


@pytest.mark.parametrize("base", ["t", "2*t", "3/2*t*exp(-t)", "(1+2*i)*exp(i*t)"])
def test_negative_powers_equal_successive_multiplies(base):
    inverse = parse_forcing(f"({base})^(-1)")
    for n in range(65):
        same(parse_forcing(f"({base})^(-{n})"), reference_power(inverse, n))


def test_power_of_zero():
    zero = normalize([])
    for n in range(4):
        same(_power(zero, n), reference_power(zero, n))

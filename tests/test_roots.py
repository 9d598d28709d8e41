import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odecascade import (
    CharPoly,
    DegreeLimitExceeded,
    Expr,
    GaussianRational as GR,
    LinearODE,
    NonConvergence,
    RootEntry,
    characteristic,
    expand_from_roots,
    find_roots,
    parse_ode,
    particular_solution,
    roots,
)


def entries_as_set(rs):
    return {(complex(e.value), e.multiplicity, e.exact) for e in rs.entries}


# ---------------------------------------------------------------------------
# characteristic
# ---------------------------------------------------------------------------

def test_characteristic_copies_coefficients():
    assert characteristic(parse_ode("y''+5y'+6y = 0")).coeffs == \
        (Fraction(6), Fraction(5), Fraction(1))
    assert characteristic(parse_ode("y''-2y'+5y = 0")).coeffs == \
        (Fraction(5), Fraction(-2), Fraction(1))
    assert characteristic(parse_ode("y' = 0")).coeffs == (Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# exact path
# ---------------------------------------------------------------------------

def test_distinct_real_roots():
    rs = find_roots(CharPoly((Fraction(6), Fraction(5), Fraction(1))))
    assert entries_as_set(rs) == {(-2 + 0j, 1, True), (-3 + 0j, 1, True)}


def test_repeated_root():
    rs = find_roots(CharPoly((Fraction(4), Fraction(-4), Fraction(1))))
    assert entries_as_set(rs) == {(2 + 0j, 2, True)}


def test_complex_gaussian_pair():
    rs = find_roots(CharPoly((Fraction(5), Fraction(-2), Fraction(1))))
    assert entries_as_set(rs) == {(1 + 2j, 1, True), (1 - 2j, 1, True)}
    values = {e.value for e in rs.entries}
    assert values == {GR(1, 2), GR(1, -2)}


def test_rational_roots_with_fraction_coefficients():
    # (r - 1/2)(r + 3/2) = r^2 + r - 3/4
    rs = find_roots(CharPoly((Fraction(-3, 4), Fraction(1), Fraction(1))))
    assert entries_as_set(rs) == {(0.5 + 0j, 1, True), (-1.5 + 0j, 1, True)}


def test_zero_roots_extracted():
    # r^3 + r^2 = r^2 (r + 1)
    rs = find_roots(CharPoly((Fraction(0), Fraction(0), Fraction(1), Fraction(1))))
    assert entries_as_set(rs) == {(0j, 2, True), (-1 + 0j, 1, True)}


def test_mixed_exactness():
    # (r^2 - 2)(r - 1): rational root exact, sqrt(2) pair numeric
    rs = find_roots(CharPoly((Fraction(2), Fraction(-2), Fraction(-1), Fraction(1))))
    by_exact = {e.exact for e in rs.entries}
    assert by_exact == {True, False}
    assert rs.degree == 3
    approx = sorted(complex(e.value).real for e in rs.entries if not e.exact)
    assert approx == pytest.approx([-(2 ** 0.5), 2 ** 0.5])


def test_exact_path_handles_high_degree_rational_roots():
    # (r - 1)^13: above the numeric cap but fully rational
    coeffs = expand_from_roots([RootEntry(GR(1), 13, True)], GR(1))
    rs = find_roots(CharPoly(tuple(Fraction(c.re) for c in coeffs)))
    assert entries_as_set(rs) == {(1 + 0j, 13, True)}


# ---------------------------------------------------------------------------
# numeric path
# ---------------------------------------------------------------------------

def test_float_triple_root_is_exact():
    # (r-1)^3 (r+2) = r^4 - r^3 - 3r^2 + 5r - 2: float coefficients are the
    # dyadic rationals they hold, so the exact route finds both roots
    rs = find_roots(CharPoly((-2.0, 5.0, -3.0, -1.0, 1.0)))
    assert rs.entries == (RootEntry(GR(1), 3, True), RootEntry(GR(-2), 1, True))


def test_repeated_irrational_factors_get_exact_multiplicities():
    # (r^2 - 2)^2 (r^2 + r + 1)^3: the double -sqrt(2) came out 2.7e-9 off
    # when a cluster radius set the multiplicities
    p = _int_poly([-2, 0, 1], [-2, 0, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1])
    rs = find_roots(CharPoly(tuple(Fraction(c) for c in p)))
    cube = complex(-0.5, 3 ** 0.5 / 2)
    want = {2 ** 0.5: 2, -(2 ** 0.5): 2, cube: 3, cube.conjugate(): 3}
    assert len(rs.entries) == len(want)
    for e in rs.entries:
        root = min(want, key=lambda w: abs(w - e.value))
        assert abs(e.value - root) <= 1e-15 * abs(root)
        assert (e.multiplicity, e.exact) == (want.pop(root), False)


def test_seventh_power_of_an_irrational_quadratic():
    # (r^2 - 2)^7 has degree 14, above the numeric cap, but its one
    # square-free factor has degree 2
    p = _int_poly(*[[-2, 0, 1]] * 7)
    rs = find_roots(CharPoly(tuple(Fraction(c) for c in p)))
    assert [e.multiplicity for e in rs.entries] == [7, 7]
    assert [e.value for e in rs.entries] == pytest.approx([2 ** 0.5, -(2 ** 0.5)],
                                                          rel=1e-15)


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def _irreducible_quadratic(b, c):
    return [c, b, 1] if c and not _is_square(abs(b * b - 4 * c)) else None


def _irreducible_cubic(a, b, c):
    # monic with c != 0: a rational root is an integer divisor of c
    divisors = [d for d in range(1, abs(c) + 1) if c % d == 0]
    if any(x ** 3 + a * x * x + b * x + c == 0 for d in divisors for x in (d, -d)):
        return None
    return [c, b, a, 1]


_irrational_factors = st.one_of(
    st.builds(_irreducible_quadratic, st.integers(-3, 3), st.integers(-4, 4)),
    st.builds(_irreducible_cubic, st.integers(-2, 2), st.integers(-3, 3),
              st.sampled_from([-3, -2, -1, 1, 2, 3])),
).filter(lambda f: f is not None)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(_irrational_factors, st.integers(1, 3)), min_size=1,
                max_size=3, unique_by=lambda fm: tuple(fm[0])),
       st.lists(st.tuples(st.sampled_from([Fraction(k, 2) for k in range(-6, 7)]),
                          st.integers(1, 3)), max_size=3, unique_by=lambda rm: rm[0]))
def test_planted_irrational_factors_keep_their_multiplicities(factors, rationals):
    # prod f_i^m_i * prod (r - x_j)^k_j, the f_i shaped like the benchmark's
    # irrational factors: every multiplicity comes from exact algebra
    p = [Fraction(c) for c in _int_poly(*[f for f, m in factors for _ in range(m)])]
    for x, k in rationals:
        for _ in range(k):
            p = [a - x * b for a, b in zip([Fraction(0)] + p, p + [Fraction(0)])]
    rs = find_roots(CharPoly(tuple(p)))
    assert {e.value: e.multiplicity for e in rs.entries if e.exact} == \
        {GR(x): k for x, k in rationals}
    found = [0] * len(factors)
    for e in rs.entries:
        if e.exact:
            continue
        i, res = min(((i, abs(CharPoly(f).eval(e.value)) / max(map(abs, f)))
                      for i, (f, _) in enumerate(factors)), key=lambda ir: ir[1])
        assert res <= 1e-12
        assert e.multiplicity == factors[i][1]
        found[i] += 1
    assert found == [len(f) - 1 for f, _ in factors]


def test_planted_double_plus_imaginary_pair():
    # (r-2)^2 (r^2+1) = r^4 - 4r^3 + 5r^2 - 4r + 4
    rs = find_roots(CharPoly((4.0, -4.0, 5.0, -4.0, 1.0)))
    mults = sorted(e.multiplicity for e in rs.entries)
    assert mults == [1, 1, 2]
    for e in rs.entries:
        if e.multiplicity == 2:
            assert complex(e.value) == pytest.approx(2.0, abs=1e-8)
    pair = sorted(complex(e.value).imag for e in rs.entries if e.multiplicity == 1)
    assert pair == pytest.approx([-1.0, 1.0], abs=1e-8)


def test_numeric_conjugate_symmetry():
    rng = random.Random(3)
    for _ in range(20):
        deg = rng.randint(2, 8)
        roots = _plant_separated_roots(rng, deg)
        coeffs = _expand_float(roots)
        rs = find_roots(CharPoly(tuple(coeffs)))
        values = [complex(e.value) for e in rs.entries for _ in range(e.multiplicity)]
        assert rs.degree == deg
        for v in values:
            match = min(abs(v.conjugate() - u) for u in values)
            assert match < 1e-8


def test_reconstruction_invariant_exact():
    entries = [RootEntry(GR(2), 2, True), RootEntry(GR(-1, 1), 1, True),
               RootEntry(GR(-1, -1), 1, True)]
    coeffs = expand_from_roots(entries, GR(3))
    rs = find_roots(CharPoly(tuple(Fraction(c.re) for c in coeffs)))
    rebuilt = expand_from_roots(rs.entries, GR(3))
    assert rebuilt == coeffs


def test_reconstruction_invariant_numeric():
    rng = random.Random(11)
    for _ in range(10):
        deg = rng.randint(2, 6)
        roots = _plant_separated_roots(rng, deg)
        coeffs = _expand_float(roots)
        rs = find_roots(CharPoly(tuple(coeffs)))
        rebuilt = expand_from_roots(rs.entries, 1.0)
        scale = max(abs(c) for c in coeffs)
        for got, want in zip(rebuilt, coeffs):
            assert abs(complex(got) - complex(want)) <= 1e-8 * scale


def test_multiplicity_sum_always_matches_degree():
    rng = random.Random(5)
    for _ in range(25):
        deg = rng.randint(1, 8)
        roots = _plant_separated_roots(rng, deg)
        coeffs = _expand_float(roots)
        assert find_roots(CharPoly(tuple(coeffs))).degree == deg


def test_root_ordering_is_descending():
    rs = find_roots(CharPoly((Fraction(5), Fraction(-2), Fraction(1))))
    keys = [(complex(e.value).real, complex(e.value).imag) for e in rs.entries]
    assert keys == sorted(keys, reverse=True)


def test_nonconvergence_reports_residuals(monkeypatch):
    # sqrt(2) cannot satisfy an absurdly tight residual bound in floats
    monkeypatch.setattr(roots, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(NonConvergence) as err:
        find_roots(CharPoly((-2.0, 0.0, 1.0)))
    assert err.value.residuals


def test_degree_cap_numeric():
    coeffs = tuple(float(k + 1) for k in range(14))
    with pytest.raises(DegreeLimitExceeded):
        find_roots(CharPoly(coeffs))


def test_order_cap_bounds_find_roots():
    # r^500 + 1 would pass the split and run Aberth at degree 500
    t0 = time.perf_counter()
    for p in (CharPoly((Fraction(1),) + (Fraction(0),) * 499 + (Fraction(1),)),
              CharPoly((0.0,) * 65 + (1.0,))):
        with pytest.raises(DegreeLimitExceeded, match="limited to degree 64, got"):
            find_roots(p)
    with pytest.raises(DegreeLimitExceeded):
        particular_solution(LinearODE((Fraction(0),) * 70 + (Fraction(1),), Expr.zero()))
    assert time.perf_counter() - t0 < 1.0
    rs = find_roots(CharPoly((Fraction(0),) * 64 + (Fraction(1),)))
    assert rs.entries == (RootEntry(GR(0), 64, True),)


def test_exact_method_refuses_irrational():
    # sqrt(2) is not a Gaussian rational, so its roots come back approximate
    rs = find_roots(CharPoly((Fraction(-2), Fraction(0), Fraction(1))))
    assert not rs.all_exact()
    assert not any(e.exact for e in rs.entries)


# ---------------------------------------------------------------------------
# the exact route: square-free part, checked candidates, exact division
# ---------------------------------------------------------------------------

def _exact_poly(planted, lead=1):
    coeffs = expand_from_roots([RootEntry(v, m, True) for v, m in planted.items()],
                               GR(lead))
    return CharPoly(tuple(Fraction(c.re) for c in coeffs))


_parts = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_positive_parts = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))


@st.composite
def _planted_roots(draw):
    """{root: multiplicity} of at most 12 distinct Gaussian rationals with
    denominators 1-6: up to four conjugate pairs, then real roots."""
    pairs = draw(st.lists(st.tuples(_parts, _positive_parts, st.integers(1, 3)),
                          max_size=4, unique_by=lambda p: p[:2]))
    reals = draw(st.lists(st.tuples(_parts, st.integers(1, 3)),
                          min_size=0 if pairs else 1, max_size=12 - 2 * len(pairs),
                          unique_by=lambda r: r[0]))
    planted = {GR(x): m for x, m in reals}
    for x, y, m in pairs:
        planted[GR(x, y)] = planted[GR(x, -y)] = m
    return planted


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_planted_roots(), st.sampled_from([1, 2, 3, 7]))
def test_exact_route_finds_planted_gaussian_rationals(planted, lead):
    rs = find_roots(_exact_poly(planted, lead))
    assert rs.all_exact()
    assert {e.value: e.multiplicity for e in rs.entries} == planted


@pytest.mark.parametrize("values", [range(1, 14), range(-8, 9)], ids=["1..13", "-8..8"])
def test_exact_route_keeps_wide_integer_roots(values):
    # degree 13 and 17, above the numeric cap: the divisor search found these
    planted = {GR(k): 1 for k in values}
    rs = find_roots(_exact_poly(planted))
    assert rs.all_exact()
    assert {e.value: e.multiplicity for e in rs.entries} == planted


def test_exact_route_rejects_irrational_repeated_pair():
    # (r^2 + 5)^2: the rounded candidates +-2i fail the exact division
    rs = find_roots(CharPoly((Fraction(25), Fraction(0), Fraction(10), Fraction(0),
                              Fraction(1))))
    assert not any(e.exact for e in rs.entries)
    assert rs.degree == 4


def test_exact_route_leftover_keeps_the_leading_coefficient():
    # 2(r - 1)(r^2 - 2): the numeric path gets 2r^2 - 4, as before
    entries, leftover = roots._exact_roots(
        (Fraction(4), Fraction(-4), Fraction(-2), Fraction(2)))
    assert entries == [RootEntry(GR(1), 1, True)]
    assert leftover == [Fraction(-4), Fraction(0), Fraction(2)]


def test_square_free_split_helpers():
    # p = (r - 1)^2 (r + 2) = r^3 - 3r + 2
    p = [2, -3, 0, 1]
    g = roots._gcd(p, roots._primitive(roots._poly_derivative(p)))
    assert g in ([-1, 1], [1, -1])
    assert roots._divide(p, [-1, 1]) == [-2, 1, 1]
    assert roots._divide(p, [1, 2]) is None  # r = -1/2 is not a root
    assert roots._divide([1, 0, 1], [1, 2]) is None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _plant_separated_roots(rng: random.Random, deg: int, min_sep: float = 0.1):
    roots = []
    while len(roots) < deg:
        if deg - len(roots) >= 2 and rng.random() < 0.5:
            cand = [complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))]
            cand.append(cand[0].conjugate())
        else:
            cand = [complex(rng.uniform(-2, 2), 0.0)]
        ok = all(abs(c - r) >= min_sep for c in cand for r in roots)
        ok = ok and all(abs(a - b) >= min_sep
                        for a, b in itertools.combinations(cand, 2))
        if ok:
            roots.extend(cand)
    return roots[:deg]


def _int_poly(*factors):
    """Ascending integer coefficients of the product of the factors."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _expand_float(roots):
    coeffs = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return [c.real if abs(c.imag) < 1e-12 else c for c in coeffs]

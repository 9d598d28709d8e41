"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest

from odecascade import (
    CharPoly,
    GaussianRational as GR,
    LogForcingUnsupported,
    PowerCoefODE,
    RealExpr,
    RealTerm,
    antiderivative,
    cascade,
    differentiate,
    equal_mod_homogeneous,
    find_roots,
    normalize,
    oracle_undetermined_coefficients,
    parse_ode,
    particular_solution,
    residual_symbolic,
    solve_varcoef,
    term,
)

from support import (
    ode_from_roots,
    permutations_of,
    random_antiderivable_expr,
    random_problem,
    run_cli,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def E(*terms):
    return normalize(list(terms))


def test_criterion_1_distinct_real_roots_fixture():
    with criterion(1, "distinct real roots: (11/170) e^t cos t + (7/170) e^t sin t, "
                      "exact-zero residual, < 0.1 s"):
        t0 = perf_counter()
        ode = parse_ode("y''+5y'+6y = exp(t)*cos(t)")
        sol, trace = particular_solution(ode)
        res = residual_symbolic(ode, trace.y_p)
        elapsed = perf_counter() - t0
        want = RealExpr([
            RealTerm(Fraction(11, 170), 0, 0, Fraction(1), Fraction(1), "cos"),
            RealTerm(Fraction(7, 170), 0, 0, Fraction(1), Fraction(1), "sin"),
        ])
        assert sol == want
        assert res.is_zero and res.status == "exact-zero"
        assert elapsed < 0.1, f"pipeline took {elapsed:.3f} s"
        cli = run_cli(["solve", "y''+5y'+6y = exp(t)*cos(t)"])
        assert cli.exit_code == 0
        assert "11/170*exp(t)*cos(t) + 7/170*exp(t)*sin(t)" in cli.output


def test_criterion_2_repeated_roots_fixture():
    with criterion(2, "repeated roots: (1/20) t^5 e^{2t}, exact-zero residual"):
        ode = parse_ode("y'' - 4y' + 4y = t^3*exp(2t)")
        sol, trace = particular_solution(ode)
        assert trace.y_p == E(term(Fraction(1, 20), 5, 0, 2))
        assert sol == RealExpr([
            RealTerm(Fraction(1, 20), 5, 0, Fraction(2), Fraction(0), "cos"),
        ])
        res = residual_symbolic(ode, trace.y_p)
        assert res.is_zero and res.status == "exact-zero"


def test_criterion_3_complex_roots_fixture():
    with criterion(3, "complex roots 1+-2i: (1/10) cos t + (1/5) sin t, "
                      "exact-zero residual"):
        ode = parse_ode("y'' - 2y' + 5y = sin(t)")
        rootset = find_roots(CharPoly(ode.coeffs))
        assert {e.value for e in rootset.entries} == {GR(1, 2), GR(1, -2)}
        assert all(e.exact for e in rootset.entries)
        sol, trace = particular_solution(ode)
        want = RealExpr([
            RealTerm(Fraction(1, 10), 0, 0, Fraction(0), Fraction(1), "cos"),
            RealTerm(Fraction(1, 5), 0, 0, Fraction(0), Fraction(1), "sin"),
        ])
        assert sol == want
        res = residual_symbolic(ode, trace.y_p)
        assert res.is_zero and res.status == "exact-zero"


def test_criterion_4_log_forcing_fixture():
    with criterion(4, "log forcing: (1/4) t^2 e^{-2t} (2 ln t - 3) with stage "
                      "phi = e^{-2t}(t ln t - t), exact-zero residual"):
        ode = parse_ode("y'' + 4y' + 4y = exp(-2t)*ln(t)")
        sol, trace = particular_solution(ode)
        assert trace.stages[0].output == E(term(1, 1, 1, -2), term(-1, 1, 0, -2))
        # (1/4) t^2 e^{-2t} (2 ln t - 3) expanded
        assert trace.y_p == E(term(Fraction(-3, 4), 2, 0, -2),
                              term(Fraction(1, 2), 2, 1, -2))
        res = residual_symbolic(ode, trace.y_p)
        assert res.is_zero and res.status == "exact-zero"


def test_criterion_5_higher_order():
    with criterion(5, "third order, roots (1,2,3), q = e^{4t}: y_p = e^{4t}/6, "
                      "exact-zero residual"):
        roots = (GR(3), GR(2), GR(1))
        q = E(term(1, 0, 0, 4))
        ode = ode_from_roots(roots, q)
        # independent oracle: ansatz A e^{4t} gives A = 1/p(4), p(4) = 3*2*1
        p4 = CharPoly(ode.coeffs).eval(Fraction(4))
        assert p4 == 6
        trace = cascade(roots, q, ode.coeffs[-1])
        assert trace.y_p == E(term(Fraction(1, 6), 0, 0, 4))
        res = residual_symbolic(ode, trace.y_p)
        assert res.is_zero and res.status == "exact-zero"


@pytest.fixture(scope="module")
def residual_suite():
    rng = random.Random(2024)
    problems = []
    t0 = perf_counter()
    for k in range(200):
        ode, q, roots = random_problem(rng, max_order=4,
                                       force_resonance=(k % 5 == 0))
        trace = cascade(roots, q, ode.coeffs[-1])
        res = residual_symbolic(ode, trace.y_p)
        problems.append((ode, q, roots, trace, res))
    return problems, perf_counter() - t0


def test_criterion_6_residual_property_suite(residual_suite):
    with criterion(6, "200 random exact problems, all residuals exact-zero, < 30 s"):
        problems, elapsed = residual_suite
        assert len(problems) == 200
        for ode, q, roots, trace, res in problems:
            assert res.is_zero and res.status == "exact-zero", (roots, q)
        assert elapsed < 30.0, f"suite took {elapsed:.1f} s"


def test_criterion_7_order_independence():
    with criterion(7, "50 random problems, every root permutation: exact-zero "
                      "residuals, pairwise equal mod homogeneous, < 30 s"):
        rng = random.Random(777)
        t0 = perf_counter()
        for k in range(50):
            ode, q, roots = random_problem(rng, max_order=4,
                                           force_resonance=(k % 4 == 0))
            outputs = []
            for perm in permutations_of(roots):
                trace = cascade(perm, q, ode.coeffs[-1])
                res = residual_symbolic(ode, trace.y_p)
                assert res.is_zero and res.status == "exact-zero", (perm, q)
                outputs.append(trace.y_p)
            for other in outputs[1:]:
                assert equal_mod_homogeneous(ode, outputs[0], other)
        elapsed = perf_counter() - t0
        assert elapsed < 30.0, f"suite took {elapsed:.1f} s"


def test_criterion_8_cross_method_agreement(residual_suite):
    with criterion(8, "cascade vs undetermined-coefficients oracle agree mod "
                      "homogeneous on the log-free suite"):
        problems, _ = residual_suite
        for ode, q, roots, trace, res in problems:
            assert all(t.logpow == 0 for t in q.terms)
            y_oracle = oracle_undetermined_coefficients(ode, q)
            assert residual_symbolic(ode, y_oracle).is_zero
            assert equal_mod_homogeneous(ode, y_oracle, trace.y_p)


def test_criterion_9_fundamental_theorem():
    with criterion(9, "500 random antiderivable expressions: "
                      "differentiate(antiderivative(e)) == e, exact and float"):
        rng = random.Random(424242)
        for _ in range(500):
            e = random_antiderivable_expr(rng)
            assert differentiate(antiderivative(e)) == e
            ef = e.to_float()
            assert differentiate(antiderivative(ef)).approx_equal(ef)


def test_criterion_10_numeric_root_recovery():
    with criterion(10, "numeric roots: planted roots (sep >= 0.1, deg <= 8) "
                       "within 1e-8; exact multiplicities on the planted-"
                       "multiplicity cases"):
        rng = random.Random(1234)
        for _ in range(50):
            deg = rng.randint(2, 8)
            roots = _plant(rng, deg)
            coeffs = _expand(roots)
            rs = find_roots(CharPoly(tuple(coeffs)))
            found = [complex(v) for v in rs.expand()]
            assert len(found) == deg
            for r in roots:
                assert min(abs(f - r) for f in found) <= 1e-8

        rs = find_roots(CharPoly((-2.0, 5.0, -3.0, -1.0, 1.0)))
        got = sorted((round(complex(e.value).real, 6),
                      round(complex(e.value).imag, 6), e.multiplicity)
                     for e in rs.entries)
        assert got == [(-2.0, 0.0, 1), (1.0, 0.0, 3)]
        for e in rs.entries:
            target = 1.0 if e.multiplicity == 3 else -2.0
            assert abs(complex(e.value) - target) <= 1e-8

        rs = find_roots(CharPoly((4.0, -4.0, 5.0, -4.0, 1.0)))
        mults = sorted(e.multiplicity for e in rs.entries)
        assert mults == [1, 1, 2]
        for e in rs.entries:
            if e.multiplicity == 2:
                assert abs(complex(e.value) - 2.0) <= 1e-8
            else:
                assert abs(abs(complex(e.value).imag) - 1.0) <= 1e-8
                assert abs(complex(e.value).real) <= 1e-8


def test_criterion_11_variable_coefficient():
    with criterion(11, "variable-coefficient manufactured case: stage residuals "
                       "<= 1e-8, FD residual <= 1e-5, halving ratio in [12, 20], "
                       "< 1 s"):
        ode = PowerCoefODE(1.0, 1, lambda x: math.exp(x * x / 2), 0.0, 1.0)
        t0 = perf_counter()
        sol = solve_varcoef(ode, 1e-3)
        elapsed = perf_counter() - t0
        assert sol.max_stage1_residual <= 1e-8
        assert sol.max_stage2_residual <= 1e-8
        assert sol.max_fd_residual <= 1e-5
        assert elapsed < 1.0, f"solve took {elapsed:.2f} s"

        coarse = solve_varcoef(ode, 4e-3)
        fine = solve_varcoef(ode, 2e-3)
        for attr in ("max_stage1_residual", "max_stage2_residual"):
            ratio = getattr(coarse, attr) / getattr(fine, attr)
            assert 12.0 <= ratio <= 20.0, (attr, ratio)


def test_criterion_12_error_paths():
    with criterion(12, "error paths: NotClosedForm exit code 3 naming the "
                       "stage; oracle rejects log forcing"):
        result = run_cli(["solve", "y'' + y = exp(t)*ln(t)"])
        assert result.exit_code == 3
        assert "stage 1" in result.stderr

        ode = parse_ode("y'' + 4y' + 4y = exp(-2t)*ln(t)")
        with pytest.raises(LogForcingUnsupported):
            oracle_undetermined_coefficients(ode, ode.forcing)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _plant(rng: random.Random, deg: int, min_sep: float = 0.1):
    roots = []
    while len(roots) < deg:
        if deg - len(roots) >= 2 and rng.random() < 0.5:
            cand = [complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))]
            cand.append(cand[0].conjugate())
        else:
            cand = [complex(rng.uniform(-2, 2), 0.0)]
        if all(abs(c - r) >= min_sep for c in cand for r in roots) and (
                len(cand) == 1 or abs(cand[0] - cand[1]) >= min_sep):
            roots.extend(cand)
    return roots[:deg]


def _expand(roots):
    coeffs = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return [c.real if abs(c.imag) < 1e-12 else c for c in coeffs]

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from odecascade import (
    NotFactorable,
    OverflowGuard,
    PowerCoefODE,
    StepTooLarge,
    parse_forcing,
    recognize_factorable,
    residual_varcoef,
    solve_varcoef,
)
from odecascade.varcoef import _GL_NODES, _GL_WEIGHTS, GL_ORDER, _closed_forms, _cross_check


# ---------------------------------------------------------------------------
# recognize_factorable
# ---------------------------------------------------------------------------

def test_recognize_matching_form():
    ode = recognize_factorable(-9.0, 4)
    assert ode.a == pytest.approx(3.0)
    assert ode.n == 2


def test_recognize_odd_power_rejected():
    with pytest.raises(NotFactorable) as err:
        recognize_factorable(-1.0, 3)
    assert "even" in str(err.value)


def test_recognize_positive_coefficient_rejected():
    with pytest.raises(NotFactorable) as err:
        recognize_factorable(1.0, 2)
    assert "negative" in str(err.value)


def test_recognize_zero_coefficient_rejected():
    with pytest.raises(NotFactorable):
        recognize_factorable(0.0, 2)


def test_recognize_carries_forcing_and_domain():
    ode = recognize_factorable(-4.0, 2, forcing=lambda x: 1.0, x0=1.0, x1=2.0)
    assert (ode.x0, ode.x1) == (1.0, 2.0)
    assert ode.forcing(0.3) == 1.0


# ---------------------------------------------------------------------------
# solve_varcoef
# ---------------------------------------------------------------------------

def test_degenerate_double_integration_is_exact():
    # a = 0, q = 2, zero initial values at 0: y = x^2 exactly
    ode = PowerCoefODE(0.0, 0, lambda x: 2.0, 0.0, 1.0)
    sol = solve_varcoef(ode, 1e-2)
    assert max(abs(y - x ** 2) for x, y in zip(sol.xs, sol.y)) < 1e-13
    assert max(abs(phi - 2 * x) for x, phi in zip(sol.xs, sol.phi)) < 1e-13
    assert sol.max_fd_residual < 1e-10  # quadratic is exact for centered diffs


def test_manufactured_solution_stage_residuals():
    # y_m = e^{x^2/2} satisfies y'' - (1+x^2) y = 0 and y'' - x^2 y = q with
    # q = e^{x^2/2}; the march must satisfy the stage equations to RK4 order
    ode = PowerCoefODE(1.0, 1, lambda x: math.exp(x * x / 2), 0.0, 1.0)
    sol = solve_varcoef(ode, 1e-3)
    assert sol.max_stage1_residual <= 1e-8
    assert sol.max_stage2_residual <= 1e-8
    assert sol.max_fd_residual <= 1e-5


def test_forcing_as_expr():
    ode = PowerCoefODE(0.0, 0, parse_forcing("2*x"), 0.0, 1.0)
    sol = solve_varcoef(ode, 1e-2)
    assert max(abs(y - x ** 3 / 3) for x, y in zip(sol.xs, sol.y)) < 1e-12


def test_convergence_rates_under_halving():
    ode = PowerCoefODE(1.0, 1, lambda x: math.exp(x * x / 2), 0.0, 1.0)
    coarse = solve_varcoef(ode, 4e-3)
    fine = solve_varcoef(ode, 2e-3)
    for attr in ("max_stage1_residual", "max_stage2_residual"):
        ratio = getattr(coarse, attr) / getattr(fine, attr)
        assert 12.0 <= ratio <= 20.0, (attr, ratio)
    fd_ratio = coarse.max_fd_residual / fine.max_fd_residual
    assert 3.5 <= fd_ratio <= 4.5, fd_ratio


def test_smooth_forcing_residual_levels():
    # modest-amplitude smooth forcing on [1, 2] with n = 2
    q = lambda x: 0.05 * math.sin(2 * x) + 0.1
    ode = PowerCoefODE(1.0, 2, q, 1.0, 2.0)
    sol = solve_varcoef(ode, 1e-3)
    r1, r2, rfd = residual_varcoef(sol, ode)
    assert r1 <= 1e-5 and r2 <= 1e-5 and rfd <= 1e-5
    assert (r1, r2, rfd) == (sol.max_stage1_residual, sol.max_stage2_residual,
                             sol.max_fd_residual)


def test_grid_covers_domain_and_values_finite():
    ode = PowerCoefODE(1.0, 1, lambda x: 1.0, 0.0, 1.0)
    sol = solve_varcoef(ode, 1e-2)
    assert sol.xs[0] == 0.0 and sol.xs[-1] == pytest.approx(1.0)
    assert np.all(np.isfinite(sol.phi)) and np.all(np.isfinite(sol.y))
    assert len(sol.xs) == len(sol.phi) == len(sol.y)
    assert sol.stage1_residuals is not None
    assert math.isfinite(sol.max_stage1_residual)


def test_march_evaluates_the_forcing_once_per_point():
    # RK4's k2 and k3 share the midpoint, and the residuals reuse the
    # march's node values: 3 per step plus the last node, none repeated
    points = []

    def forcing(x):
        points.append(x)
        return math.exp(x * x / 2)

    sol = solve_varcoef(PowerCoefODE(1.0, 1, forcing, 0.0, 1.0), 1e-3, probe_points=0)
    assert len(points) == 3 * 1000 + 1
    assert points[-1] == sol.xs[-1]
    assert residual_varcoef(sol, PowerCoefODE(1.0, 1, forcing, 0.0, 1.0)) == (
        sol.max_stage1_residual, sol.max_stage2_residual, sol.max_fd_residual)


def test_probe_cross_check_agrees():
    ode = PowerCoefODE(1.0, 1, lambda x: math.exp(x * x / 2), 0.0, 1.0)
    sol = solve_varcoef(ode, 1e-3, probe_points=5)
    assert len(sol.probe_xs) == 5
    assert float(np.max(sol.probe_phi_errors)) < 1e-8
    assert float(np.max(sol.probe_y_errors)) < 1e-8


def test_closed_forms_match_elementary_solutions():
    # n = 0, q = e^(b x): phi' + a phi = q and y' - a y = phi from zero at 0
    a, b = 1.5, 0.5
    ode = PowerCoefODE(a, 0, lambda x: math.exp(b * x), 0.0, 2.0)
    for x in (0.1, 0.7, 1.3, 2.0):
        phi = (math.exp(b * x) - math.exp(-a * x)) / (a + b)
        y = math.exp(a * x) / (a + b) * (
            (math.exp((b - a) * x) - 1) / (b - a) - (1 - math.exp(-2 * a * x)) / (2 * a))
        got_phi, got_y = _closed_forms(ode, ode.forcing_callable(), x)
        assert got_phi == pytest.approx(phi, rel=1e-12, abs=0)
        assert got_y == pytest.approx(y, rel=1e-12, abs=0)
    # a = 0, polynomial forcing: phi = x^3, y = x^4 / 4
    ode = PowerCoefODE(0.0, 0, parse_forcing("3*x^2"), 0.0, 1.0)
    for x in (0.25, 0.5, 1.0):
        got_phi, got_y = _closed_forms(ode, ode.forcing_callable(), x)
        assert got_phi == pytest.approx(x ** 3, rel=1e-12, abs=0)
        assert got_y == pytest.approx(x ** 4 / 4, rel=1e-12, abs=0)


def test_gauss_legendre_rule_matches_numpy():
    nodes, weights = leggauss(GL_ORDER)
    assert len(_GL_NODES) == len(_GL_WEIGHTS) == GL_ORDER
    assert max(abs(a - b) for a, b in zip(_GL_NODES, nodes)) <= 1e-15
    assert max(abs(a - b) for a, b in zip(_GL_WEIGHTS, weights)) <= 1e-15


@pytest.mark.parametrize("count", [5, 6, 7, 11, 101, 1001, 1501])
@pytest.mark.parametrize("probe_points", [1, 2, 3, 5, 7, 10, 64])
def test_probe_nodes_match_numpy(count, probe_points):
    ode = PowerCoefODE(1.0, 1, lambda x: math.exp(x * x / 2), 0.0, 1.0)
    sol = solve_varcoef(ode, 1.0 / (count - 1), stage_tol=math.inf, probe_points=0)
    assert len(sol.xs) == count
    probe_xs, _, _ = _cross_check(sol, ode, probe_points, math.inf)
    idx = np.unique(np.linspace(1, count - 1, probe_points).astype(int))
    assert list(probe_xs) == [sol.xs[i] for i in idx]


@pytest.mark.parametrize("attr", ["phi", "y"])
def test_cross_check_catches_perturbed_probe(attr):
    ode = PowerCoefODE(1.0, 1, lambda x: math.exp(x * x / 2), 0.0, 1.0)
    sol = solve_varcoef(ode, 1e-3, probe_points=5)
    node = int(np.searchsorted(sol.xs, sol.probe_xs[2]))
    getattr(sol, attr)[node] += 1e-4
    with pytest.raises(StepTooLarge):
        _cross_check(sol, ode, 5, 1e-6)


def test_cross_check_overflow_is_guarded():
    # a = -1 on [0, 500]: the march stays finite, but the closed forms need
    # e^(A(u) - 2 A(s)) = e^(2s - u), past the double range beyond s ~ 355
    ode = PowerCoefODE(-1.0, 0, lambda x: 1.0, 0.0, 500.0)
    sol = solve_varcoef(ode, 1.0, stage_tol=math.inf, probe_points=0)
    with pytest.raises(OverflowGuard, match="closed-form cross-check is not finite"):
        _cross_check(sol, ode, 5, 1e-6)


def test_overflow_guard():
    ode = PowerCoefODE(2.0, 3, lambda x: 1.0, 0.0, 10.0)
    with pytest.raises(OverflowGuard):
        solve_varcoef(ode, 1e-2)


def test_step_too_large():
    ode = PowerCoefODE(1.0, 1, lambda x: math.exp(x * x / 2), 0.0, 1.0)
    with pytest.raises(StepTooLarge):
        solve_varcoef(ode, 0.25)


def test_log_forcing_requires_positive_domain():
    with pytest.raises(ValueError):
        PowerCoefODE(1.0, 1, parse_forcing("ln(x)"), 0.0, 1.0)
    ode = PowerCoefODE(1.0, 1, parse_forcing("ln(x)"), 0.5, 1.5)
    sol = solve_varcoef(ode, 1e-3)
    assert sol.max_stage1_residual < 1e-8


def test_invalid_inputs():
    with pytest.raises(ValueError):
        PowerCoefODE(1.0, -1, lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        PowerCoefODE(1.0, 1, lambda x: 1.0, 1.0, 1.0)
    ode = PowerCoefODE(1.0, 1, lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_varcoef(ode, -1.0)

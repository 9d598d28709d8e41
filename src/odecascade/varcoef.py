"""Numeric particular solutions for the factorable power-coefficient form.

A second-order operator that factors as (D + a*x^n I)(D - a*x^n I) splits the
equation into two first-order linear solves,

    phi' + a x^n phi = q(x)        then        y' - a x^n y = phi(x),

each with the closed-form integrating factor exp(+-a x^(n+1)/(n+1)).  Note
the product rule: expanding the factored operator gives

    D^2 - (a n x^(n-1) + a^2 x^(2n)) I,

so the equation actually solved by the two stages is
y'' - (a n x^(n-1) + a^2 x^(2n)) y = q; the first-order cross term vanishes
only for n = 0 or a = 0.  All residual checks here use that factored form.

The closed-form integrals are generally non-elementary, so the primary path
marches both stages simultaneously with classical fourth-order Runge-Kutta
from zero initial values (any initial values give a particular solution;
zero is the reproducible choice).  The closed forms are still used:
composite Gauss-Legendre quadrature evaluates them at a handful of probe
points as an independent cross-check of the march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .algebra import Expr, evaluate
from .errors import DomainError, NotFactorable, OverflowGuard, StepTooLarge

#: exp argument cap: |a x^(n+1)/(n+1)| above this overflows doubles.
EXP_ARG_LIMIT = 700.0
#: Gauss-Legendre nodes per panel of the cross-check quadrature.
GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = leggauss(GL_ORDER)
#: The cross-check doubles its panel count up to this many, then settles for
#: its finest estimate.
GL_MAX_PANELS = 32


@dataclass(frozen=True)
class PowerCoefODE:
    """The factorable form with parameters a and n on a domain [x0, x1].

    ``forcing`` is an :class:`Expr` in x or any float callable; it only ever
    gets evaluated numerically.
    """

    a: float
    n: int
    forcing: object
    x0: float
    x1: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("n must be a nonnegative integer")
        if not self.x1 > self.x0:
            raise ValueError("need x1 > x0")
        if not (math.isfinite(self.x0) and math.isfinite(self.x1)):
            raise ValueError("need a finite domain")
        if isinstance(self.forcing, Expr):
            needs_positive = any(t.logpow > 0 or t.tpow < 0 for t in self.forcing.terms)
            if needs_positive and self.x0 <= 0:
                raise ValueError("forcing with logs needs x0 > 0")
        elif not callable(self.forcing):
            raise TypeError("forcing must be an Expr or a callable")

    def forcing_callable(self):
        """q(x) as a float.  A callable forcing that fails at x (division by
        zero, a math domain error, a complex value) raises
        :class:`DomainError`; one that overflows raises :class:`OverflowGuard`."""
        f = self.forcing
        if isinstance(f, Expr):
            return lambda x: evaluate(f, x).real

        def q(x):
            try:
                return float(f(x))
            except OverflowError as exc:
                raise OverflowGuard(f"forcing overflows at x={x}: {exc}") from exc
            except (ZeroDivisionError, ValueError, TypeError) as exc:
                raise DomainError(f"forcing is undefined at x={x}: {exc}") from exc

        return q

    def coefficient(self, x):
        """w(x) in the factored-form equation y'' - w(x) y = q."""
        a, n = self.a, self.n
        w = a * a * x ** (2 * n)
        if n >= 1:
            w = w + a * n * x ** (n - 1)
        return w


@dataclass
class NumericSolution:
    """Sampled stage function phi and particular solution y on a uniform grid,
    with the residual diagnostics filled in by the solver."""

    xs: np.ndarray
    phi: np.ndarray
    y: np.ndarray
    h: float
    stage1_residuals: np.ndarray = field(default=None, repr=False)
    stage2_residuals: np.ndarray = field(default=None, repr=False)
    fd_residuals: np.ndarray = field(default=None, repr=False)
    max_stage1_residual: float = math.nan
    max_stage2_residual: float = math.nan
    max_fd_residual: float = math.nan
    probe_xs: np.ndarray = field(default=None, repr=False)
    probe_phi_errors: np.ndarray = field(default=None, repr=False)
    probe_y_errors: np.ndarray = field(default=None, repr=False)


def recognize_factorable(b: float, m: int, forcing=None,
                         x0: float = 0.0, x1: float = 1.0) -> PowerCoefODE:
    """Match y'' + b*x^m*y = q against the factorable pattern -a^2 x^(2n).

    Succeeds iff b < 0 and m is even, giving a = sqrt(-b) and n = m/2.
    Raises :class:`NotFactorable` with the reason otherwise.
    """
    if not isinstance(m, int):
        raise TypeError("m must be an integer")
    if b >= 0:
        raise NotFactorable(
            f"coefficient b = {b} must be negative: -a^2 has no real a otherwise"
        )
    if m % 2 != 0:
        raise NotFactorable(f"power m = {m} must be even to match x^(2n)")
    if forcing is None:
        forcing = lambda x: 0.0
    return PowerCoefODE(math.sqrt(-b), m // 2, forcing, x0, x1)


def _exp_arg(a: float, n: int, x: float) -> float:
    return a * x ** (n + 1) / (n + 1)


def solve_varcoef(ode: PowerCoefODE, h: float, stage_tol: float = 1e-6,
                  probe_points: int = 5, probe_tol: float = 1e-6) -> NumericSolution:
    """March both first-order stages left-to-right with classical RK4.

    Zero initial values at x0 give the canonical particular solution.  After
    the march the stage residuals are checked (:class:`StepTooLarge` if they
    exceed ``stage_tol``) and the integrating-factor closed forms are
    evaluated by Gauss-Legendre quadrature at ``probe_points`` probe nodes as
    an independent cross-check.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    worst = max(abs(_exp_arg(ode.a, ode.n, ode.x0)), abs(_exp_arg(ode.a, ode.n, ode.x1)))
    if worst > EXP_ARG_LIMIT:
        raise OverflowGuard(
            f"integrating factor exponent reaches {worst:.1f} > {EXP_ARG_LIMIT:.0f} "
            "on this domain; shrink the domain or the parameters"
        )

    span = ode.x1 - ode.x0
    steps = max(4, round(span / h))
    h_eff = span / steps
    q = ode.forcing_callable()
    a, n = ode.a, ode.n

    def rhs(x, phi, y):
        axn = a * x ** n
        return q(x) - axn * phi, phi + axn * y

    xs = np.empty(steps + 1)
    phis = np.empty(steps + 1)
    ys = np.empty(steps + 1)
    xs[0], phis[0], ys[0] = ode.x0, 0.0, 0.0
    phi, y = 0.0, 0.0
    for i in range(steps):
        x = ode.x0 + i * h_eff
        k1p, k1y = rhs(x, phi, y)
        k2p, k2y = rhs(x + h_eff / 2, phi + h_eff / 2 * k1p, y + h_eff / 2 * k1y)
        k3p, k3y = rhs(x + h_eff / 2, phi + h_eff / 2 * k2p, y + h_eff / 2 * k2y)
        k4p, k4y = rhs(x + h_eff, phi + h_eff * k3p, y + h_eff * k3y)
        phi += h_eff / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        y += h_eff / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        xs[i + 1] = ode.x0 + (i + 1) * h_eff
        phis[i + 1] = phi
        ys[i + 1] = y
    if not (np.all(np.isfinite(phis)) and np.all(np.isfinite(ys))):
        raise OverflowGuard("solution is not finite on the grid")

    sol = NumericSolution(xs=xs, phi=phis, y=ys, h=h_eff)
    r1, r2, rfd = _residual_arrays(sol, ode)
    sol.stage1_residuals, sol.stage2_residuals, sol.fd_residuals = r1, r2, rfd
    sol.max_stage1_residual = float(np.nanmax(np.abs(r1)))
    sol.max_stage2_residual = float(np.nanmax(np.abs(r2)))
    sol.max_fd_residual = float(np.nanmax(np.abs(rfd)))
    if max(sol.max_stage1_residual, sol.max_stage2_residual) > stage_tol:
        raise StepTooLarge(
            f"stage residuals {sol.max_stage1_residual:.3e}, "
            f"{sol.max_stage2_residual:.3e} exceed {stage_tol:.1e}; reduce h"
        )

    if probe_points > 0:
        _cross_check(sol, ode, probe_points, probe_tol)
    return sol


def _cross_check(sol: NumericSolution, ode: PowerCoefODE,
                 probe_points: int, probe_tol: float):
    """Evaluate the closed-form integrating-factor solutions by Gauss-Legendre
    quadrature at a few grid nodes and compare with the march."""
    q = ode.forcing_callable()
    count = len(sol.xs)
    idx = np.unique(np.linspace(1, count - 1, probe_points).astype(int))
    probe_xs = sol.xs[idx]
    exact = np.array([_closed_forms(ode, q, x) for x in probe_xs])
    if not np.all(np.isfinite(exact)):
        raise OverflowGuard("closed-form cross-check is not finite on this domain")
    phi_scale = max(1.0, float(np.max(np.abs(sol.phi))))
    y_scale = max(1.0, float(np.max(np.abs(sol.y))))
    phi_err = np.abs(exact[:, 0] - sol.phi[idx])
    y_err = np.abs(exact[:, 1] - sol.y[idx])
    sol.probe_xs = probe_xs
    sol.probe_phi_errors = phi_err
    sol.probe_y_errors = y_err
    if np.max(phi_err) > probe_tol * phi_scale or np.max(y_err) > probe_tol * y_scale:
        raise StepTooLarge(
            f"quadrature cross-check deviates by {float(np.max(phi_err)):.3e} (phi) / "
            f"{float(np.max(y_err)):.3e} (y); the march is not resolved, reduce h"
        )


def _closed_forms(ode: PowerCoefODE, q, x: float):
    """(phi(x), y(x)) from the integrating-factor closed forms, with A(s) the
    exponent a s^(n+1)/(n+1):

        phi(x) = e^(-A(x)) I(x),   I(x) = int_x0^x e^(A(u)) q(u) du,
        y(x)   = e^(A(x)) J(x),    J(x) = int_x0^x e^(-A(s)) phi(s) ds.

    Swapping the order of integration in J gives

        J(x) = int_x0^x q(u) int_u^x e^(A(u) - 2 A(s)) ds du,

    so q is sampled once per node, shared by I and J.  The panel count
    doubles until two successive estimates of I agree to epsabs 1e-12 /
    epsrel 1e-10 and of J to 1e-10 / 1e-8.
    """
    a, n, x0 = ode.a, ode.n, ode.x0
    previous = None
    panels = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            t, w = _unit_rule(panels)
            us = x0 + (x - x0) * t
            qs = np.array([q(u) for u in us])
            a_u = _exp_arg(a, n, us)
            integral_i = (x - x0) * np.dot(w, np.exp(a_u) * qs)
            ss = us[:, None] + (x - us)[:, None] * t
            inner = (x - us) * (np.exp(a_u[:, None] - 2 * _exp_arg(a, n, ss)) @ w)
            integral_j = (x - x0) * np.dot(w, qs * inner)
            converged = previous is not None and (
                abs(integral_i - previous[0]) <= max(1e-12, 1e-10 * abs(integral_i))
                and abs(integral_j - previous[1]) <= max(1e-10, 1e-8 * abs(integral_j)))
            if converged or panels >= GL_MAX_PANELS:
                break
            previous = integral_i, integral_j
            panels *= 2
        big_a = _exp_arg(a, n, x)
        return math.exp(-big_a) * integral_i, math.exp(big_a) * integral_j


def _unit_rule(panels: int):
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1] with
    ``panels`` equal panels of :data:`GL_ORDER` nodes each."""
    nodes = (np.arange(panels)[:, None] + (_GL_NODES + 1) / 2) / panels
    return nodes.ravel(), np.tile(_GL_WEIGHTS / (2 * panels), panels)


def _residual_arrays(sol: NumericSolution, ode: PowerCoefODE):
    xs, phi, y, h = sol.xs, sol.phi, sol.y, sol.h
    a, n = ode.a, ode.n
    q = ode.forcing_callable()
    qv = np.array([q(x) for x in xs])
    axn = a * xs ** n

    # fourth-order centered first derivative, defined on nodes 2..N-2
    def d4(u):
        out = np.full_like(u, np.nan)
        out[2:-2] = (-u[4:] + 8 * u[3:-1] - 8 * u[1:-3] + u[:-4]) / (12 * h)
        return out

    # second-order centered second derivative, defined on nodes 1..N-1
    def d2(u):
        out = np.full_like(u, np.nan)
        out[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / (h * h)
        return out

    r1 = d4(phi) + axn * phi - qv
    r2 = d4(y) - axn * y - phi
    w = np.array([ode.coefficient(x) for x in xs])
    rfd = d2(y) - w * y - qv
    return r1, r2, rfd


def residual_varcoef(sol: NumericSolution, ode: PowerCoefODE):
    """Maximum residuals of the two stage equations (fourth-order centered
    differences) and of the factored-form second-order equation (centered
    second differences), over the interior nodes."""
    r1, r2, rfd = _residual_arrays(sol, ode)
    return (
        float(np.nanmax(np.abs(r1))),
        float(np.nanmax(np.abs(r2))),
        float(np.nanmax(np.abs(rfd))),
    )

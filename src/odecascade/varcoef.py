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
points as an independent cross-check of the march.  The rule comes from
Newton's method on the Legendre recurrence; all arrays are lists of floats.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import Expr, evaluate
from .errors import DomainError, NotFactorable, OverflowGuard, StepTooLarge

#: exp argument cap: |a x^(n+1)/(n+1)| above this overflows doubles.
EXP_ARG_LIMIT = 700.0
#: Gauss-Legendre nodes per panel of the cross-check quadrature.
GL_ORDER = 16
#: The cross-check doubles its panel count up to this many, then settles for
#: its finest estimate.
GL_MAX_PANELS = 32


class PowerCoefODE(namedtuple("PowerCoefODE", "a n forcing x0 x1")):
    """The factorable form with parameters a and n on a domain [x0, x1].

    ``forcing`` is an :class:`Expr` in x or any float callable; it only ever
    gets evaluated numerically.
    """

    __slots__ = ()

    def __new__(cls, a: float, n: int, forcing, x0: float, x1: float):
        if not isinstance(n, int) or n < 0:
            raise ValueError("n must be a nonnegative integer")
        if not x1 > x0:
            raise ValueError("need x1 > x0")
        if not (math.isfinite(x0) and math.isfinite(x1)):
            raise ValueError("need a finite domain")
        if isinstance(forcing, Expr):
            needs_positive = any(t.logpow > 0 or t.tpow < 0 for t in forcing.terms)
            if needs_positive and x0 <= 0:
                raise ValueError("forcing with logs needs x0 > 0")
        elif not callable(forcing):
            raise TypeError("forcing must be an Expr or a callable")
        return super().__new__(cls, a, n, forcing, x0, x1)

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


class NumericSolution(namedtuple(
        "NumericSolution",
        "xs phi y h stage1_residuals stage2_residuals fd_residuals max_stage1_residual "
        "max_stage2_residual max_fd_residual probe_xs probe_phi_errors probe_y_errors",
        defaults=(None, None, None))):
    """Sampled stage function phi and particular solution y on a uniform grid
    (lists of floats, step h), with the solver's residual diagnostics; the
    probe fields are None when the cross-check did not run."""

    __slots__ = ()


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


def linspace(start: float, stop: float, num: int) -> list[float]:
    """The points of ``numpy.linspace(start, stop, num)``, bit for bit."""
    div = num - 1
    delta = stop - start
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _max_abs(values) -> float:
    """The largest |v| over the values that are not NaN; NaN if none is."""
    return max((abs(v) for v in values if not math.isnan(v)), default=math.nan)


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

    def field(x):  # (a x^n, q(x)), evaluated once per point
        return a * x ** n, q(x)

    def rhs(f, phi, y):
        axn, qx = f
        return qx - axn * phi, phi + axn * y

    xs, phis, ys, qs = [ode.x0], [0.0], [0.0], []
    phi, y = 0.0, 0.0
    for i in range(steps):
        x = ode.x0 + i * h_eff
        f = field(x)
        qs.append(f[1])
        k1p, k1y = rhs(f, phi, y)
        f = field(x + h_eff / 2)  # k2 and k3 share the midpoint
        k2p, k2y = rhs(f, phi + h_eff / 2 * k1p, y + h_eff / 2 * k1y)
        k3p, k3y = rhs(f, phi + h_eff / 2 * k2p, y + h_eff / 2 * k2y)
        k4p, k4y = rhs(field(x + h_eff), phi + h_eff * k3p, y + h_eff * k3y)
        phi += h_eff / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        y += h_eff / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        xs.append(ode.x0 + (i + 1) * h_eff)
        phis.append(phi)
        ys.append(y)
    if not (all(map(math.isfinite, phis)) and all(map(math.isfinite, ys))):
        raise OverflowGuard("solution is not finite on the grid")

    # k1 took q at every node but the last (x0 + i*h_eff is xs[i] for i >= 1;
    # the residuals at the first and last node are NaN whatever q is there)
    qs.append(q(xs[-1]))
    residuals = _residual_arrays((xs, phis, ys, h_eff), ode, qs)
    maxima = [_max_abs(r) for r in residuals]
    if max(maxima[:2]) > stage_tol:
        raise StepTooLarge(
            f"stage residuals {maxima[0]:.3e}, {maxima[1]:.3e} exceed {stage_tol:.1e}; "
            "reduce h"
        )
    probes = ()
    if probe_points > 0:
        probes = _cross_check((xs, phis, ys), ode, probe_points, probe_tol)
    return NumericSolution(xs, phis, ys, h_eff, *residuals, *maxima, *probes)


def _cross_check(march, ode: PowerCoefODE, probe_points: int, probe_tol: float):
    """Evaluate the closed-form integrating-factor solutions by Gauss-Legendre
    quadrature at a few grid nodes of the march (xs, phi, y, ..., as the
    first fields of a :class:`NumericSolution`) and compare with it.
    Returns the probe nodes and the phi and y errors there."""
    xs, phi, y = march[:3]
    q = ode.forcing_callable()
    idx = sorted({int(v) for v in linspace(1, len(xs) - 1, probe_points)})
    probe_xs = [xs[i] for i in idx]
    try:
        exact = [_closed_forms(ode, q, x) for x in probe_xs]
    except OverflowError:
        exact = None
    if exact is None or not all(math.isfinite(v) for pair in exact for v in pair):
        raise OverflowGuard("closed-form cross-check is not finite on this domain")
    phi_scale = max(1.0, _max_abs(phi))
    y_scale = max(1.0, _max_abs(y))
    phi_err = [abs(e[0] - phi[i]) for e, i in zip(exact, idx)]
    y_err = [abs(e[1] - y[i]) for e, i in zip(exact, idx)]
    if max(phi_err) > probe_tol * phi_scale or max(y_err) > probe_tol * y_scale:
        raise StepTooLarge(
            f"quadrature cross-check deviates by {max(phi_err):.3e} (phi) / "
            f"{max(y_err):.3e} (y); the march is not resolved, reduce h"
        )
    return probe_xs, phi_err, y_err


def _closed_forms(ode: PowerCoefODE, q, x: float):
    """(phi(x), y(x)) from the integrating-factor closed forms, with A(s) the
    exponent a s^(n+1)/(n+1):

        phi(x) = e^(-A(x)) I(x),   I(x) = int_x0^x e^(A(u)) q(u) du,
        y(x)   = e^(A(x)) J(x),    J(x) = int_x0^x e^(-A(s)) phi(s) ds.

    Swapping the order of integration in J gives

        J(x) = int_x0^x q(u) int_u^x e^(A(u) - 2 A(s)) ds du,

    so q is sampled once per node, shared by I and J.  The panel count
    doubles until two successive estimates of I agree to epsabs 1e-12 /
    epsrel 1e-10 and of J to 1e-10 / 1e-8.  An exponent past the double
    range raises ``OverflowError``.
    """
    a, n, x0 = ode.a, ode.n, ode.x0
    previous = None
    panels = 1
    while True:
        t, w = _unit_rule(panels)
        integral_i = integral_j = 0.0
        for u, wu in zip((x0 + (x - x0) * tk for tk in t), w):
            qu, a_u = q(u), _exp_arg(a, n, u)
            inner = sum(wk * math.exp(a_u - 2 * _exp_arg(a, n, u + (x - u) * tk))
                        for tk, wk in zip(t, w))
            integral_i += wu * (math.exp(a_u) * qu)
            integral_j += wu * (qu * ((x - u) * inner))
        integral_i, integral_j = (x - x0) * integral_i, (x - x0) * integral_j
        converged = previous is not None and (
            abs(integral_i - previous[0]) <= max(1e-12, 1e-10 * abs(integral_i))
            and abs(integral_j - previous[1]) <= max(1e-10, 1e-8 * abs(integral_j)))
        if converged or panels >= GL_MAX_PANELS:
            break
        previous = integral_i, integral_j
        panels *= 2
    big_a = _exp_arg(a, n, x)
    return math.exp(-big_a) * integral_i, math.exp(big_a) * integral_j


def _gauss_legendre(order: int):
    """Nodes (ascending) and weights of the ``order``-point Gauss-Legendre rule
    on [-1, 1]: Newton's method on P_order, evaluated with its derivative by
    the three-term recurrence, from the usual cosine guesses (Press et al.,
    Numerical Recipes, section 4.6, ``gauleg``)."""
    def legendre(z):
        p, p_prev = 1.0, 0.0
        for j in range(1, order + 1):
            p, p_prev = ((2 * j - 1) * z * p - (j - 1) * p_prev) / j, p
        return p, order * (z * p - p_prev) / (z * z - 1)

    nodes, weights = [0.0] * order, [0.0] * order
    for i in range((order + 1) // 2):
        z, step = math.cos(math.pi * (i + 0.75) / (order + 0.5)), 1.0
        while abs(step) > 1e-15:
            p, dp = legendre(z)
            step = p / dp
            z -= step
        dp = legendre(z)[1]
        nodes[i], nodes[order - 1 - i] = -z, z
        weights[i] = weights[order - 1 - i] = 2 / ((1 - z * z) * dp * dp)
    return nodes, weights


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(GL_ORDER)


def _unit_rule(panels: int):
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1] with
    ``panels`` equal panels of :data:`GL_ORDER` nodes each."""
    nodes = [(k + (t + 1) / 2) / panels for k in range(panels) for t in _GL_NODES]
    return nodes, [w / (2 * panels) for w in _GL_WEIGHTS] * panels


def _residual_arrays(march, ode: PowerCoefODE, qv=None):
    """Stage 1, stage 2 and factored-form residuals at the nodes of the march
    (xs, phi, y, h, ..., as the first fields of a :class:`NumericSolution`);
    ``qv``, the forcing at those nodes, is evaluated here when not given."""
    xs, phi, y, h = march[:4]
    a, n = ode.a, ode.n
    if qv is None:
        q = ode.forcing_callable()
        qv = [q(x) for x in xs]
    # x * x is correctly rounded; the libm pow() behind x ** 2 now and then is not
    axn = [a * (x * x if n == 2 else x ** n) for x in xs]
    nan = math.nan

    # fourth-order centered first derivative, defined on nodes 2..N-2
    def d4(u):
        return [nan, nan, *((-u[k + 2] + 8 * u[k + 1] - 8 * u[k - 1] + u[k - 2]) / (12 * h)
                            for k in range(2, len(u) - 2)), nan, nan]

    # second-order centered second derivative, defined on nodes 1..N-1
    def d2(u):
        return [nan, *((u[k + 1] - 2 * u[k] + u[k - 1]) / (h * h)
                       for k in range(1, len(u) - 1)), nan]

    r1 = [d + c * p - f for d, c, p, f in zip(d4(phi), axn, phi, qv)]
    r2 = [d - c * v - p for d, c, v, p in zip(d4(y), axn, y, phi)]
    rfd = [d - ode.coefficient(x) * v - f for d, x, v, f in zip(d2(y), xs, y, qv)]
    return r1, r2, rfd


def residual_varcoef(sol: NumericSolution, ode: PowerCoefODE):
    """Maximum residuals of the two stage equations (fourth-order centered
    differences) and of the factored-form second-order equation (centered
    second differences), over the interior nodes."""
    r1, r2, rfd = _residual_arrays(sol, ode)
    return _max_abs(r1), _max_abs(r2), _max_abs(rfd)

"""Command-line interface.

Subcommands: solve, roots, verify, eval, varcoef.  Every OdeCascadeError
leaves through :class:`_Main` as one ``error:`` line with the exit code of
:data:`_EXIT_CODES`: 2 ParseError (and UnsupportedFunction,
NotLinearConstantCoefficient), 3 NotClosedForm, 4 VerificationFailed (a
solver result failing its own residual check), 1 any other (OverflowGuard,
DomainError, NonConvergence, ...).  Exit 1 also means a bad option value or
a nonzero residual of a ``verify`` candidate; 0 is success.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction

import click

from . import __version__
from .algebra import Expr, RealTerm, evaluate
from .cascade import particular_solution
from .errors import NotClosedForm, OdeCascadeError, ParseError, VerificationFailed
from .parsing import (
    _digit_limit,
    _render_terms,
    expr_to_json_terms,
    parse_numeric_function,
    parse_ode,
    realexpr_to_json_terms,
    render,
    trace_to_json,
    parse_forcing,
)
from .roots import characteristic, find_roots
from .scalars import GaussianRational
from .varcoef import PowerCoefODE, linspace, solve_varcoef
from .verify import (
    STATUS_EXACT_ZERO,
    STATUS_NONZERO,
    STATUS_ZERO_TOL,
    residual_symbolic,
)

#: Exit code per error class; any other OdeCascadeError exits 1.
_EXIT_CODES = {ParseError: 2, NotClosedForm: 3, VerificationFailed: 4}

_STATUS_JSON = {
    STATUS_EXACT_ZERO: "zero",
    STATUS_ZERO_TOL: "zero_tol",
    STATUS_NONZERO: "nonzero",
}


def _fail(message: str, code: int = 1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Main(click.Group):
    """The one error boundary: any OdeCascadeError from a command becomes one
    ``error:`` line and its exit code from :data:`_EXIT_CODES`."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OdeCascadeError as exc:
            span = getattr(exc, "span", None)
            where = f" at {span.start}..{span.end}" if span else ""
            code = next((c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls)), 1)
            _fail(f"{exc}{where}", code)


def _coeff_json(c):
    if isinstance(c, Fraction):
        return [c.numerator, c.denominator]
    return float(c)


def _roots_json(rootset) -> list:
    return [{"re": float(e.value.real), "im": float(e.value.imag),
             "mult": e.multiplicity, "exact": e.exact} for e in rootset.entries]


def _root_str(value) -> str:
    fmt = str if isinstance(value, GaussianRational) else repr
    if value.imag == 0:
        return fmt(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{fmt(value.real)} {sign} {fmt(abs(value.imag))}i"


def _poly_str(coeffs) -> str:
    """The characteristic polynomial in r, highest power first."""
    terms = [RealTerm(c, k) for k, c in reversed(list(enumerate(coeffs))) if c]
    return _render_terms(terms, "plain", "r")


def _solve_report(ode_text, ode, trace, as_latex, show_steps, elapsed) -> str:
    style = "latex" if as_latex else "plain"
    var = ode.var
    roots_bits = ", ".join(
        f"{_root_str(e.value)} (mult {e.multiplicity}, "
        f"{'exact' if e.exact else 'approx'})"
        for e in trace.roots.entries
    )
    lines = [
        f"ode:            {ode_text}",
        f"characteristic: {_poly_str(ode.coeffs)}",
        f"roots:          {roots_bits}",
    ]
    if show_steps:
        lines.append("derivation:")
        lines.extend(f"  {line}" for line in render(trace, style, var).splitlines())
    if trace.y_p_real is not None:
        lines.append(f"y_p (real):     {render(trace.y_p_real, style, var)}")
    lines.append(f"y_p (complex):  {render(trace.y_p, style, var)}")
    lines.append(f"residual:       {trace.residual.status}")
    lines.append(f"time:           {elapsed:.4f} s")
    return "\n".join(lines)


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Particular solutions of linear constant-coefficient ODEs by cascaded
    first-order integrating-factor solves."""


@main.command()
@click.argument("ode_text")
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
@click.option("--latex", "as_latex", is_flag=True, help="render results as LaTeX")
@click.option("--steps", "show_steps", is_flag=True, help="include the stage trace")
@click.option("--exact", "force_exact", is_flag=True,
              help="require exact (Gaussian-rational) arithmetic")
@click.option("--float", "force_float", is_flag=True,
              help="force approximate (floating) arithmetic")
def solve(ode_text, as_json, as_latex, show_steps, force_exact, force_float):
    """Solve ODE_TEXT, e.g. "y'' + 5y' + 6y = exp(t)*cos(t)"."""
    if force_exact and force_float:
        _fail("--exact and --float are mutually exclusive")
    ode = parse_ode(ode_text)
    if force_float:
        ode = ode.to_float()
    t0 = time.perf_counter()
    if force_exact:
        find_roots(characteristic(ode), method="exact")
    _, trace = particular_solution(ode)
    elapsed = time.perf_counter() - t0

    # The whole report is built before any of it is printed, so a result
    # too large to print gives one error line and no partial report.
    with _digit_limit():
        if as_json:
            report = json.dumps({
                "ode": {
                    "coeffs": [_coeff_json(c) for c in ode.coeffs],
                    "forcing": expr_to_json_terms(ode.forcing),
                },
                "roots": _roots_json(trace.roots),
                "y_p": {
                    "real_terms": realexpr_to_json_terms(trace.y_p_real)
                    if trace.y_p_real is not None else [],
                    "complex_terms": expr_to_json_terms(trace.y_p),
                },
                "residual": _STATUS_JSON[trace.residual.status],
                "trace": trace_to_json(trace) if show_steps else [],
            })
        else:
            report = _solve_report(ode_text, ode, trace, as_latex, show_steps, elapsed)
    click.echo(report)


@main.command()
@click.argument("ode_text")
@click.option("--json", "as_json", is_flag=True)
def roots(ode_text, as_json):
    """Characteristic roots of ODE_TEXT with multiplicities."""
    ode = parse_ode(ode_text)
    rootset = find_roots(characteristic(ode))
    with _digit_limit():
        if as_json:
            report = json.dumps(_roots_json(rootset))
        else:
            report = "\n".join([
                f"characteristic: {_poly_str(ode.coeffs)}",
                "root                          mult  exact",
                *(f"{_root_str(e.value):<28}  {e.multiplicity:<4}  {e.exact}"
                  for e in rootset.entries),
            ])
    click.echo(report)


@main.command()
@click.argument("ode_text")
@click.argument("candidate_text")
@click.option("--json", "as_json", is_flag=True)
def verify(ode_text, candidate_text, as_json):
    """Check whether CANDIDATE_TEXT solves ODE_TEXT (exit 0 iff it does)."""
    ode = parse_ode(ode_text)
    candidate = parse_forcing(candidate_text)
    residual = residual_symbolic(ode, candidate)
    with _digit_limit():
        if as_json:
            report = json.dumps({
                "residual": _STATUS_JSON[residual.status],
                "residual_terms": expr_to_json_terms(residual.expr),
            })
        else:
            report = f"residual: {residual.status}"
            if not residual.is_zero:
                report += f"\nL[y] - q = {render(residual.expr, 'plain', ode.var)}"
    click.echo(report)
    sys.exit(0 if residual.is_zero else 1)


@main.command("eval")
@click.argument("ode_text")
@click.option("--from", "t_from", type=float, required=True)
@click.option("--to", "t_to", type=float, required=True)
@click.option("--points", "npoints", type=int, default=50, show_default=True)
def eval_cmd(ode_text, t_from, t_to, npoints):
    """Solve ODE_TEXT and print CSV samples "t,y" of the particular solution."""
    if npoints < 1:
        _fail("--points must be at least 1")
    ode = parse_ode(ode_text)
    solution, _ = particular_solution(ode)
    rows = [f"{ode.var},y"]
    for t in linspace(t_from, t_to, npoints):
        value = evaluate(solution, t)
        if isinstance(solution, Expr):
            if abs(value.imag) > 1e-9 * (1 + abs(value)):
                _fail("solution is complex-valued on this grid")
            value = value.real
        rows.append(f"{t!r},{float(value)!r}")
    click.echo("\n".join(rows))


@main.command()
@click.argument("a", type=float)
@click.argument("n", type=int)
@click.argument("forcing_text")
@click.option("--x0", type=float, default=0.0, show_default=True)
@click.option("--x1", type=float, default=1.0, show_default=True)
@click.option("--step", type=float, default=1e-3, show_default=True)
def varcoef(a, n, forcing_text, x0, x1, step):
    """Numeric particular solution of the factored power-coefficient form.

    Prints CSV of (x, phi, y, residuals); the residual summary goes to
    stderr.
    """
    forcing, _ = parse_numeric_function(forcing_text)
    try:
        ode = PowerCoefODE(a, n, forcing, x0, x1)
        sol = solve_varcoef(ode, step)
    except ValueError as exc:  # the argument checks of both
        _fail(str(exc))
    click.echo("x,phi,y,stage1_residual,stage2_residual,fd_residual")
    for row in zip(sol.xs, sol.phi, sol.y, sol.stage1_residuals,
                   sol.stage2_residuals, sol.fd_residuals):
        click.echo(",".join("" if math.isnan(v) else repr(v) for v in row))
    click.echo(
        f"max residuals: stage1={sol.max_stage1_residual:.3e} "
        f"stage2={sol.max_stage2_residual:.3e} fd={sol.max_fd_residual:.3e}",
        err=True,
    )


if __name__ == "__main__":
    main()

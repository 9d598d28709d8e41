"""Command-line interface.

Subcommands: solve, roots, verify, eval, varcoef.  Exit codes: 0 success,
2 parse error, 3 no closed form (solve), 4 nonzero residual on a solver
result (internal bug guard), 1 other errors (verify uses 1 for a nonzero
candidate residual).
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction

import click

from . import __version__
from .algebra import Expr, RealExpr, evaluate
from .cascade import particular_solution
from .errors import (
    NonConvergence,
    NotClosedForm,
    OdeCascadeError,
    OverflowGuard,
    ParseError,
    StepTooLarge,
    VerificationFailed,
)
from .model import LinearODE
from .parsing import (
    expr_to_json_terms,
    parse_numeric_function,
    parse_ode,
    realexpr_to_json_terms,
    render,
    trace_to_json,
    parse_forcing,
)
from .roots import characteristic, find_roots
from .verify import (
    STATUS_EXACT_ZERO,
    STATUS_NONZERO,
    STATUS_ZERO_TOL,
    residual_symbolic,
)

EXIT_PARSE = 2
EXIT_NOT_CLOSED_FORM = 3
EXIT_NONZERO_RESIDUAL = 4

_STATUS_JSON = {
    STATUS_EXACT_ZERO: "zero",
    STATUS_ZERO_TOL: "zero_tol",
    STATUS_NONZERO: "nonzero",
}


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_ode_or_exit(text: str) -> LinearODE:
    try:
        return parse_ode(text)
    except ParseError as exc:
        span = f" at {exc.span.start}..{exc.span.end}" if exc.span else ""
        _fail(f"{exc}{span}", EXIT_PARSE)
    except ValueError as exc:
        _fail(str(exc), EXIT_PARSE)


def _coeff_json(c):
    if isinstance(c, Fraction):
        return [c.numerator, c.denominator]
    return float(c)


def _root_str(value) -> str:
    z = complex(value)
    if z.imag == 0:
        return f"{value.re}" if hasattr(value, "re") else repr(z.real)
    if hasattr(value, "re"):
        sign = "+" if value.im >= 0 else "-"
        return f"{value.re} {sign} {abs(value.im)}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r} {sign} {abs(z.imag)!r}i"


def _linspace(start: float, stop: float, num: int) -> list[float]:
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


def _poly_str(coeffs) -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            body = f"{abs(c)}"
        elif k == 1:
            body = "r" if abs(c) == 1 else f"{abs(c)}*r"
        else:
            body = f"r^{k}" if abs(c) == 1 else f"{abs(c)}*r^{k}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = [first_body if first_sign == "+" else f"-{first_body}"]
    for sign, body in parts[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


@click.group()
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
        _fail("--exact and --float are mutually exclusive", 1)
    ode = _parse_ode_or_exit(ode_text)
    if force_float:
        ode = ode.to_float()
    t0 = time.perf_counter()
    try:
        if force_exact:
            find_roots(characteristic(ode), method="exact")
        solution, trace = particular_solution(ode)
    except NotClosedForm as exc:
        _fail(str(exc), EXIT_NOT_CLOSED_FORM)
    except VerificationFailed as exc:
        _fail(str(exc), EXIT_NONZERO_RESIDUAL)
    except (NonConvergence, OdeCascadeError) as exc:
        _fail(str(exc), 1)
    elapsed = time.perf_counter() - t0

    rootset = find_roots(characteristic(ode))
    residual = residual_symbolic(
        ode if ode.is_exact() and trace.y_p.is_exact() else ode.to_float(),
        trace.y_p,
    )
    if residual.status == STATUS_NONZERO:
        _fail("residual is nonzero (internal error)", EXIT_NONZERO_RESIDUAL)

    style = "latex" if as_latex else "plain"
    if as_json:
        payload = {
            "ode": {
                "coeffs": [_coeff_json(c) for c in ode.coeffs],
                "forcing": expr_to_json_terms(ode.forcing),
            },
            "roots": [
                {
                    "re": complex(e.value).real,
                    "im": complex(e.value).imag,
                    "mult": e.multiplicity,
                    "exact": e.exact,
                }
                for e in rootset.entries
            ],
            "y_p": {
                "real_terms": realexpr_to_json_terms(trace.y_p_real)
                if trace.y_p_real is not None else [],
                "complex_terms": expr_to_json_terms(trace.y_p),
            },
            "residual": _STATUS_JSON[residual.status],
            "trace": trace_to_json(trace) if show_steps else [],
        }
        click.echo(json.dumps(payload))
        return

    var = ode.var
    click.echo(f"ode:            {ode_text}")
    click.echo(f"characteristic: {_poly_str(ode.coeffs)}")
    roots_bits = ", ".join(
        f"{_root_str(e.value)} (mult {e.multiplicity}, "
        f"{'exact' if e.exact else 'approx'})"
        for e in rootset.entries
    )
    click.echo(f"roots:          {roots_bits}")
    if show_steps:
        click.echo("derivation:")
        for line in render(trace, style, var).splitlines():
            click.echo(f"  {line}")
    if trace.y_p_real is not None:
        click.echo(f"y_p (real):     {render(trace.y_p_real, style, var)}")
    click.echo(f"y_p (complex):  {render(trace.y_p, style, var)}")
    click.echo(f"residual:       {residual.status}")
    click.echo(f"time:           {elapsed:.4f} s")


@main.command()
@click.argument("ode_text")
@click.option("--json", "as_json", is_flag=True)
def roots(ode_text, as_json):
    """Characteristic roots of ODE_TEXT with multiplicities."""
    ode = _parse_ode_or_exit(ode_text)
    try:
        rootset = find_roots(characteristic(ode))
    except OdeCascadeError as exc:
        _fail(str(exc), 1)
    if as_json:
        click.echo(json.dumps([
            {
                "re": complex(e.value).real,
                "im": complex(e.value).imag,
                "mult": e.multiplicity,
                "exact": e.exact,
            }
            for e in rootset.entries
        ]))
        return
    click.echo(f"characteristic: {_poly_str(ode.coeffs)}")
    click.echo("root                          mult  exact")
    for e in rootset.entries:
        click.echo(f"{_root_str(e.value):<28}  {e.multiplicity:<4}  {e.exact}")


@main.command()
@click.argument("ode_text")
@click.argument("candidate_text")
@click.option("--json", "as_json", is_flag=True)
def verify(ode_text, candidate_text, as_json):
    """Check whether CANDIDATE_TEXT solves ODE_TEXT (exit 0 iff it does)."""
    ode = _parse_ode_or_exit(ode_text)
    try:
        candidate = parse_forcing(candidate_text)
    except ParseError as exc:
        span = f" at {exc.span.start}..{exc.span.end}" if exc.span else ""
        _fail(f"{exc}{span}", EXIT_PARSE)
    residual = residual_symbolic(
        ode if ode.is_exact() and candidate.is_exact() else ode.to_float(),
        candidate,
    )
    if as_json:
        click.echo(json.dumps({
            "residual": _STATUS_JSON[residual.status],
            "residual_terms": expr_to_json_terms(residual.expr),
        }))
    else:
        click.echo(f"residual: {residual.status}")
        if not residual.is_zero:
            click.echo(f"L[y] - q = {render(residual.expr, 'plain', ode.var)}")
    sys.exit(0 if residual.is_zero else 1)


@main.command("eval")
@click.argument("ode_text")
@click.option("--from", "t_from", type=float, required=True)
@click.option("--to", "t_to", type=float, required=True)
@click.option("--points", "npoints", type=int, default=50, show_default=True)
def eval_cmd(ode_text, t_from, t_to, npoints):
    """Solve ODE_TEXT and print CSV samples "t,y" of the particular solution."""
    if npoints < 1:
        _fail("--points must be at least 1", 1)
    ode = _parse_ode_or_exit(ode_text)
    try:
        solution, _ = particular_solution(ode)
    except NotClosedForm as exc:
        _fail(str(exc), EXIT_NOT_CLOSED_FORM)
    except OdeCascadeError as exc:
        _fail(str(exc), 1)
    click.echo(f"{ode.var},y")
    for t in _linspace(t_from, t_to, npoints):
        try:
            value = evaluate(solution, t)
        except OdeCascadeError as exc:
            _fail(str(exc), 1)
        if isinstance(solution, Expr):
            if abs(value.imag) > 1e-9 * (1 + abs(value)):
                _fail("solution is complex-valued on this grid", 1)
            value = value.real
        click.echo(f"{t!r},{float(value)!r}")


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
    from .varcoef import PowerCoefODE, solve_varcoef

    try:
        forcing, _ = parse_numeric_function(forcing_text)
    except ParseError as exc:
        span = f" at {exc.span.start}..{exc.span.end}" if exc.span else ""
        _fail(f"{exc}{span}", EXIT_PARSE)
    try:
        ode = PowerCoefODE(a, n, forcing, x0, x1)
        sol = solve_varcoef(ode, step)
    except (StepTooLarge, OverflowGuard, ValueError) as exc:
        _fail(str(exc), 1)
    click.echo("x,phi,y,stage1_residual,stage2_residual,fd_residual")
    for i in range(len(sol.xs)):
        cells = [repr(float(sol.xs[i])), repr(float(sol.phi[i])), repr(float(sol.y[i]))]
        for arr in (sol.stage1_residuals, sol.stage2_residuals, sol.fd_residuals):
            v = arr[i]
            cells.append("" if math.isnan(v) else repr(float(v)))
        click.echo(",".join(cells))
    click.echo(
        f"max residuals: stage1={sol.max_stage1_residual:.3e} "
        f"stage2={sol.max_stage2_residual:.3e} fd={sol.max_fd_residual:.3e}",
        err=True,
    )


if __name__ == "__main__":
    main()

"""Command-line interface.

Subcommands: solve, roots, verify, eval, varcoef.  Every OdeCascadeError
leaves through :func:`main` as one ``error:`` line with the exit code of
:data:`_EXIT_CODES`: 2 ParseError (and UnsupportedFunction,
NotLinearConstantCoefficient), 3 NotClosedForm, 4 VerificationFailed (a
solver result failing its own residual check), 1 any other (OverflowGuard,
DomainError, NonConvergence, ...).  Exit 1 also means a bad option value or
a nonzero residual of a ``verify`` candidate; 0 is success; a usage error
(an unknown option, a missing argument, a value of the wrong type) exits 2.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import __version__
from .algebra import Expr, RealTerm, evaluate
from .errors import (NonConvergence, NotClosedForm, OdeCascadeError, ParseError,
                     VerificationFailed)
from .parsing import (
    _digit_limit,
    _part_json,
    _render_terms,
    _scalar_plain,
    expr_to_json_terms,
    parse_numeric_function,
    parse_ode,
    realexpr_to_json_terms,
    render,
    roots_to_json,
    trace_to_json,
    parse_forcing,
)
from .roots import characteristic, find_roots
from .solver import particular_solution, plan
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


#: Options that take a value: the next argument is their value even when it
#: starts with "-" ("--from -inf").
_VALUE_OPTIONS = {"--from", "--to", "--points", "--x0", "--x1", "--step"}


def _fail(message: str, code: int = 1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _poly_str(coeffs) -> str:
    """The characteristic polynomial in r, highest power first."""
    terms = [RealTerm(c, k) for k, c in reversed(list(enumerate(coeffs))) if c]
    with _digit_limit():
        return _render_terms(terms, "plain", "r")


def _solve_report(ode_text, ode, poly, trace, as_latex, show_steps, elapsed) -> str:
    style = "latex" if as_latex else "plain"
    var = ode.var
    roots_bits = ", ".join(
        f"{_scalar_plain(e.value)} (mult {e.multiplicity}, "
        f"{'exact' if e.exact else 'approx'})"
        for e in trace.roots.entries
    )
    lines = [
        f"ode:            {ode_text}",
        f"characteristic: {poly}",
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


def solve(ode_text, as_json, as_latex, show_steps, force_exact, force_float):
    """Solve ODE_TEXT, e.g. "y'' + 5y' + 6y = exp(t)*cos(t)"."""
    if force_exact and force_float:
        _fail("--exact and --float are mutually exclusive")
    ode = parse_ode(ode_text)
    # first, so that an unprintable polynomial is refused before its roots are found
    poly = None if as_json else _poly_str(ode.coeffs)
    t0 = time.perf_counter()
    solve_plan = plan(ode)
    if force_exact and not solve_plan.roots.all_exact():
        raise NonConvergence("roots are not expressible as Gaussian rationals", ())
    _, trace = particular_solution(solve_plan)
    elapsed = time.perf_counter() - t0
    if force_float:  # the answer rounded once, at the edge
        real = trace.y_p_real
        trace = trace._replace(y_p=trace.y_p.to_float(), y_p_real=real and real.to_float())

    # The whole report is built before any of it is printed, so a result
    # too large to print gives one error line and no partial report.
    with _digit_limit():
        if as_json:
            import json
            report = json.dumps({
                "ode": {
                    "coeffs": [_part_json(c) for c in ode.coeffs],
                    "forcing": expr_to_json_terms(ode.forcing),
                },
                "roots": roots_to_json(trace.roots),
                "y_p": {
                    "real_terms": realexpr_to_json_terms(trace.y_p_real)
                    if trace.y_p_real is not None else [],
                    "complex_terms": expr_to_json_terms(trace.y_p),
                },
                "residual": _STATUS_JSON[trace.residual.status],
                "trace": trace_to_json(trace) if show_steps else [],
            })
        else:
            report = _solve_report(ode_text, ode, poly, trace, as_latex, show_steps, elapsed)
    print(report)


def roots(ode_text, as_json):
    """Characteristic roots of ODE_TEXT with multiplicities."""
    ode = parse_ode(ode_text)
    # first, so that an unprintable polynomial is refused before its roots are found
    poly = None if as_json else _poly_str(ode.coeffs)
    rootset = find_roots(characteristic(ode))
    with _digit_limit():
        if as_json:
            import json
            report = json.dumps(roots_to_json(rootset))
        else:
            report = "\n".join([
                f"characteristic: {poly}",
                "root                          mult  exact",
                *(f"{_scalar_plain(e.value):<28}  {e.multiplicity:<4}  {e.exact}"
                  for e in rootset.entries),
            ])
    print(report)


def verify(ode_text, candidate_text, as_json):
    """Check whether CANDIDATE_TEXT solves ODE_TEXT (exit 0 iff it does)."""
    ode = parse_ode(ode_text)
    candidate = parse_forcing(candidate_text)
    residual = residual_symbolic(ode, candidate)
    with _digit_limit():
        if as_json:
            import json
            report = json.dumps({
                "residual": _STATUS_JSON[residual.status],
                "residual_terms": expr_to_json_terms(residual.expr),
            })
        else:
            report = f"residual: {residual.status}"
            if not residual.is_zero:
                report += f"\nL[y] - q = {render(residual.expr, 'plain', ode.var)}"
    print(report)
    sys.exit(0 if residual.is_zero else 1)


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
    print("\n".join(rows))


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
    rows = ["x,phi,y,stage1_residual,stage2_residual,fd_residual"]
    rows.extend(",".join("" if math.isnan(v) else repr(v) for v in row)
                for row in zip(sol.xs, sol.phi, sol.y, sol.stage1_residuals,
                               sol.stage2_residuals, sol.fd_residuals))
    print("\n".join(rows), flush=True)  # the CSV before the summary on a shared stream
    print(
        f"max residuals: stage1={sol.max_stage1_residual:.3e} "
        f"stage2={sol.max_stage2_residual:.3e} fd={sol.max_fd_residual:.3e}",
        file=sys.stderr,
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odecascade", allow_abbrev=False,
        description="Particular solutions of linear constant-coefficient ODEs by "
                    "cascaded first-order integrating-factor solves.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(name, func, *texts):
        sub = commands.add_parser(name, help=func.__doc__.splitlines()[0],
                                  description=func.__doc__, allow_abbrev=False)
        sub.set_defaults(func=func)
        for text in texts:
            sub.add_argument(text, metavar=text.upper())
        return sub

    sub = command("solve", solve, "ode_text")
    for flag, dest, text in (
            ("--json", "as_json", "machine-readable report"),
            ("--latex", "as_latex", "render results as LaTeX"),
            ("--steps", "show_steps", "include the stage trace"),
            ("--exact", "force_exact", "require exact (Gaussian-rational) arithmetic"),
            ("--float", "force_float",
             "round the exact answer once to floats; the float cascade runs "
             "only when a root is not a Gaussian rational")):
        sub.add_argument(flag, dest=dest, action="store_true", help=text)
    for sub in (command("roots", roots, "ode_text"),
                command("verify", verify, "ode_text", "candidate_text")):
        sub.add_argument("--json", dest="as_json", action="store_true")

    sub = command("eval", eval_cmd, "ode_text")
    sub.add_argument("--from", dest="t_from", type=float, required=True)
    sub.add_argument("--to", dest="t_to", type=float, required=True)
    sub.add_argument("--points", dest="npoints", type=int, default=50,
                     help="(default: %(default)s)")

    sub = command("varcoef", varcoef)
    sub.add_argument("a", metavar="A", type=float)
    sub.add_argument("n", metavar="N", type=int)
    sub.add_argument("forcing_text", metavar="FORCING_TEXT")
    for name, default in (("--x0", 0.0), ("--x1", 1.0), ("--step", 1e-3)):
        sub.add_argument(name, type=float, default=default, help="(default: %(default)s)")
    return parser


def _join_values(argv) -> list:
    """``--from -inf`` as ``--from=-inf``, so argparse reads a value that
    starts with "-" as the option's value; arguments after "--" stay as they
    are."""
    out, rest = [], iter(argv)
    for arg in rest:
        if arg == "--":
            return [*out, arg, *rest]
        value = next(rest, None) if arg in _VALUE_OPTIONS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None, standalone_mode=True):
    """Run one command on ``argv`` (default ``sys.argv[1:]``).  A nonzero exit
    leaves as ``SystemExit``: a usage error with 2, any OdeCascadeError as
    one ``error:`` line with its code from :data:`_EXIT_CODES`, and a closed
    stdout ("| head") with 1 and nothing on stderr.  ``standalone_mode`` is
    accepted and ignored, for callers of the former click entry point."""
    args = vars(_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv)))
    func = args.pop("func")
    try:
        func(**args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the Python docs' recipe: the flush at exit must not hit the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except OdeCascadeError as exc:
        span = getattr(exc, "span", None)
        where = f" at {span.start}..{span.end}" if span else ""
        code = next((c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls)), 1)
        _fail(f"{exc}{where}", code)


if __name__ == "__main__":
    main()

"""Output checks, run outside the timed region.

Each check returns ``None`` when the output is right and a one-line reason
when it is not, so the self-test can feed it a deliberately wrong answer.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict

from odecascade import (
    Expr,
    RealExpr,
    apply_operator,
    differentiate,
    equal_mod_homogeneous,
    oracle_undetermined_coefficients,
    residual_symbolic,
)

#: Float outputs: |L[y] - q| per term, relative to the largest summand that
#: cancelled into it.  The float backend keeps about 1e-12 of that scale;
#: the package's own float zero test scales by |L[y]| and |q| instead, which
#: is the known defect, so float outputs are judged here.
FLOAT_TOL = 1e-8


def as_expr(solution) -> Expr:
    return solution.to_expr() if isinstance(solution, RealExpr) else solution


def _key(term):
    lam = complex(term.exponent)
    return term.tpow, term.logpow, round(lam.real, 7), round(lam.imag, 7)


def _scaled_residual_ok(ode, y: Expr, target: Expr) -> bool:
    """L[y] == target term by term, each to FLOAT_TOL of its own summands."""
    total = defaultdict(complex)
    scale = defaultdict(float)
    d = y
    for k, a in enumerate(ode.coeffs):
        if k:
            d = differentiate(d)
        if not a:
            continue
        for t in d.terms:
            v = complex(a) * complex(t.coeff)
            total[_key(t)] += v
            scale[_key(t)] = max(scale[_key(t)], abs(v))
    for t in target.terms:
        v = complex(t.coeff)
        total[_key(t)] -= v
        scale[_key(t)] = max(scale[_key(t)], abs(v))
    return all(abs(total[k]) <= FLOAT_TOL * scale[k] for k in total)


def check_solution(item, ode, solution) -> str | None:
    """An in-process answer: exact residual zero (exact items) or scaled
    float residual, and equality with the undetermined-coefficients oracle
    modulo homogeneous solutions when the forcing has no logarithm."""
    y = as_expr(solution)
    if item.exact:
        if not y.is_exact():
            return "exact-path input gave a float answer"
        status = residual_symbolic(ode, y).status
        if status != "exact-zero":
            return f"residual is {status}, not exact-zero"
        if not item.log:
            oracle = oracle_undetermined_coefficients(ode, ode.forcing)
            if not equal_mod_homogeneous(ode, y, oracle):
                return "differs from the oracle by a non-homogeneous term"
        return None
    ode_f = ode.to_float()
    y = y.to_float()
    if not _scaled_residual_ok(ode_f, y, ode_f.forcing):
        return "float residual above tolerance"
    if not item.log:
        oracle = oracle_undetermined_coefficients(ode_f, ode_f.forcing)
        if not _scaled_residual_ok(ode_f, y, apply_operator(ode_f, oracle.to_float())):
            return "differs from the oracle by a non-homogeneous term"
    return None


def digest(texts) -> str:
    """Short digest of rendered exact outputs, in input order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# CLI responses
# ---------------------------------------------------------------------------

def _field(stdout: str, label: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(label):
            return line[len(label):].strip()
    return None


def check_cli(request, returncode: int, stdout: str) -> str | None:
    """Exit code plus the command's own verdict or shape."""
    if returncode != 0:
        return f"exit code {returncode}"
    item = request.item
    zero = {"exact-zero"} if item is not None and item.exact else {
        "exact-zero", "zero-within-tolerance"}
    cmd = request.command
    if cmd == "solve":
        status = _field(stdout, "residual:")
        return None if status in zero else f"residual line is {status!r}"
    if cmd == "solve_json_steps":
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not JSON"
        want = {"zero"} if item.exact else {"zero", "zero_tol"}
        if payload.get("residual") not in want:
            return f"residual is {payload.get('residual')!r}"
        if len(payload.get("trace", ())) != item.order:
            return "trace does not have one stage per root"
        return None
    if cmd == "roots":
        lines = stdout.splitlines()[2:]
        total = sum(int(line.split()[-2]) for line in lines if line.strip())
        return None if total == item.order else f"multiplicities sum to {total}"
    if cmd == "verify":
        status = _field(stdout, "residual:")
        return None if status == "exact-zero" else f"verify said {status!r}"
    if cmd == "eval":
        lines = stdout.splitlines()
        if lines[:1] != ["t,y"] or len(lines) != 51:
            return f"expected a header and 50 rows, got {len(lines)} lines"
        return None
    if cmd == "varcoef":
        lines = stdout.splitlines()
        return None if len(lines) == 1002 else f"expected 1002 CSV lines, got {len(lines)}"
    return f"unknown command {cmd}"

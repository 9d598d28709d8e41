"""Per-layer tracing from outside the program.

``traced_request`` calls the package's public layer functions in the order
``particular_solution`` uses them, including its exact-vs-float switch, and
records one span per layer.  Nothing in ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import io
import time

from odecascade import (
    VerificationFailed,
    cascade,
    characteristic,
    find_roots,
    parse_ode,
    particular_solution,
    render,
    residual_symbolic,
)

#: Layer span names, in call order.
LAYERS = ("parsing.parse_ode", "roots.find_roots", "cascade.cascade",
          "verify.residual_symbolic", "parsing.render")


class Spans:
    """Spans and counts of traced requests, kept in memory."""

    def __init__(self):
        self.spans = []          # (request id, layer, start, end)
        self.requests = []       # per request: dict of counts

    def layer_times(self, layer: str) -> list[float]:
        return [end - start for _, name, start, end in self.spans if name == layer]


def traced_request(text: str, spans: Spans, rid: int):
    """One request through the composed layers: returns (solution, y_p,
    rendered text), raising what ``particular_solution`` would raise."""
    counts = {}
    spans.requests.append(counts)
    clock = time.perf_counter

    t0 = clock()
    try:
        ode = parse_ode(text)
    finally:
        spans.spans.append((rid, LAYERS[0], t0, clock()))

    t0 = clock()
    try:
        rootset = find_roots(characteristic(ode))
    finally:
        spans.spans.append((rid, LAYERS[1], t0, clock()))
    counts["exact_roots"] = rootset.all_exact()

    q, a_n = ode.forcing, ode.coeffs[-1]
    if not rootset.all_exact() or not q.is_exact():
        q, a_n = q.to_float(), float(a_n)
        seq = tuple(complex(r) for r in rootset.expand())
        check_ode = ode.to_float()
    else:
        seq = rootset.expand()
        check_ode = ode

    t0 = clock()
    try:
        trace = cascade(seq, q, a_n)
    finally:
        spans.spans.append((rid, LAYERS[2], t0, clock()))
    counts["stages"] = len(trace.stages)
    counts["stage_terms"] = sum(len(st.output) for st in trace.stages)
    counts["coeff_bits"] = coeff_bits(trace.y_p)

    t0 = clock()
    try:
        res = residual_symbolic(check_ode, trace.y_p)
    finally:
        spans.spans.append((rid, LAYERS[3], t0, clock()))
    counts["rejected"] = not res.is_zero
    if not res.is_zero:
        raise VerificationFailed(f"cascade result failed the residual check: {res.expr!r}")
    solution = trace.y_p_real if trace.y_p_real is not None else trace.y_p

    t0 = clock()
    text_out = render(solution)
    spans.spans.append((rid, LAYERS[4], t0, clock()))
    return solution, trace.y_p, text_out


def reference_request(text: str):
    """The same request through the program's own pipeline."""
    solution, trace = particular_solution(parse_ode(text))
    return solution, trace.y_p, render(solution)


def coeff_bits(y_p) -> int:
    """Largest numerator or denominator bit length among exact coefficients."""
    best = 0
    for t in y_p.terms:
        for part in (getattr(t.coeff, "re", None), getattr(t.coeff, "im", None)):
            if part is not None:
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def run_cli_inprocess(argv) -> tuple[int, str, str]:
    """``cli.main`` in this process: (exit code, stdout, stderr)."""
    from odecascade import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(argv), standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()

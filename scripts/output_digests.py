#!/usr/bin/env python3
"""Print one short digest per in-process benchmark input, as JSON.

    python3 scripts/output_digests.py > digests.json

Solves every input of the ``small_mix`` and ``high_degree`` workloads for
seeds 0..49 with ``particular_solution`` and prints
``{workload: {seed: [digest, ...]}}``, one 16-hex-digit sha256 per input in
input order.  A digest covers the rendered solution, the plain stage trace
and ``repr`` of the root entries, or the error type and message when the
solve raises.  ``bench/golden.json`` pins only the exact outputs; comparing
this tool's output on two trees shows whether any output, float or exact,
changed.  Nothing is written under ``bench/``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/ is not a package)


def output_digest(text: str) -> str:
    from odecascade import parse_ode, particular_solution, render

    try:
        ode = parse_ode(text)
        solution, trace = particular_solution(ode)
        parts = (render(solution), render(trace, "plain", ode.var), repr(trace.roots.entries))
    except Exception as exc:  # an error is an output too
        parts = (type(exc).__name__, str(exc))
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {
        workload: {str(seed): [output_digest(item.text)
                               for item in run.items_for(workload, seed, run.FULL)]
                   for seed in range(run.GOLDEN_SEEDS)}
        for workload in ("small_mix", "high_degree")
    }
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check every recorded seed of ``bench/golden.json`` against this tree.

    python3 scripts/check_golden.py   # every workload, seeds 0..49

Solves each seed's inputs with ``bench/run.seed_record`` and compares the
result with ``golden.json`` by the benchmark's own rule (``run.check_record``):
a changed digest of the exact outputs, a known-defect input that is not in the
record, or a failed output check is a problem; a recorded defect that now
solves is not.  Nothing is written.  Exit status 0 when there is no problem,
1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/ is not a package)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = 0
    for workload in run.WORKLOADS:
        for seed in range(run.GOLDEN_SEEDS):
            observed, failed = run.seed_record(workload, seed)
            found = failed + run.check_record(workload, seed, observed, run.Report())
            print(workload, seed, "PROBLEM" if found else "ok", flush=True)
            for problem in found:
                print("  " + problem, flush=True)
            problems += len(found)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record what ``run.py`` checks each seed against: the digest of the
rendered exact outputs and the indices of the known-defect inputs.

    python3 bench/record_golden.py      # seeds 0..GOLDEN_SEEDS-1, every workload

Run it only on a version whose outputs are the reference; a change that is
meant to keep exact outputs bit-identical, or to fail no input that passed,
must not re-record.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table = {}
    for workload in run.WORKLOADS:
        table[workload] = {}
        for seed in range(run.GOLDEN_SEEDS):
            record, failed = run.seed_record(workload, seed)
            if failed:
                print(f"{workload} seed {seed}: not recording, checks failed:", *failed,
                      sep="\n  ", file=sys.stderr)
                return 1
            table[workload][str(seed)] = record
            print(workload, seed, json.dumps(record), flush=True)
    run.GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(workload)}: {{\n" + ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(record, sort_keys=True)}"
            for seed, record in sorted(records.items(), key=lambda kv: int(kv[0])))
        + "\n }" for workload, records in sorted(table.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

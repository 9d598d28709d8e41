#!/usr/bin/env python3
"""odecascade benchmark.

    python3 bench/run.py --workload small_mix --seed 1 --seconds 20 --trace 0

Runs one seeded workload from the root of a source checkout (``src/`` is put
on the path; nothing is installed), checks every output, prints a report and,
as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Load is one client in a closed loop.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
source tree is missing.  See ``bench/WORKLOADS.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("small_mix", "high_degree", "cli_cold")
#: Seeds 0..GOLDEN_SEEDS-1 have a record in golden.json.
GOLDEN_SEEDS = 50
#: Untimed warm-up: whole passes until this many requests or seconds, at
#: least one pass.  A small_mix pass is 400 requests, so it gets two passes
#: (the first 600 solves of a fresh process ran 10-20% slower than later ones).
WARM_UP_REQUESTS = 600
WARM_UP_SECONDS = 4.0
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import odecascade.cli; "
                "print(time.perf_counter() - t, len(sys.modules))")
SUBPROCESS_TIMEOUT = 60


class Sizes:
    """How much work one run does; ``tiny`` is for the self-test."""

    def __init__(self, tiny: bool):
        self.small_mix = 40 if tiny else 400
        self.high_degree_k = gen.SWEEP_K[:2] if tiny else gen.SWEEP_K
        self.cli_rounds = 1 if tiny else 10
        self.setup_probes = 1 if tiny else 7
        self.probes = 1 if tiny else 3
        self.record = not tiny      # golden.json holds full-size records only


FULL = Sizes(tiny=False)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def run_child(args):
    """(seconds, CompletedProcess or None on timeout) for a fresh interpreter."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc = None
    return time.perf_counter() - t0, proc


def import_probe() -> tuple[float, int]:
    """Import time of ``odecascade.cli`` in a fresh interpreter, and the
    number of modules loaded after it."""
    _, proc = run_child(["-c", IMPORT_PROBE])
    if proc is None or proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr if proc else 'timeout'}")
    seconds, modules = proc.stdout.split()
    return float(seconds), int(modules)


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> str:
    versions = []
    for dist in ("numpy", "scipy", "click"):
        try:
            versions.append(f"{dist} {metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{dist} absent")
    return (f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
            f"git {git_sha()}, " + ", ".join(versions))


class Report:
    """Metrics for the final JSON line plus the human-readable lines."""

    def __init__(self):
        self.metrics = {}
        self.lines = []

    def add(self, name: str, value: float, unit: str, note: str = ""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"{name:<40} {value:>14.6g} {unit:<6} {note}".rstrip())

    def note(self, text: str):
        self.lines.append(f"# {text}")


class Outcomes:
    """Per-request verdicts: ok, known defect, or failed (with reasons)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.defects = 0
        self.defect_at = set()      # input or request indices of the defects
        self.reasons = []

    def record(self, verdict: str, reason: str = "", index: int | None = None):
        self.attempted += 1
        if verdict == "failed":
            self.fail(reason)
        elif verdict == "defect":
            self.defects += 1
            self.defect_at.add(index)

    def fail(self, reason: str):
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def merge(self, other: Outcomes):
        self.attempted += other.attempted
        self.failed += other.failed
        self.defects += other.defects
        self.reasons = (self.reasons + other.reasons)[:10]


# ---------------------------------------------------------------------------
# in-process workloads (small_mix, high_degree)
# ---------------------------------------------------------------------------

def items_for(workload: str, seed: int, sizes: Sizes):
    if workload == "small_mix":
        return gen.small_mix(seed, sizes.small_mix)
    return gen.high_degree(seed, sizes.high_degree_k)


def solve_once(text: str):
    """The untraced request: parse, solve, render.  Returns (solution,
    rendered text, error type name or None)."""
    from odecascade import parse_ode, particular_solution, render

    try:
        solution, _ = particular_solution(parse_ode(text))
        return solution, render(solution), None
    except Exception as exc:  # every outcome is recorded and judged later
        return None, None, type(exc).__name__


def verdicts(items, results) -> tuple[list, list]:
    """Check each distinct input's answer.  Returns per-item (verdict,
    reason) and the rendered exact outputs in input order, for the digest."""
    from odecascade import parse_ode

    from checks import check_solution

    out, exact_texts = [], []
    for item, (solution, text, err) in zip(items, results):
        if err is None:
            try:
                reason = check_solution(item, parse_ode(item.text), solution)
            except Exception:  # a crashing check is a failed output, not a crash
                reason = "check raised: " + traceback.format_exc(limit=1).splitlines()[-1]
            out.append(("failed", f"{item.text}: {reason}") if reason else ("ok", ""))
            if item.exact:
                exact_texts.append(text)
        elif err == "VerificationFailed" and not item.exact:
            out.append(("defect", ""))
        else:
            out.append(("failed", f"{item.text}: raised {err}"))
    return out, exact_texts


def seed_record(workload: str, seed: int) -> tuple[dict, list]:
    """What golden.json records for one seed, solved here outside any timed
    region: the indices of the known-defect inputs (for cli_cold, of the
    requests whose equation is one) and, in process, the digest of the
    rendered exact outputs.  Also returns the reasons of failed checks."""
    from checks import digest

    if workload == "cli_cold":
        requests = gen.cli_cold(seed, FULL.cli_rounds)
        index = [i for i, rq in enumerate(requests) if rq.item is not None]
        items = [requests[i].item for i in index]
    else:
        items = items_for(workload, seed, FULL)
        index = range(len(items))
    checked, texts = verdicts(items, [solve_once(it.text) for it in items])
    record = {"defects": [index[j] for j, (v, _) in enumerate(checked) if v == "defect"]}
    if workload != "cli_cold":
        record["digest"] = digest(texts)
    return record, [reason for v, reason in checked if v == "failed"]


def check_record(workload: str, seed: int, observed: dict, report: Report) -> list[str]:
    """Compare this seed's digest and known-defect inputs with golden.json.
    A defect input that is not in the record fails the run; a recorded one
    that now solves (and passes its checks) does not.  A seed without a
    record is checked on the recorded seed ``seed % GOLDEN_SEEDS`` instead,
    solved here outside the timed region."""
    try:
        table = json.loads(GOLDEN.read_text()).get(workload, {})
    except OSError:
        table = {}
    if len(table) != GOLDEN_SEEDS:
        return [f"golden.json holds {len(table)} records for {workload}, not {GOLDEN_SEEDS}"]
    problems = []
    if str(seed) not in table:
        report.note(f"seed {seed} has no record; checking recorded seed {seed % GOLDEN_SEEDS}")
        seed = seed % GOLDEN_SEEDS
        observed, problems = seed_record(workload, seed)
    recorded = table[str(seed)]
    new = sorted(set(observed["defects"]) - set(recorded["defects"]))
    report.note(f"seed {seed}: {len(observed['defects'])} known-defect inputs, "
                f"recorded {len(recorded['defects'])}")
    if new:
        problems.append(f"seed {seed}: inputs {new[:5]} fail the residual check "
                        f"but passed it at the recorded version ({len(new)} in all)")
    if "digest" in recorded:
        report.note(f"seed {seed}: digest of exact outputs {observed['digest']}, "
                    f"recorded {recorded['digest']}")
        if observed["digest"] != recorded["digest"]:
            problems.append(f"seed {seed}: exact outputs changed")
    return problems


def record_problems(workload, seed, sizes, report, observed) -> list[str]:
    if not sizes.record:
        report.note(f"{workload} record check: skipped at tiny size")
        return []
    return check_record(workload, seed, observed, report)


def timed_loop(n_items: int, seconds: float, request, unit: int | None = None):
    """Closed loop over the input list, stopping at the first multiple of
    ``unit`` requests (default: a whole pass) after ``seconds``.  Returns
    (latencies, elapsed, request results in order)."""
    unit = unit or n_items
    latencies, results = [], []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        t0 = clock()
        res = request(i % n_items)
        latencies.append(clock() - t0)
        results.append(res)
        i += 1
        if i % unit == 0 and clock() - start >= seconds:
            break
    return latencies, clock() - start, results


def warm_up(items):
    """Untimed whole passes over the inputs, so lazy imports and first-call
    costs land before the timed loop (see WARM_UP_REQUESTS)."""
    end = time.perf_counter() + WARM_UP_SECONDS
    done = 0
    while done == 0 or (done < WARM_UP_REQUESTS and time.perf_counter() < end):
        for item in items:
            solve_once(item.text)
        done += len(items)


def in_process(workload, seed, seconds, sizes, report):
    from checks import digest

    items = items_for(workload, seed, sizes)
    setup = [import_probe()[0] for _ in range(sizes.setup_probes)]
    warm_up(items)
    first_pass = []   # full answers of the first timed pass, checked below

    def request(i):
        res = solve_once(items[i].text)
        if len(first_pass) < len(items):
            first_pass.append(res)
        return res[1:]

    latencies, elapsed, results = timed_loop(len(items), seconds, request)

    checked, exact_texts = verdicts(items, first_pass)
    outcomes = Outcomes()
    for i, got in enumerate(results):
        verdict, reason = checked[i % len(items)]
        if got != first_pass[i % len(items)][1:]:
            verdict, reason = "failed", f"{items[i % len(items)].text}: answer changed between passes"
        outcomes.record(verdict, reason, i % len(items))
    observed = {"defects": sorted(outcomes.defect_at), "digest": digest(exact_texts)}
    for problem in record_problems(workload, seed, sizes, report, observed):
        outcomes.fail(problem)

    families = {}
    for item, (verdict, _) in zip(items, checked):
        if verdict == "defect":
            families[item.family] = families.get(item.family, 0) + 1
    report.note(f"{len(items)} distinct inputs, {len(results)} requests in "
                f"{len(results) // len(items)} passes; known-defect inputs "
                f"(float path, exit 4): {sum(families.values())} {families}")
    end_to_end(report, latencies, elapsed, outcomes, setup)
    return outcomes


def end_to_end(report, latencies, elapsed, outcomes, setup):
    n = len(latencies)
    ms = [v * 1000.0 for v in latencies]
    report.add("latency_ms_p50", statistics.median(ms), "ms", f"n={n} requests")
    report.add("latency_ms_p90", statistics.quantiles(ms, n=10, method="inclusive")[-1], "ms",
               f"n={n} requests, {n - int(0.9 * n)} above")
    report.add("ops_per_s", n / elapsed, "1/s", f"{n} requests in {elapsed:.3f} s")
    failed_share = (outcomes.failed + outcomes.defects) / outcomes.attempted
    report.note(f"failed_share {failed_share:.6g} share ({outcomes.failed} failed checks + "
                f"{outcomes.defects} known-defect exits of {outcomes.attempted} attempted)")
    report.add("setup_s", statistics.median(setup), "s",
               f"median of {len(setup)} fresh-interpreter imports of odecascade.cli")
    report.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage, benchmark and its children")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def cli_requests(seed: int, sizes: Sizes):
    """The rotation, with each ``verify`` given the oracle's answer (an
    independent route) as its known-correct candidate."""
    from odecascade import oracle_undetermined_coefficients, parse_ode, realify, render

    out = []
    for rq in gen.cli_cold(seed, sizes.cli_rounds):
        if rq.command == "verify":
            ode = parse_ode(rq.item.text)
            candidate = render(realify(oracle_undetermined_coefficients(ode, ode.forcing)))
            rq = gen.CliRequest(rq.command, rq.argv + (candidate,), rq.item)
        out.append(rq)
    return out


def cli_verdict(rq, returncode: int, stdout: str, stderr: str) -> tuple[str, str]:
    """ok, defect (a float-path input failing the solver's own residual
    check: exit 4, or exit 1 from eval) or failed."""
    from checks import check_cli

    if rq.item is not None and not rq.item.exact and (
            returncode == 4 or "failed the residual check" in stderr):
        return "defect", ""
    reason = check_cli(rq, returncode, stdout)
    if reason and "Traceback" in stderr:
        reason += " (traceback)"
    return ("failed", f"{rq.argv}: {reason}") if reason else ("ok", "")


def cold_verdict(rq, proc) -> tuple[str, str]:
    if proc is None:
        return "failed", f"{rq.argv}: timed out"
    return cli_verdict(rq, proc.returncode, proc.stdout, proc.stderr)


def cli_loop(requests, seconds, outcomes):
    """Cold requests in a closed loop, in whole rounds of the six commands,
    judged into ``outcomes``.  Returns (latencies, elapsed, latencies by
    command)."""
    latencies, elapsed, procs = timed_loop(
        len(requests), seconds,
        lambda i: run_child(["-m", "odecascade.cli", *requests[i].argv])[1],
        unit=len(gen.CLI_COMMANDS))
    by_command = {}
    for i, (seconds_taken, proc) in enumerate(zip(latencies, procs)):
        rq = requests[i % len(requests)]
        outcomes.record(*cold_verdict(rq, proc), i % len(requests))
        by_command.setdefault(rq.command, []).append(seconds_taken)
    return latencies, elapsed, by_command


def cli_cold(seed, seconds, sizes, report):
    requests = cli_requests(seed, sizes)
    setup = [import_probe()[0] for _ in range(sizes.setup_probes)]
    outcomes = Outcomes()
    latencies, elapsed, _ = cli_loop(requests, seconds, outcomes)
    observed = {"defects": sorted(outcomes.defect_at)}
    for problem in record_problems("cli_cold", seed, sizes, report, observed):
        outcomes.fail(problem)
    report.note(f"{len(latencies)} cold requests over {len(gen.CLI_COMMANDS)} commands; "
                f"known-defect exits: {outcomes.defects}")
    end_to_end(report, latencies, elapsed, outcomes, setup)
    return outcomes


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)
# ---------------------------------------------------------------------------

def traced_loop(items, seconds, outcomes, index):
    """Each request runs through the traced composition and through
    ``particular_solution``, alternating which goes first; the two results
    must be equal.  ``index`` maps an input to the index its known defects
    are recorded under.  Returns (spans, traced times, untraced times,
    rendered exact outputs of the first pass)."""
    from layers import Spans, reference_request, traced_request

    spans = Spans()
    traced, untraced = [], []
    clock = time.perf_counter

    def attempt(fn, *args):
        t0 = clock()
        try:
            result = fn(*args) + (None,)
        except Exception as exc:  # compared with the reference, judged later
            result = (None, None, None, type(exc).__name__)
        return clock() - t0, result

    def request(i):
        text = items[i].text
        rid = len(traced)
        if rid % 2:
            t_ref, ref = attempt(reference_request, text)
            t_tr, got = attempt(traced_request, text, spans, rid)
        else:
            t_tr, got = attempt(traced_request, text, spans, rid)
            t_ref, ref = attempt(reference_request, text)
        traced.append(t_tr)
        untraced.append(t_ref)
        if len(first_pass) < len(items):
            first_pass.append(got)
        return got == ref

    first_pass = []
    _, _, same = timed_loop(len(items), seconds, request)
    checked, exact_texts = verdicts(items, [(sol, text, err) for sol, _, text, err in first_pass])
    for i, equal in enumerate(same):
        verdict, reason = checked[i % len(items)]
        if not equal:
            verdict, reason = "failed", f"{items[i % len(items)].text}: composed result differs"
        outcomes.record(verdict, reason, index[i % len(items)])
    return spans, traced, untraced, exact_texts


def layer_metrics(report, items, spans, traced, untraced):
    from odecascade import oracle_undetermined_coefficients, parse_ode

    from layers import LAYERS

    total = sum(traced)
    for layer in LAYERS:
        times = spans.layer_times(layer)
        report.add(f"{layer}.ms", statistics.median(times) * 1000, "ms", f"median of {len(times)} calls")
        if layer != "parsing.render":
            report.add(f"{layer}.share", sum(times) / total, "share",
                       f"of {total:.3f} s traced request time")
    first = spans.requests[:len(items)]
    reached = [c for c in first if "stages" in c]
    report.add("roots.exact_share", sum(c["exact_roots"] for c in first if "exact_roots" in c)
               / len(first), "share", f"RootSets with all_exact(), base {len(first)} inputs")
    report.add("cascade.stages", statistics.mean(c["stages"] for c in reached), "count",
               f"mean per request, base {len(reached)} inputs")
    report.add("cascade.stage_terms", statistics.mean(c["stage_terms"] for c in reached),
               "count", "mean per request of the summed stage output lengths")
    report.add("cascade.coeff_bits_max", max(c["coeff_bits"] for c in reached), "bits",
               "largest numerator/denominator in an exact y_p")
    report.add("verify.rejected_share", sum(c["rejected"] for c in reached) / len(reached),
               "share", f"y_p rejected by residual_symbolic, base {len(reached)} inputs")

    oracle_times = []
    for item in items:
        if item.log:
            continue
        ode = parse_ode(item.text)
        if not item.exact:
            ode = ode.to_float()
        t0 = time.perf_counter()
        oracle_undetermined_coefficients(ode, ode.forcing)
        oracle_times.append(time.perf_counter() - t0)
    report.add("verify.oracle.ms", statistics.median(oracle_times) * 1000, "ms",
               f"median of {len(oracle_times)} log-free inputs")
    report.add("trace.overhead_share",
               statistics.median(traced) / statistics.median(untraced), "ratio",
               f"median traced / untraced request time, n={len(traced)} each")


def cli_probes(report, seed, sizes, outcomes, cold_by_command=None):
    """Interpreter start-up, import, each command cold and in process, and
    the varcoef layer in process.  The commands are the first round of the
    full cli_cold rotation, so their defects index into its record."""
    from odecascade import PowerCoefODE, parse_numeric_function, residual_varcoef, solve_varcoef

    from layers import run_cli_inprocess

    bare = [run_child(["-c", "pass"])[0] for _ in range(sizes.probes)]
    imports = [import_probe() for _ in range(sizes.probes)]
    report.add("cli.python_bare.ms", statistics.median(bare) * 1000, "ms",
               f"median of {len(bare)} bare interpreters")
    report.add("cli.import.ms", statistics.median(s for s, _ in imports) * 1000, "ms",
               "import odecascade.cli in a fresh interpreter, after its start-up")
    report.add("cli.modules_loaded", imports[0][1], "count", "len(sys.modules) after that import")

    requests = cli_requests(seed, FULL)[:len(gen.CLI_COMMANDS)]
    if cold_by_command is None:
        cold_by_command = {}
        for i, rq in enumerate(requests):
            seconds_taken, proc = run_child(["-m", "odecascade.cli", *rq.argv])
            outcomes.record(*cold_verdict(rq, proc), i)
            cold_by_command[rq.command] = [seconds_taken]
    for cmd in gen.CLI_COMMANDS:
        times = cold_by_command[cmd]
        report.add(f"cli.{cmd}.ms_p50", statistics.median(times) * 1000, "ms",
                   f"cold, n={len(times)}")
    for i, rq in enumerate(requests):
        run_cli_inprocess(rq.argv)
        times = []
        for _ in range(sizes.probes):
            t0 = time.perf_counter()
            result = run_cli_inprocess(rq.argv)
            times.append(time.perf_counter() - t0)
        outcomes.record(*cli_verdict(rq, *result), i)
        report.add(f"cli.inproc.{rq.command}.ms", statistics.median(times) * 1000, "ms",
                   f"cli.main in this process, median of {len(times)}")

    forcing, _ = parse_numeric_function(gen.VARCOEF_ARGS[2])
    ode = PowerCoefODE(float(gen.VARCOEF_ARGS[0]), int(gen.VARCOEF_ARGS[1]), forcing, 0.0, 1.0)
    solve_times, resid_times = [], []
    for _ in range(sizes.probes):
        t0 = time.perf_counter()
        sol = solve_varcoef(ode, 1e-3)
        t1 = time.perf_counter()
        residual_varcoef(sol, ode)
        resid_times.append(time.perf_counter() - t1)
        solve_times.append(t1 - t0)
    report.add("varcoef.solve_varcoef.ms", statistics.median(solve_times) * 1000, "ms",
               f"default step, median of {len(solve_times)}")
    report.add("varcoef.residual_varcoef.ms", statistics.median(resid_times) * 1000, "ms",
               f"median of {len(resid_times)}")
    report.add("varcoef.steps", len(sol.xs) - 1, "count", "RK4 steps per solve")


def traced_run(workload, seed, seconds, sizes, report):
    from checks import digest

    outcomes = Outcomes()
    cli_outcomes = outcomes if workload == "cli_cold" else Outcomes()
    cold = None
    if workload == "cli_cold":
        requests = cli_requests(seed, sizes)
        _, _, cold = cli_loop(requests, seconds, outcomes)
        index = [i for i, rq in enumerate(requests) if rq.item is not None]
        items = [requests[i].item for i in index]
        seconds = 0.0   # one traced pass over the equations the CLI solved
    else:
        items = items_for(workload, seed, sizes)
        index = range(len(items))
    warm_up(items)
    spans, traced, untraced, exact_texts = traced_loop(items, seconds, outcomes, index)
    layer_metrics(report, items, spans, traced, untraced)
    cli_probes(report, seed, sizes, cli_outcomes, cold)
    problems = record_problems("cli_cold", seed, sizes, report,
                               {"defects": sorted(cli_outcomes.defect_at)})
    if workload != "cli_cold":
        observed = {"defects": sorted(outcomes.defect_at), "digest": digest(exact_texts)}
        problems += record_problems(workload, seed, sizes, report, observed)
        outcomes.merge(cli_outcomes)
    for problem in problems:
        outcomes.fail(problem)
    report.note(f"traced {len(traced)} requests over {len(items)} distinct inputs")
    return outcomes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "odecascade" / "__init__.py").is_file():
        print(f"error: no odecascade source tree at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "odecascade"), quiet=1)
    sys.path.insert(0, str(SRC))

    sizes = Sizes(args.size == "tiny")
    report = Report()
    report.note(f"odecascade benchmark: workload {args.workload}, seed {args.seed}, "
                f"{args.seconds:g} s, trace {args.trace}, size {args.size}")
    report.note(f"env: {environment()}")
    report.note("load: one client, closed loop" + (
        ", one fresh interpreter per request" if args.workload == "cli_cold" else ", in process"))
    if args.trace:
        outcomes = traced_run(args.workload, args.seed, args.seconds, sizes, report)
    elif args.workload == "cli_cold":
        outcomes = cli_cold(args.seed, args.seconds, sizes, report)
    else:
        outcomes = in_process(args.workload, args.seed, args.seconds, sizes, report)

    for reason in outcomes.reasons:
        report.note(f"FAILED: {reason}")
    correct = outcomes.failed == 0
    print("\n".join(report.lines))
    print(json.dumps({"correct": correct, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": report.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest bench -q

Runs every workload at the tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json is printed with its unit; then feeds the
output checks deliberately wrong answers and expects them to fire.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(workload, trace):
    proc, result = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                        "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_inputs_depend_only_on_the_seed():
    assert gen.small_mix(7, 60) == gen.small_mix(7, 60)
    assert gen.small_mix(7, 60) != gen.small_mix(8, 60)
    assert gen.high_degree(7) == gen.high_degree(7)
    assert gen.cli_cold(7, 2) == gen.cli_cold(7, 2)


def _wrong_solver(real):
    """particular_solution for twice the forcing: a wrong answer."""
    from odecascade import LinearODE

    return lambda ode: real(LinearODE(ode.coeffs, ode.forcing + ode.forcing, ode.var))


def test_solution_check_fires_on_wrong_answers():
    from odecascade import parse_ode, particular_solution

    for item in gen.small_mix(5, 40):
        ode = parse_ode(item.text)
        try:
            solution, _ = particular_solution(ode)
            wrong, _ = _wrong_solver(particular_solution)(ode)
        except Exception:  # known-defect inputs raise; nothing to feed
            continue
        assert checks.check_solution(item, ode, solution) is None, item.text
        assert checks.check_solution(item, ode, wrong) is not None, item.text


def test_cli_check_fires_on_wrong_output():
    item = gen.Item("y'' + y = t", "exact", 2, 1, True, False)
    solve = gen.CliRequest("solve", ("solve", item.text), item)
    assert checks.check_cli(solve, 0, "residual:       exact-zero\n") is None
    assert checks.check_cli(solve, 0, "residual:       nonzero\n") is not None
    assert checks.check_cli(solve, 4, "residual:       exact-zero\n") is not None
    js = gen.CliRequest("solve_json_steps", ("solve", item.text, "--json", "--steps"), item)
    good = {"residual": "zero", "trace": [{}, {}]}
    assert checks.check_cli(js, 0, json.dumps(good)) is None
    assert checks.check_cli(js, 0, json.dumps(dict(good, residual="zero_tol"))) is not None
    ev = gen.CliRequest("eval", ("eval", item.text), item)
    rows = ["t,y"] + [f"{i},0.0" for i in range(50)]
    assert checks.check_cli(ev, 0, "\n".join(rows)) is None
    assert checks.check_cli(ev, 0, "\n".join(rows[:-1])) is not None
    roots = gen.CliRequest("roots", ("roots", item.text), item)
    table = "characteristic: r^2 + 1\nroot  mult  exact\n0 + 1i  1  True\n0 - 1i  1  True\n"
    assert checks.check_cli(roots, 0, table) is None
    assert checks.check_cli(roots, 0, table.replace("1  True\n0 -", "2  True\n0 -")) is not None


def test_record_check_fires_on_changed_output():
    observed, failed = run.seed_record("high_degree", 0)
    assert failed == []
    assert run.check_record("high_degree", 0, observed, run.Report()) == []
    changed = dict(observed, digest="0" * 16)
    assert run.check_record("high_degree", 0, changed, run.Report()) != []


def test_record_check_fires_on_a_new_defect(monkeypatch):
    """A float input that solves at the recorded version starts raising
    VerificationFailed: a known-defect verdict, but not a recorded one."""
    import odecascade
    from odecascade import VerificationFailed, parse_ode

    seed = 1
    recorded, _ = run.seed_record("small_mix", seed)
    items = run.items_for("small_mix", seed, run.FULL)
    target = next(i for i, it in enumerate(items)
                  if not it.exact and i not in recorded["defects"])
    target_ode = parse_ode(items[target].text)
    real = odecascade.particular_solution

    def refusing(ode):
        if ode == target_ode:
            raise VerificationFailed("cascade result failed the residual check")
        return real(ode)

    monkeypatch.setattr(odecascade, "particular_solution", refusing)
    observed, failed = run.seed_record("small_mix", seed)
    assert failed == [] and target in observed["defects"]
    problems = run.check_record("small_mix", seed, observed, run.Report())
    assert any(str(target) in p for p in problems), problems


def test_run_exits_nonzero_on_a_wrong_answer(monkeypatch, capsys):
    import odecascade

    monkeypatch.setattr(odecascade, "particular_solution",
                        _wrong_solver(odecascade.particular_solution))
    code = run.main(["--workload", "small_mix", "--seed", "3", "--seconds", "0.1",
                     "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import time

import numpy as np
import pytest

from odecascade import (evaluate, expr_from_json_terms, parse_forcing, parse_ode,
                        particular_solution, render)
from odecascade.cli import main

from support import run_cli


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_repeated_root_fixture():
    result = run_cli(["solve", "y''-4y'+4y = t^3*exp(2t)"])
    assert result.exit_code == 0
    assert "1/20*t^5*exp(2*t)" in result.output
    assert "exact-zero" in result.output


def test_solve_zero_forcing():
    result = run_cli(["solve", "y'' + y = 0"])
    assert result.exit_code == 0
    assert "y_p (real):     0" in result.output


def test_solve_steps_show_log_stage():
    result = run_cli(["solve", "y''+4y'+4y = exp(-2t)*ln(t)", "--steps"])
    assert result.exit_code == 0
    assert "-t*exp(-2*t) + t*ln(t)*exp(-2*t)" in result.output
    assert "stage 1" in result.output and "stage 2" in result.output


def test_solve_latex():
    result = run_cli(["solve", "y''-4y'+4y = t^3*exp(2t)", "--latex"])
    assert result.exit_code == 0
    assert r"\frac{1}{20}t^5e^{2t}" in result.output


def test_solve_parse_error_exit_2():
    result = run_cli(["solve", "y'' + = t"])
    assert result.exit_code == 2


def test_solve_not_closed_form_exit_3():
    result = run_cli(["solve", "y'' + y = exp(t)*ln(t)"])
    assert result.exit_code == 3
    assert "stage 1" in result.stderr


@pytest.mark.parametrize("text", ["y'' - y = 1e400", "y'' + y = t^171"])
def test_solve_exact_never_converts_to_float(text):
    # 10^400 and the t^171 coefficients (~171!) overflow a float; the exact
    # path must not compute a float scale from them.
    result = run_cli(["solve", text])
    assert result.exit_code == 0, result.exception
    assert "residual:       exact-zero" in result.output
    assert "Traceback" not in result.output + result.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("flags", [[], ["--latex"], ["--json"]])
def test_solve_result_too_long_to_print(flags):
    # the t^2000 coefficients reach ~2000!, past the 4300-digit str limit
    result = run_cli(["solve", "y'' + y = t^2000", *flags])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: result too large to print")
    assert len(result.stderr.splitlines()) == 1


def test_solve_float_flag():
    result = run_cli(["solve", "y''-4y'+4y = t^3*exp(2t)", "--float"])
    assert result.exit_code == 0
    assert "residual:       exact-zero" in result.output


@pytest.mark.parametrize("text", [
    # the four worked fixtures
    "y'' + 5y' + 6y = exp(t)*cos(t)",
    "y'' - 4y' + 4y = t^3*exp(2t)",
    "y'' - 2y' + 5y = sin(t)",
    "y'' + 4y' + 4y = exp(-2t)*ln(t)",
    # a six-fold root and a resonant Gaussian pair
    "y^(6) - 6y^(5) + 15y^(4) - 20y''' + 15y'' - 6y' + y = 5*t^3*ln(t)*exp(t)",
    "y'' + 2y' + 5y = t*exp(-t)*sin(2t)",
    # converting the equation lost the t^2 and -2 terms of the answer, and
    # the leading coefficient underflowed
    "y'' + y = 1000000000000000*t + t^2",
    "1e-400y' + y = 1",
])
def test_solve_float_rounds_the_exact_answer_once(text):
    exact, trace = particular_solution(parse_ode(text))
    result = run_cli(["solve", "--float", text])
    assert result.exit_code == 0, result.stderr
    if trace.y_p_real is not None:
        assert f"y_p (real):     {render(exact.to_float())}\n" in result.output
    assert f"y_p (complex):  {render(trace.y_p.to_float())}\n" in result.output
    assert "residual:       exact-zero" in result.output


def test_float_flag_keeps_a_six_fold_root_exact():
    # Aberth on the float coefficients split the root 1 by ~4e-4, so no
    # stage was resonant and the log term had no closed form (exit 3)
    result = _timed_cli(["solve", "--float", "y^(6) - 6y^(5) + 15y^(4) - 20y''' + 15y'' "
                         "- 6y' + y = 5*t^3*ln(t)*exp(t)"])
    assert result.exit_code == 0, result.stderr
    assert "roots:          1 (mult 6, exact)" in result.output
    assert "residual:       exact-zero" in result.output


def test_float_flag_double_root_from_decimal_coefficients():
    # 0.01 and 0.2 as floats are not an exact square, so the float roots
    # split and the residual check failed (exit 4)
    result = _timed_cli(["solve", "--float", "y'' - 0.2y' + 0.01y = exp(0.1t)"])
    assert result.exit_code == 0, result.stderr
    assert "roots:          1/10 (mult 2, exact)" in result.output


def test_squared_irrational_operator_solves():
    # (D^2 - D - 1)^2: each golden-ratio root is double (exited 4)
    result = _timed_cli(["solve", "y'''' - 2y''' - y'' + 2y' + y = sin(t)"])
    assert result.exit_code == 0, result.stderr
    assert result.output.count("(mult 2, approx)") == 2


def test_numeric_overflow_is_one_error_line():
    # the start radius 1e30 raised to the 12th power left double range
    result = _timed_cli(["roots", "y^(12) + 1e30y = 0"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: numeric root finding left double range")
    assert len(result.stderr.splitlines()) == 1


def test_solve_exact_flag_refuses_irrational():
    result = run_cli(["solve", "y'' - 2y = exp(t)", "--exact"])
    assert result.exit_code == 1


def _timed_cli(args, seconds=1.0):
    start = time.perf_counter()
    result = run_cli(args)
    assert time.perf_counter() - start < seconds, args
    return result


def test_solve_exact_repeated_resonance():
    # the roots +-i are double: the divisor search and the lone-quadratic
    # case never found them
    result = _timed_cli(["solve", "--exact", "y'''' + 2y'' + y = sin(t)"])
    assert result.exit_code == 0, result.stderr
    assert "roots:          i (mult 2, exact), -i (mult 2, exact)\n" in result.output
    assert "residual:       exact-zero" in result.output


def test_solve_two_gaussian_pairs_exactly():
    result = _timed_cli(["solve", "y'''' + 5y'' + 4y = cos(t)"])
    assert result.exit_code == 0, result.stderr
    assert " 2*i (mult 1, exact)" in result.output
    assert " -i (mult 1, exact)" in result.output
    assert "approx" not in result.output
    assert "residual:       exact-zero" in result.output


def test_huge_constant_coefficients_end_quickly():
    # a divisor search over 963761198400 ran for more than 10 s
    result = _timed_cli(["solve", "963761198400y''' + y' + 963761198400y = 1"])
    assert result.exit_code == 0, result.stderr
    assert "exact" not in result.output.split("roots:")[1].splitlines()[0]


def test_order_over_the_cap_exits_1():
    result = _timed_cli(["solve", "y^(100000000) + y = 1"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: the equation has order 100000000")
    assert len(result.stderr.splitlines()) == 1


def test_dense_order_64_ends_quickly():
    rng = random.Random(64)
    lhs = " + ".join(f"{rng.randint(1, 9)}y^({k})" for k in range(64, -1, -1))
    result = _timed_cli(["solve", f"{lhs} = 1"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: numeric root finding is limited to degree 12")


def test_dense_huge_coefficients_end_quickly():
    # order 32 with 2,658-bit integer coefficients, under the root route's
    # bits cap: the split runs, and what it leaves has no double ratios
    sizes = itertools.cycle(["1e400", "3", "1e-400", "7/5"])
    lhs = " + ".join(f"{next(sizes)}y^({k})" for k in range(32, -1, -1))
    result = _timed_cli(["solve", f"{lhs} = 1"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: a characteristic coefficient has no double value")


def test_solve_json_round_trip():
    result = run_cli(["solve", "y''+5y'+6y = exp(t)*cos(t)", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert set(payload) == {"ode", "roots", "y_p", "residual", "trace"}
    assert payload["residual"] == "zero"
    assert payload["ode"]["coeffs"] == [[6, 1], [5, 1], [1, 1]]
    # exact roots keep their [num, den] parts
    assert payload["roots"] == [{"re": [-2, 1], "im": [0, 1], "mult": 1, "exact": True},
                                {"re": [-3, 1], "im": [0, 1], "mult": 1, "exact": True}]
    # the JSON y_p term list re-normalizes to the in-memory expression
    _, trace = particular_solution(parse_ode("y''+5y'+6y = exp(t)*cos(t)"))
    assert expr_from_json_terms(payload["y_p"]["complex_terms"]) == trace.y_p
    assert payload["y_p"]["real_terms"]


def test_solve_json_trace_only_with_steps():
    base = run_cli(["solve", "y'' + y = 0", "--json"])
    with_steps = run_cli(["solve", "y'' + y = 0", "--json", "--steps"])
    assert json.loads(base.output)["trace"] == []
    assert len(json.loads(with_steps.output)["trace"]) == 2


@pytest.mark.parametrize("ode_text, roots_line", [
    ("y'' + y' + 5/4y = t", "(-1/2+i) (mult 1, exact), (-1/2-i) (mult 1, exact)"),
    ("y''' + y' + y = 1",
     "(0.34116390191400964+1.161541399997252*i) (mult 1, approx), "
     "(0.34116390191400964-1.161541399997252*i) (mult 1, approx), "
     "-0.6823278038280193 (mult 1, approx)"),
])
def test_roots_print_like_every_scalar(ode_text, roots_line):
    # the roots line, the stage lines and the roots table write a root alike
    result = run_cli(["solve", "--steps", ode_text])
    assert result.exit_code == 0, result.stderr
    assert f"roots:          {roots_line}\n" in result.output
    texts = [bit.split(" (mult")[0] for bit in roots_line.split("), ")]
    for idx, text in enumerate(texts, start=1):
        assert f"stage {idx}: solve phi' - ({text})*phi = " in result.output
    table = run_cli(["roots", ode_text]).output.splitlines()[2:]
    assert [line.split()[0] for line in table] == texts


def test_solve_json_exact_roots_past_the_double_range():
    # the root 10^400 has no double value; its JSON parts are exact
    result = run_cli(["solve", "--json", "--steps", "y' - 1e400y = 1"])
    assert result.exit_code == 0, result.stderr
    payload = json.loads(result.output)
    assert payload["residual"] == "zero"
    assert payload["roots"] == [{"re": [10 ** 400, 1], "im": [0, 1], "mult": 1, "exact": True}]
    assert [st["root"] for st in payload["trace"]] == [{"re": [10 ** 400, 1], "im": [0, 1]}]


def test_json_approximate_roots_stay_floats():
    payload = json.loads(run_cli(["solve", "--json", "--steps", "y'' - 2y = 1"]).output)
    roots = [(r["re"], r["im"], r["exact"]) for r in payload["roots"]]
    assert roots == [(pytest.approx(2 ** 0.5), 0.0, False),
                     (pytest.approx(-(2 ** 0.5)), 0.0, False)]
    # a stage writes its root as the roots list does
    assert [st["root"] for st in payload["trace"]] == [{"re": r["re"], "im": r["im"]}
                                                       for r in payload["roots"]]
    data = json.loads(run_cli(["roots", "--json", "y''' + y' + y = 0"]).output)
    assert all(type(r[part]) is float for r in data for part in ("re", "im"))
    assert [r["exact"] for r in data] == [False] * 3


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_roots_fixtures():
    result = run_cli(["roots", "y''+5y'+6y = 0"])
    assert result.exit_code == 0
    assert "-2" in result.output and "-3" in result.output

    result = run_cli(["roots", "y''-4y'+4y = 0", "--json"])
    data = json.loads(result.output)
    assert data == [{"re": [2, 1], "im": [0, 1], "mult": 2, "exact": True}]

    result = run_cli(["roots", "y''-2y'+5y = 0", "--json"])
    data = {(tuple(r["re"]), tuple(r["im"]), r["mult"]) for r in json.loads(result.output)}
    assert data == {((1, 1), (2, 1), 1), ((1, 1), (-2, 1), 1)}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_zero_residual_exit_0():
    result = run_cli([
        "verify", "y''-2y'+5y = sin(t)", "1/10*cos(t)+1/5*sin(t)"])
    assert result.exit_code == 0
    assert "exact-zero" in result.output


def test_verify_nonzero_exit_1():
    result = run_cli(["verify", "y''-2y'+5y = sin(t)", "t"])
    assert result.exit_code == 1
    assert "nonzero" in result.output


def test_verify_homogeneous_addition_still_zero():
    result = run_cli([
        "verify", "y''-4y'+4y = t^3*exp(2t)",
        "1/20*t^5*exp(2*t) + exp(2*t) + t*exp(2*t)"])
    assert result.exit_code == 0


def test_verify_parse_error_exit_2():
    result = run_cli(["verify", "y'' = t", "1 +"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_fixture_value_at_zero():
    result = run_cli([
        "eval", "y''-2y'+5y = sin(t)", "--from", "0", "--to", "1", "--points", "3"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.1)


def test_eval_single_point_grid():
    result = run_cli([
        "eval", "y' = t", "--from", "2", "--to", "5", "--points", "1"])
    lines = result.output.strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 2.0


@pytest.mark.parametrize("t_from, t_to, points", [
    (1.0, 2.0, 50),
    (0.1, 0.7, 13),
    (-1e-3, 1e3, 11),
    (2.0, 5.0, 1),
    (3.0, 3.0, 4),
    (2.0, -1.5, 7),
    (0.3, 0.1, 4),
    (0.0, 5e-324, 10),
])
def test_eval_grid_matches_numpy_linspace(t_from, t_to, points):
    result = run_cli([
        "eval", "y' = t", "--from", repr(t_from), "--to", repr(t_to),
        "--points", str(points)])
    assert result.exit_code == 0
    printed = [line.split(",")[0] for line in result.output.strip().splitlines()[1:]]
    assert printed == [repr(float(t)) for t in np.linspace(t_from, t_to, points)]


def test_eval_overflowing_coefficient_exit_1():
    # the exact solution -10^400 has no float value
    result = run_cli(["eval", "y'' - y = 1e400",
                                  "--from", "1", "--to", "2", "--points", "3"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: value at t=1.0 overflows")


def test_eval_matches_evaluate():
    result = run_cli([
        "eval", "y''+5y'+6y = exp(t)*cos(t)", "--from", "0.5", "--to", "1.5",
        "--points", "5"])
    sol, _ = particular_solution(parse_ode("y''+5y'+6y = exp(t)*cos(t)"))
    for line in result.output.strip().splitlines()[1:]:
        t_str, y_str = line.split(",")
        assert float(y_str) == pytest.approx(evaluate(sol, float(t_str)), rel=1e-12)


# ---------------------------------------------------------------------------
# varcoef
# ---------------------------------------------------------------------------

def test_varcoef_csv_output():
    result = run_cli([
        "varcoef", "1.0", "1", "exp(x^2/2)", "--x0", "0", "--x1", "1",
        "--step", "0.01"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "x,phi,y,stage1_residual,stage2_residual,fd_residual"
    assert len(lines) == 102  # header + 101 nodes
    assert "max residuals" in result.stderr


def test_varcoef_degenerate_quadratic():
    result = run_cli([
        "varcoef", "0.0", "0", "2", "--x0", "0", "--x1", "1", "--step", "0.1"])
    assert result.exit_code == 0
    last = result.stdout.strip().splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0)
    assert float(last[2]) == pytest.approx(1.0, abs=1e-12)  # y(1) = 1


def test_varcoef_overflow_exit_1():
    result = run_cli([
        "varcoef", "2.0", "3", "1", "--x0", "0", "--x1", "10", "--step", "0.01"])
    assert result.exit_code == 1


def test_varcoef_parse_error_exit_2():
    result = run_cli(["varcoef", "1.0", "1", "exp(x**)"])
    assert result.exit_code == 2


#: (arguments, exit code, sha256 of stdout, sha256 of stderr), recorded with
#: the numpy-array implementation of varcoef: every printed digit of the
#: march, the residuals and the summary is pinned.
_VARCOEF_PINS = [
    (["1.0", "1", "exp(x^2/2)"], 0,
     "f6376b89270fd5f60e7984899762d23df207f9e396d9c7f0b48a8a89ea9be7ff",
     "fd6c883734a233467b13debd3b6ffd813683ddbddd5abcaffca51e9a9c23fa6a"),
    (["1.0", "1", "exp(x^2/2)", "--step", "0.01"], 0,
     "cd65b334e82eba8225a60449152631ba9314d1788d0e9a23816f1a0b9930bc44",
     "7a10f13eb6cb4cf1f8f3d43983293f7a4e4fb0db0fa7aab05fc12cbc1be331fa"),
    (["1.5", "0", "sin(x)"], 0,
     "225fdc25774ecf7fcb4c1c7577c90887d20d6bf2186a32425022b99dc1f22352",
     "e5fd2db66a89d332a6709694d9ad16a9420439ade0981924cad3b48d9fa1e0c4"),
    (["0.5", "2", "cos(3*x) + x", "--x0", "1", "--x1", "2"], 0,
     "74b7eda330501b3b880e1335dabb29c85c0e9cb331dcf0e9ffe734b838bb3451",
     "fad4d1e1a45ff54a000d2f0e7c6fb1f190898cf49c7ea2ebd7f8105c8f9cba17"),
    (["1.0", "1", "ln(x)", "--x0", "0.5", "--x1", "2"], 0,
     "14023c97e2dd2a98d228137157d373956e4063b1ff621856dee0a3c30fe92e9e",
     "3b8e91ad3e44365d653db4853b80d6745f6c515a00313ae0289707839156bf32"),
    # n = 2 on a grid with a node where pow(x, 2) and x * x round apart
    (["--x0", "-3", "--x1", "-2", "--", "0.5", "2", "cos(x)"], 0,
     "2ab57fcd0bbe078883f98c8be95ec87f0bedaba484c322e79547e7b53100cfb2",
     "11f4e706af78b62a46e2dce3b3de57c722ebe736da10c64f007e2602c2d7af22"),
    # stderr: "error: stage residuals 5.811e-04, 1.496e-03 exceed 1.0e-06; reduce h"
    (["1.0", "1", "exp(x^2/2)", "--step", "0.25"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "176759b1d8ed3900753f1f4c5e1d82155a61135ef6808004a99b693fd37abdd0"),
    # option values with a minus sign that are not plain decimals
    (["0.5", "0", "cos(x)", "--x0", "-5e-1", "--x1", "-1e-1", "--step", "0.01"], 0,
     "d0b533e6247aaa181bd0398c00fa8dab5f3f74c302ce4968a3702d3d42e86058",
     "5b5cbd64e3c82089f0db5f9091e7396824d6817c5c7d19cc38ef6e15281eb7f7"),
]


@pytest.mark.parametrize("args, code, out_sha, err_sha", _VARCOEF_PINS,
                         ids=[" ".join(pin[0]) for pin in _VARCOEF_PINS])
def test_varcoef_output_pinned(args, code, out_sha, err_sha):
    result = run_cli(["varcoef", *args])
    assert result.exit_code == code, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == out_sha
    assert hashlib.sha256(result.stderr.encode()).hexdigest() == err_sha


# ---------------------------------------------------------------------------
# the argument contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, code, stdout, stderr", [
    (["eval", "y' = t", "--from", "-inf", "--to", "1", "--points", "3"], 0,
     "t,y\nnan,nan\nnan,nan\n1.0,0.5\n", ""),
    (["eval", "y'' + y = t", "--from", "-1e-3", "--to", "1", "--points", "2"], 0,
     "t,y\n-0.001,-0.001\n1.0,1.0\n", ""),
    (["varcoef", "1.0", "1", "exp(x^2/2)", "--x0", "-inf"], 1,
     "", "error: need a finite domain\n"),
], ids=["eval-from-minus-inf", "eval-from-minus-exponent", "varcoef-x0-minus-inf"])
def test_option_value_starting_with_minus(args, code, stdout, stderr):
    result = run_cli(args)
    assert (result.exit_code, result.stdout, result.stderr) == (code, stdout, stderr)


@pytest.mark.parametrize("args, code", [
    (["solve", "y'' + y = t"], 0),
    (["verify", "y'' + y = t", "t^2"], 1),
    (["solve", "y'' + = t"], 2),
    (["solve", "--bogus", "y'' + y = t"], 2),
    (["solve", "y'' + y = exp(t)*ln(t)"], 3),
    (["eval", "y''' - 4y'' + y' + 2y = 2*t^4*exp(-1/2*t) + 5*t^2*exp(3t)",
      "--from", "0.5", "--to", "1.5"], 4),
])
def test_main_not_standalone_exits_through_system_exit(args, code):
    # how the benchmark calls the CLI in process: returning means exit 0,
    # anything else must leave as SystemExit with its code
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, standalone_mode=False)
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code
    assert exit_code == code, err.getvalue()
    assert (out.getvalue() or err.getvalue()) and "Traceback" not in err.getvalue()


def test_version():
    result = run_cli(["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.stdout

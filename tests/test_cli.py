import json
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from odecascade import evaluate, expr_from_json_terms, parse_forcing, parse_ode, particular_solution
from odecascade.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_repeated_root_fixture(runner):
    result = runner.invoke(main, ["solve", "y''-4y'+4y = t^3*exp(2t)"])
    assert result.exit_code == 0
    assert "1/20*t^5*exp(2*t)" in result.output
    assert "exact-zero" in result.output


def test_solve_zero_forcing(runner):
    result = runner.invoke(main, ["solve", "y'' + y = 0"])
    assert result.exit_code == 0
    assert "y_p (real):     0" in result.output


def test_solve_steps_show_log_stage(runner):
    result = runner.invoke(main, ["solve", "y''+4y'+4y = exp(-2t)*ln(t)", "--steps"])
    assert result.exit_code == 0
    assert "-t*exp(-2*t) + t*ln(t)*exp(-2*t)" in result.output
    assert "stage 1" in result.output and "stage 2" in result.output


def test_solve_latex(runner):
    result = runner.invoke(main, ["solve", "y''-4y'+4y = t^3*exp(2t)", "--latex"])
    assert result.exit_code == 0
    assert r"\frac{1}{20}t^5e^{2t}" in result.output


def test_solve_parse_error_exit_2(runner):
    result = runner.invoke(main, ["solve", "y'' + = t"])
    assert result.exit_code == 2


def test_solve_not_closed_form_exit_3(runner):
    result = runner.invoke(main, ["solve", "y'' + y = exp(t)*ln(t)"])
    assert result.exit_code == 3
    assert "stage 1" in result.stderr


@pytest.mark.parametrize("text", ["y'' - y = 1e400", "y'' + y = t^171"])
def test_solve_exact_never_converts_to_float(runner, text):
    # 10^400 and the t^171 coefficients (~171!) overflow a float; the exact
    # path must not compute a float scale from them.
    result = runner.invoke(main, ["solve", text])
    assert result.exit_code == 0, result.exception
    assert "residual:       exact-zero" in result.output
    assert "Traceback" not in result.output + result.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("flags", [[], ["--latex"], ["--json"]])
def test_solve_result_too_long_to_print(runner, flags):
    # the t^2000 coefficients reach ~2000!, past the 4300-digit str limit
    result = runner.invoke(main, ["solve", "y'' + y = t^2000", *flags])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: result too large to print")
    assert len(result.stderr.splitlines()) == 1


def test_solve_float_flag(runner):
    result = runner.invoke(main, ["solve", "y''-4y'+4y = t^3*exp(2t)", "--float"])
    assert result.exit_code == 0
    assert "zero-within-tolerance" in result.output


def test_solve_exact_flag_refuses_irrational(runner):
    result = runner.invoke(main, ["solve", "y'' - 2y = exp(t)", "--exact"])
    assert result.exit_code == 1


def test_solve_json_round_trip(runner):
    result = runner.invoke(main, ["solve", "y''+5y'+6y = exp(t)*cos(t)", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert set(payload) == {"ode", "roots", "y_p", "residual", "trace"}
    assert payload["residual"] == "zero"
    assert payload["ode"]["coeffs"] == [[6, 1], [5, 1], [1, 1]]
    roots = {(r["re"], r["im"], r["mult"], r["exact"]) for r in payload["roots"]}
    assert roots == {(-2.0, 0.0, 1, True), (-3.0, 0.0, 1, True)}
    # the JSON y_p term list re-normalizes to the in-memory expression
    _, trace = particular_solution(parse_ode("y''+5y'+6y = exp(t)*cos(t)"))
    assert expr_from_json_terms(payload["y_p"]["complex_terms"]) == trace.y_p
    assert payload["y_p"]["real_terms"]


def test_solve_json_trace_only_with_steps(runner):
    base = runner.invoke(main, ["solve", "y'' + y = 0", "--json"])
    with_steps = runner.invoke(main, ["solve", "y'' + y = 0", "--json", "--steps"])
    assert json.loads(base.output)["trace"] == []
    assert len(json.loads(with_steps.output)["trace"]) == 2


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_roots_fixtures(runner):
    result = runner.invoke(main, ["roots", "y''+5y'+6y = 0"])
    assert result.exit_code == 0
    assert "-2" in result.output and "-3" in result.output

    result = runner.invoke(main, ["roots", "y''-4y'+4y = 0", "--json"])
    data = json.loads(result.output)
    assert data == [{"re": 2.0, "im": 0.0, "mult": 2, "exact": True}]

    result = runner.invoke(main, ["roots", "y''-2y'+5y = 0", "--json"])
    data = {(r["re"], r["im"], r["mult"]) for r in json.loads(result.output)}
    assert data == {(1.0, 2.0, 1), (1.0, -2.0, 1)}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_zero_residual_exit_0(runner):
    result = runner.invoke(main, [
        "verify", "y''-2y'+5y = sin(t)", "1/10*cos(t)+1/5*sin(t)"])
    assert result.exit_code == 0
    assert "exact-zero" in result.output


def test_verify_nonzero_exit_1(runner):
    result = runner.invoke(main, ["verify", "y''-2y'+5y = sin(t)", "t"])
    assert result.exit_code == 1
    assert "nonzero" in result.output


def test_verify_homogeneous_addition_still_zero(runner):
    result = runner.invoke(main, [
        "verify", "y''-4y'+4y = t^3*exp(2t)",
        "1/20*t^5*exp(2*t) + exp(2*t) + t*exp(2*t)"])
    assert result.exit_code == 0


def test_verify_parse_error_exit_2(runner):
    result = runner.invoke(main, ["verify", "y'' = t", "1 +"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_fixture_value_at_zero(runner):
    result = runner.invoke(main, [
        "eval", "y''-2y'+5y = sin(t)", "--from", "0", "--to", "1", "--points", "3"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.1)


def test_eval_single_point_grid(runner):
    result = runner.invoke(main, [
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
def test_eval_grid_matches_numpy_linspace(runner, t_from, t_to, points):
    result = runner.invoke(main, [
        "eval", "y' = t", "--from", repr(t_from), "--to", repr(t_to),
        "--points", str(points)])
    assert result.exit_code == 0
    printed = [line.split(",")[0] for line in result.output.strip().splitlines()[1:]]
    assert printed == [repr(float(t)) for t in np.linspace(t_from, t_to, points)]


def test_eval_overflowing_coefficient_exit_1(runner):
    # the exact solution -10^400 has no float value
    result = runner.invoke(main, ["eval", "y'' - y = 1e400",
                                  "--from", "1", "--to", "2", "--points", "3"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: value at t=1.0 overflows")


def test_eval_matches_evaluate(runner):
    result = runner.invoke(main, [
        "eval", "y''+5y'+6y = exp(t)*cos(t)", "--from", "0.5", "--to", "1.5",
        "--points", "5"])
    sol, _ = particular_solution(parse_ode("y''+5y'+6y = exp(t)*cos(t)"))
    for line in result.output.strip().splitlines()[1:]:
        t_str, y_str = line.split(",")
        assert float(y_str) == pytest.approx(evaluate(sol, float(t_str)), rel=1e-12)


# ---------------------------------------------------------------------------
# varcoef
# ---------------------------------------------------------------------------

def test_varcoef_csv_output(runner):
    result = runner.invoke(main, [
        "varcoef", "1.0", "1", "exp(x^2/2)", "--x0", "0", "--x1", "1",
        "--step", "0.01"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "x,phi,y,stage1_residual,stage2_residual,fd_residual"
    assert len(lines) == 102  # header + 101 nodes
    assert "max residuals" in result.stderr


def test_varcoef_degenerate_quadratic(runner):
    result = runner.invoke(main, [
        "varcoef", "0.0", "0", "2", "--x0", "0", "--x1", "1", "--step", "0.1"])
    assert result.exit_code == 0
    last = result.stdout.strip().splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0)
    assert float(last[2]) == pytest.approx(1.0, abs=1e-12)  # y(1) = 1


def test_varcoef_overflow_exit_1(runner):
    result = runner.invoke(main, [
        "varcoef", "2.0", "3", "1", "--x0", "0", "--x1", "10", "--step", "0.01"])
    assert result.exit_code == 1


def test_varcoef_parse_error_exit_2(runner):
    result = runner.invoke(main, ["varcoef", "1.0", "1", "exp(x**)"])
    assert result.exit_code == 2

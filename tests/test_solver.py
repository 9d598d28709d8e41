"""The solve plan: the roots are found once, the backend is chosen once and
the equation is converted to floats at most once per solve."""

import importlib

import pytest

from odecascade import (
    GaussianRational as GR,
    LinearODE,
    NonConvergence,
    SolvePlan,
    parse_ode,
    particular_solution,
    plan,
    render,
)
from odecascade import solver

from support import run_cli


@pytest.fixture
def find_roots_calls(monkeypatch):
    calls = []
    original = solver.find_roots

    def counted(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(solver, "find_roots", counted)
    monkeypatch.setattr("odecascade.cli.find_roots", counted)
    return calls


@pytest.fixture
def conversions(monkeypatch):
    """The equations ``LinearODE.to_float`` returned that are new objects."""
    made = []
    original = LinearODE.to_float

    def counted(self):
        out = original(self)
        if out is not self:
            made.append(out)
        return out

    monkeypatch.setattr(LinearODE, "to_float", counted)
    return made


def test_module_is_importable_by_its_path():
    module = importlib.import_module("odecascade.solver")
    assert module is solver
    assert module.plan is plan and callable(module.particular_solution)


def test_plan_picks_exact_for_gaussian_rational_roots():
    ode = parse_ode("y'' + y = t")
    p = plan(ode)
    assert isinstance(p, SolvePlan)
    assert p.ode is ode
    assert sorted(p.seq, key=lambda r: r.im) == [GR(0, -1), GR(0, 1)]
    assert all(isinstance(r, GR) for r in p.seq)


def test_plan_picks_float_for_irrational_roots(conversions):
    ode = parse_ode("y'' - 2y = 1")
    p = plan(ode)
    assert conversions == [p.ode]
    assert all(isinstance(c, float) for c in p.ode.coeffs)
    assert not p.ode.forcing.is_exact()
    assert all(isinstance(r, complex) for r in p.seq) and len(p.seq) == 2
    assert p.roots.all_exact() is False


def test_plan_exact_backend_refuses_before_converting(conversions):
    with pytest.raises(NonConvergence, match="Gaussian rationals"):
        plan(parse_ode("y'' - 2y = 1"), "exact")
    assert conversions == []


def test_plan_float_backend_keeps_exact_roots():
    p = plan(parse_ode("y'' + y = t"), "float")
    assert p.roots.all_exact()
    assert all(isinstance(r, complex) for r in p.seq)
    assert not p.ode.forcing.is_exact()


def test_plan_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        plan(parse_ode("y' + y = 1"), "double")


def test_float_solve_converts_once_and_checks_the_plans_equation(monkeypatch, conversions):
    checked = []
    original = solver.residual_symbolic

    def spy(ode, y_p):
        checked.append(ode)
        return original(ode, y_p)

    monkeypatch.setattr(solver, "residual_symbolic", spy)
    solution, trace = particular_solution(parse_ode("y'' - 2y = exp(t)"))
    assert len(conversions) == 1
    assert checked == conversions and checked[0] is conversions[0]
    assert trace.residual.is_zero


def test_particular_solution_accepts_a_plan(find_roots_calls):
    ode = parse_ode("y'' + 2y' + y = t*exp(-t)")
    p = plan(ode)
    from_plan = particular_solution(p)
    assert len(find_roots_calls) == 1
    from_ode = particular_solution(ode)
    assert render(from_plan[0]) == render(from_ode[0])
    assert from_plan[1].roots is p.roots


def test_to_float_returns_an_all_float_equation_unchanged():
    float_ode = parse_ode("y'' - 2y = exp(t)").to_float()
    assert float_ode.to_float() is float_ode
    zero = LinearODE((1.0, 1.0), parse_ode("y' + y = 0").forcing)
    assert zero.to_float() is zero


def test_solve_exact_finds_roots_once(find_roots_calls):
    result = run_cli(["solve", "--exact", "y'''' + 2y'' + y = sin(t)"])
    assert result.exit_code == 0, result.output
    assert len(find_roots_calls) == 1


def test_solve_exact_refusal_finds_roots_once(find_roots_calls, conversions):
    result = run_cli(["solve", "--exact", "y'' - 2y = 1"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: roots are not expressible")
    assert len(find_roots_calls) == 1 and conversions == []


@pytest.mark.parametrize("args, message", [
    # --exact refuses from the roots before the equation is converted, which
    # would fail on 1e400
    (["solve", "--exact", "y'' - 2y = 1e400"], "roots are not expressible"),
    # --float converts before the roots are found, which would fail first
    (["solve", "--float", "y^(12) + 1e30y = 1e400"], "a coefficient is beyond double range"),
])
def test_solve_flags_keep_their_error_order(args, message):
    result = run_cli(args)
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: {message}")


def test_solve_float_converts_once(find_roots_calls, conversions):
    result = run_cli(["solve", "--float", "y'' + y = t"])
    assert result.exit_code == 0, result.output
    assert "zero-within-tolerance" in result.output
    assert len(find_roots_calls) == 1 and len(conversions) == 1

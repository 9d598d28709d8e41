"""The solve plan: the roots are found once, the backend is chosen once and
the equation is converted to floats at most once per solve, only on the
float route."""

import importlib

import pytest

from odecascade import (
    GaussianRational as GR,
    Expr,
    LinearODE,
    OverflowGuard,
    SolvePlan,
    cascade,
    normalize,
    parse_forcing,
    parse_ode,
    particular_solution,
    plan,
    render,
    term,
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
    assert p.ode is ode and conversions == []  # the plan converts nothing
    assert all(isinstance(r, complex) for r in p.seq) and len(p.seq) == 2
    assert p.roots.all_exact() is False
    particular_solution(p)  # the float route converts the equation once
    assert len(conversions) == 1
    assert all(isinstance(c, float) for c in conversions[0].coeffs)
    assert not conversions[0].forcing.is_exact()


def test_plan_exact_backend_refuses_before_converting(conversions):
    # an exact-only caller reads the plan's roots: nothing is converted yet,
    # so the 1e400, which has no double value, is not reached
    p = plan(parse_ode("y'' - 2y = 1e400"))
    assert not p.roots.all_exact()
    assert conversions == []


def test_plan_float_backend_keeps_exact_roots():
    # there is no float backend to ask for: exact roots take the exact route
    ode = parse_ode("y'' + y = t")
    with pytest.raises(TypeError):
        plan(ode, "float")
    p = plan(ode)
    assert p.roots.all_exact() and p.ode is ode
    assert all(isinstance(r, GR) for r in p.seq)


def test_float_coefficients_take_the_float_route(conversions):
    # exact roots (-1 twice) with float coefficients: the whole solve is
    # float, its stage roots too, so no stage mixes the two backends
    ode = LinearODE((1.0, 2.0, 1.0), parse_forcing("t"))
    _, trace = particular_solution(ode)
    assert len(conversions) == 1
    assert trace.roots.all_exact()
    assert all(type(st.root) is complex for st in trace.stages)
    assert all(not st.input.is_exact() and not st.output.is_exact() for st in trace.stages)
    assert not trace.y_p.is_exact()
    assert trace.y_p.approx_equal(normalize([term(-2.0), term(1.0, 1)]))  # y_p = t - 2
    assert trace.residual.status == "zero-within-tolerance"


def test_cascade_refuses_exact_roots_with_a_float_forcing():
    exact = plan(parse_ode("y'' + y = t"))
    assert exact.roots.all_exact()
    for a_n in (1, 1.0):  # the float a_n passes the scaling and fails in the stage
        with pytest.raises(TypeError):
            cascade(exact.seq, exact.ode.forcing.to_float(), a_n)


def test_plan_rejects_unknown_backend():
    # ``plan``'s only parameter is the equation
    for backend in ("double", "exact", None):
        with pytest.raises(TypeError):
            plan(parse_ode("y' + y = 1"), backend)


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
    # --float finds the roots first, as without a flag
    (["solve", "--float", "y^(12) + 1e30y = 1e400"], "numeric root finding left double range"),
])
def test_solve_flags_keep_their_error_order(args, message):
    result = run_cli(args)
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: {message}")


def test_solve_float_converts_once(monkeypatch, find_roots_calls, conversions):
    # exact roots: the equation stays exact and the answer is rounded once
    rounded = []
    original = Expr.to_float

    def counted(self):
        rounded.append(self)
        return original(self)

    monkeypatch.setattr(Expr, "to_float", counted)
    result = run_cli(["solve", "--float", "y'' + y = t"])
    assert result.exit_code == 0, result.output
    assert "residual:       exact-zero" in result.output
    assert len(find_roots_calls) == 1 and conversions == []
    assert len(rounded) == 1 and rounded[0].is_exact()


def test_float_route_refuses_a_forcing_it_cannot_resolve():
    # the float zero test drops a term at most REL_EPS times the largest:
    # the t^2 and -2 of the answer were lost, and the check did not notice
    ode = parse_ode("y'' - 2y = 1000000000000000*t + t^2")
    with pytest.raises(OverflowGuard, match="span more than 1/REL_EPS"):
        ode.to_float()
    with pytest.raises(OverflowGuard, match="span more than 1/REL_EPS"):
        particular_solution(ode)
    exact = parse_ode("y'' + y = 1000000000000000*t + t^2")
    y, _ = particular_solution(exact)
    assert len(y) == 3 and len(y.to_float()) == 3

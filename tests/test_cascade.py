import random
from fractions import Fraction

import pytest

from odecascade import (
    Expr,
    GaussianRational as GR,
    NotClosedForm,
    RealExpr,
    RealTerm,
    cascade,
    characteristic,
    differentiate,
    equal_mod_homogeneous,
    find_roots,
    multiply,
    normalize,
    oracle_undetermined_coefficients,
    parse_forcing,
    parse_ode,
    particular_solution,
    plan,
    residual_symbolic,
    scale,
    solve_first_order,
    term,
)

from support import (
    ode_from_roots,
    permutations_of,
    random_forcing,
    random_problem,
    random_real_forcing,
    random_root_sequence,
)


def E(*terms):
    return normalize(list(terms))


# ---------------------------------------------------------------------------
# solve_first_order
# ---------------------------------------------------------------------------

def test_stage_repeated_root():
    # phi' - 2 phi = t^3 e^{2t}  ->  phi = e^{2t} t^4 / 4
    phi = solve_first_order(GR(2), E(term(1, 3, 0, 2)))
    assert phi == E(term(Fraction(1, 4), 4, 0, 2))


def test_stage_log_forcing():
    # phi' + 2 phi = e^{-2t} ln t  ->  phi = e^{-2t}(t ln t - t)
    phi = solve_first_order(GR(-2), E(term(1, 0, 1, -2)))
    assert phi == E(term(1, 1, 1, -2), term(-1, 1, 0, -2))


def test_stage_zero_root():
    assert solve_first_order(GR(0), E(term(1))) == E(term(1, 1))


def test_stage_satisfies_its_equation():
    rng = random.Random(13)
    for _ in range(30):
        r = GR(rng.choice([-2, -1, 0, 1, 2]), rng.choice([-1, 0, 1]))
        g = random_forcing(rng, (r,))
        phi = solve_first_order(r, g)
        assert differentiate(phi) - scale(r, phi) == g


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

def test_cascade_repeated_roots_fixture():
    trace = cascade((GR(2), GR(2)), E(term(1, 3, 0, 2)))
    assert trace.y_p == E(term(Fraction(1, 20), 5, 0, 2))


def test_cascade_distinct_roots_realified():
    q = parse_forcing("exp(t)*cos(t)")
    trace = cascade((GR(-2), GR(-3)), q)
    want = RealExpr([
        RealTerm(Fraction(11, 170), 0, 0, Fraction(1), Fraction(1), "cos"),
        RealTerm(Fraction(7, 170), 0, 0, Fraction(1), Fraction(1), "sin"),
    ])
    assert trace.y_p_real == want


def test_cascade_higher_order_oracle_value():
    # roots (1,2,3), q = e^{4t}: ansatz A e^{4t} with p(4) = 3*2*1 = 6
    q = E(term(1, 0, 0, 4))
    trace = cascade((GR(3), GR(2), GR(1)), q)
    assert trace.y_p == E(term(Fraction(1, 6), 0, 0, 4))


def test_cascade_stage_chaining_and_scaling():
    q = E(term(2, 1))
    trace = cascade((GR(1), GR(-1)), q, a_n=2)
    assert trace.stages[0].input == scale(Fraction(1, 2), q)
    for first, second in zip(trace.stages, trace.stages[1:]):
        assert first.output == second.input
    assert trace.leading_coeff == GR(2)


def test_cascade_stage_invariants_random():
    rng = random.Random(4)
    for _ in range(25):
        roots = random_root_sequence(rng)
        q = random_forcing(rng, roots)
        trace = cascade(roots, q)
        for st in trace.stages:
            assert differentiate(st.output) - scale(st.root, st.output) == st.input


def test_cascade_not_closed_form_names_stage():
    q = E(term(1, 0, 1, 2))  # e^{2t} ln t
    with pytest.raises(NotClosedForm) as err:
        cascade((GR(1), GR(0)), q)
    assert err.value.stage == 1
    assert "stage 1" in str(err.value)


def test_cascade_resonance_all_multiplicity_patterns():
    rng = random.Random(99)
    patterns = [
        (GR(2),),
        (GR(2), GR(2)),
        (GR(2), GR(-1)),
        (GR(1), GR(1), GR(1)),
        (GR(0, 1), GR(0, -1)),
        (GR(1, 1), GR(1, -1), GR(1, 1), GR(1, -1)),
        (GR(2), GR(2), GR(0, 2), GR(0, -2)),
        (GR(0), GR(0), GR(0), GR(0)),
    ]
    for roots in patterns:
        for lam in set(roots):
            q = E(term(GR(rng.choice([1, 2, 3])), rng.randint(0, 2), 0, lam))
            trace = cascade(roots, q)
            ode = ode_from_roots(roots, q)
            assert residual_symbolic(ode, trace.y_p).is_zero, (roots, lam)


def test_cascade_order_independence_spot():
    roots = (GR(2), GR(2), GR(-1))
    q = E(term(1, 1, 0, 2), term(3, 0, 0, -1))
    ode = ode_from_roots(roots, q)
    results = []
    for perm in permutations_of(roots):
        trace = cascade(perm, q)
        assert residual_symbolic(ode, trace.y_p).is_zero
        results.append(trace.y_p)
    for other in results[1:]:
        assert equal_mod_homogeneous(ode, results[0], other)


def test_cascade_realness_for_real_problems():
    rng = random.Random(21)
    for _ in range(20):
        roots = random_root_sequence(rng)
        q = random_real_forcing(rng, roots, force_resonance=True)
        trace = cascade(roots, q)
        assert trace.y_p_real is not None, (roots, q)
        ode = ode_from_roots(roots, q)
        assert residual_symbolic(ode, trace.y_p).is_zero


def test_cascade_resonant_complex_pair_is_still_real():
    # y'' + y = cos t: the raw formula output carries a skew homogeneous
    # residue; the symmetrized result must be real and correct
    ode = parse_ode("y'' + y = cos(t)")
    sol, trace = particular_solution(ode)
    assert trace.y_p_real is not None
    expected = E(term(GR(0, Fraction(-1, 4)), 1, 0, GR(0, 1)),
                 term(GR(0, Fraction(1, 4)), 1, 0, GR(0, -1)))  # (t/2) sin t
    assert equal_mod_homogeneous(ode, trace.y_p, expected)


def test_cascade_realness_is_decided_on_the_stage_input():
    # i (D + 1) y = 1: q is real but q/a_n = -i is not, so y_p keeps its
    # complex form, and it solves the equation
    trace = cascade((GR(-1),), parse_forcing("1"), a_n=GR(0, 1))
    assert trace.y_p == E(term(GR(0, -1)))
    assert trace.y_p_real is None
    assert scale(GR(0, 1), differentiate(trace.y_p) + trace.y_p) == parse_forcing("1")
    # (D - i) y = 1: the roots are not closed under conjugation
    trace = cascade((GR(0, 1),), parse_forcing("1"))
    assert trace.y_p == E(term(GR(0, 1)))
    assert trace.y_p_real is None


# ---------------------------------------------------------------------------
# particular_solution
# ---------------------------------------------------------------------------

def test_pipeline_complex_roots_fixture():
    sol, trace = particular_solution(parse_ode("y'' - 2y' + 5y = sin(t)"))
    want = RealExpr([
        RealTerm(Fraction(1, 10), 0, 0, Fraction(0), Fraction(1), "cos"),
        RealTerm(Fraction(1, 5), 0, 0, Fraction(0), Fraction(1), "sin"),
    ])
    assert sol == want


def test_pipeline_log_fixture_with_stage():
    sol, trace = particular_solution(parse_ode("y'' + 4y' + 4y = exp(-2t)*ln(t)"))
    # (1/4) t^2 e^{-2t} (2 ln t - 3)
    want = RealExpr([
        RealTerm(Fraction(-3, 4), 2, 0, Fraction(-2), Fraction(0), "cos"),
        RealTerm(Fraction(1, 2), 2, 1, Fraction(-2), Fraction(0), "cos"),
    ])
    assert sol == want
    assert trace.stages[0].output == E(term(1, 1, 1, -2), term(-1, 1, 0, -2))


def test_pipeline_zero_forcing():
    sol, trace = particular_solution(parse_ode("y'' + y = 0"))
    assert isinstance(sol, RealExpr) and sol.is_zero
    assert trace.y_p.is_zero


def test_pipeline_float_fallback_for_irrational_roots():
    ode = parse_ode("y'' - 2y = exp(t)")  # roots +-sqrt(2)
    sol, trace = particular_solution(ode)
    assert not trace.y_p.is_exact()
    res = residual_symbolic(ode.to_float(), trace.y_p)
    assert res.is_zero and res.status == "zero-within-tolerance"
    # p(1) = 1 - 2 = -1, so y_p = -e^t
    assert trace.y_p.to_float().approx_equal(normalize([term(-1.0, 0, 0, 1.0)]))


@pytest.mark.parametrize("text", ["y'' - 4y' + 4y = t^3*exp(2t)", "y'' - 2y = exp(t)"])
def test_pipeline_trace_carries_roots_and_residual(text):
    ode = parse_ode(text)
    _, trace = particular_solution(ode)
    assert trace.roots == find_roots(characteristic(ode))
    assert trace.residual == residual_symbolic(ode, trace.y_p)
    assert trace.residual.is_zero
    route = plan(ode)  # the equation as given, converted to the stage roots' backend
    eq = route.ode.to_float() if isinstance(route.seq[0], complex) else route.ode
    assert cascade(route.seq, eq.forcing, eq.coeffs[-1]).roots is None


@pytest.mark.parametrize("k", [100, 171])
def test_pipeline_high_degree_stays_exact(k):
    # the stage coefficients reach ~k!, past float range at k = 171
    ode = parse_ode(f"y'' + y = -7/3*t^{k}")
    _, trace = particular_solution(ode)
    assert residual_symbolic(ode, trace.y_p).status == "exact-zero"
    oracle = oracle_undetermined_coefficients(ode, ode.forcing)
    assert equal_mod_homogeneous(ode, trace.y_p, oracle)


def test_pipeline_leading_coefficient_scaling():
    sol, trace = particular_solution(parse_ode("2y'' - 8y' + 8y = t^3*exp(2t)"))
    assert trace.y_p == E(term(Fraction(1, 40), 5, 0, 2))

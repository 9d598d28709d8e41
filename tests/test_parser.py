import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from odecascade import (
    DegreeLimitExceeded,
    Expr,
    GaussianRational as GR,
    NotLinearConstantCoefficient,
    OdeCascadeError,
    ParseError,
    RealExpr,
    RealTerm,
    UnsupportedFunction,
    expr_from_json_terms,
    expr_to_json_terms,
    normalize,
    parse_forcing,
    parse_numeric_function,
    parse_ode,
    realexpr_from_json_terms,
    realexpr_to_json_terms,
    realify,
    render,
    term,
)
from odecascade.parsing import COEFF_BITS_CAP, FORCING_DEGREE_CAP

from support import exprs_strategy, forcing_texts, ode_texts, real_exprs_strategy

HALF = GR(Fraction(1, 2))


def E(*terms):
    return normalize(list(terms))


# ---------------------------------------------------------------------------
# parse_forcing
# ---------------------------------------------------------------------------

def test_parse_exp_cos_euler_expands():
    e = parse_forcing("exp(t)*cos(t)")
    assert e == E(term(HALF, 0, 0, GR(1, 1)), term(HALF, 0, 0, GR(1, -1)))


def test_parse_poly_exp():
    assert parse_forcing("t^3*exp(2t)") == E(term(1, 3, 0, 2))
    assert parse_forcing("t^3*exp(2*t)") == E(term(1, 3, 0, 2))


def test_parse_exp_log():
    assert parse_forcing("exp(-2t)*ln(t)") == E(term(1, 0, 1, -2))


def test_parse_sugar_and_juxtaposition():
    assert parse_forcing("e^(2t)") == parse_forcing("exp(2*t)")
    assert parse_forcing("e^t") == E(term(1, 0, 0, 1))
    assert parse_forcing("5t^2") == E(term(5, 2))
    assert parse_forcing("2.5t") == E(term(Fraction(5, 2), 1))
    assert parse_forcing("1e-2*t") == E(term(Fraction(1, 100), 1))


def test_parse_division_by_literal():
    assert parse_forcing("t^3/4") == E(term(Fraction(1, 4), 3))
    assert parse_forcing("1/10*cos(t) + 1/5*sin(t)") == E(
        term(GR(Fraction(1, 20), Fraction(-1, 10)), 0, 0, GR(0, 1)),
        term(GR(Fraction(1, 20), Fraction(1, 10)), 0, 0, GR(0, -1)),
    )


def test_parse_sin_with_rate():
    e = parse_forcing("sin(2t)")
    i = GR(0, 1)
    want = E(term(GR(1) / (i * 2), 0, 0, GR(0, 2)),
             term(GR(-1) / (i * 2), 0, 0, GR(0, -2)))
    assert e == want


def test_parse_powers_and_sums():
    assert parse_forcing("(t+1)^2") == E(term(1, 2), term(2, 1), term(1, 0))
    assert parse_forcing("ln(t)^3") == E(term(1, 0, 3))
    assert parse_forcing("t^(-2)") == E(term(1, -2))
    assert parse_forcing("0") == Expr.zero()


def test_forcing_size_caps():
    assert parse_forcing(f"t^{FORCING_DEGREE_CAP}") == E(term(1, FORCING_DEGREE_CAP))
    assert parse_forcing(f"2^{COEFF_BITS_CAP // 2}") == E(term(2 ** (COEFF_BITS_CAP // 2)))
    assert parse_forcing("3^4000") == E(term(3 ** 4000))
    assert parse_forcing("t^(-5000)") == E(term(1, -5000))
    for text in (f"t^{FORCING_DEGREE_CAP + 1}", f"2^{COEFF_BITS_CAP // 2 + 1}",
                 "t^3000*t^3000", "t^2000*(t^2000+1)*t", "2^(10^9)", "(t^2+1)^3000"):
        with pytest.raises(DegreeLimitExceeded):
            parse_forcing(text)
    with pytest.raises(DegreeLimitExceeded, match="degree 5000 in t"):
        parse_ode("y' = t^5000")


def test_a_product_of_capped_powers_parses_quickly():
    # each factor has 251 terms, within POWER_TERM_CAP; the product took
    # 11-17 s while multiply worked on GaussianRational term pairs
    start = time.perf_counter()
    e = parse_forcing("sin(t)^250*cos(2t)^250*sin(3t)^250")
    assert time.perf_counter() - start < 1.0
    assert len(e) == 1501


def test_parse_imaginary_literal_extension():
    assert parse_forcing("2*i") == E(term(GR(0, 2)))
    assert parse_forcing("exp((1+2*i)*t)") == E(term(1, 0, 0, GR(1, 2)))


def test_parse_x_as_variable():
    assert parse_forcing("x^2") == E(term(1, 2))
    with pytest.raises(ParseError):
        parse_forcing("x + t")


@settings(max_examples=150, derandomize=True)
@given(forcing_texts())
def test_parsed_forcing_is_exact(text):
    # every literal lowers to a Fraction and i to a GaussianRational, so the
    # parser never produces a float
    try:
        e = parse_forcing(text)
    except OdeCascadeError:
        return
    assert e.is_exact()


@settings(max_examples=150, derandomize=True)
@given(ode_texts())
def test_parsed_ode_is_exact(text):
    try:
        ode = parse_ode(text)
    except OdeCascadeError:
        return
    assert ode.is_exact()


@pytest.mark.parametrize("text, span", [
    ("1/0", (2, 3)), ("t/(1 - 1)", (3, 8)), ("exp((2/0)*t)", (7, 8))])
def test_division_by_zero_is_a_parse_error(text, span):
    with pytest.raises(ParseError, match="division by zero") as err:
        parse_forcing(text)
    assert (err.value.span.start, err.value.span.end) == span


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as err:
        parse_forcing("t + ")
    assert err.value.span is not None
    with pytest.raises(ParseError) as err:
        parse_forcing("t ? 2")
    assert err.value.span.start == 2


def test_unsupported_function_cases():
    with pytest.raises(UnsupportedFunction):
        parse_forcing("tan(t)")
    with pytest.raises(UnsupportedFunction):
        parse_forcing("exp(t^2)")
    with pytest.raises(UnsupportedFunction):
        parse_forcing("ln(2*t)")
    with pytest.raises(UnsupportedFunction):
        parse_forcing("1/t")
    with pytest.raises(UnsupportedFunction):
        parse_forcing("sin(i*t)")
    with pytest.raises(UnsupportedFunction):
        parse_forcing("(t+1)^(-1)")


def test_implicit_multiplication_requires_variable():
    with pytest.raises(ParseError):
        parse_forcing("2exp(t)")
    with pytest.raises(ParseError):
        parse_forcing("t ln(t)")


# ---------------------------------------------------------------------------
# parse_ode
# ---------------------------------------------------------------------------

def test_parse_ode_example_1():
    ode = parse_ode("y'' + 5y' + 6y = exp(t)*cos(t)")
    assert ode.coeffs == (Fraction(6), Fraction(5), Fraction(1))
    assert ode.forcing == parse_forcing("exp(t)*cos(t)")
    assert ode.var == "t"


def test_parse_ode_example_2():
    ode = parse_ode("y'' - 4y' + 4y = t^3*exp(2t)")
    assert ode.coeffs == (Fraction(4), Fraction(-4), Fraction(1))


def test_parse_ode_first_order_zero_forcing():
    ode = parse_ode("y' = 0")
    assert ode.coeffs == (Fraction(0), Fraction(1))
    assert ode.forcing.is_zero


def test_parse_ode_syntax_variants():
    ode = parse_ode("2*y''' - 1/2*y' + 0.25y = t")
    assert ode.coeffs == (Fraction(1, 4), Fraction(-1, 2), Fraction(0), Fraction(2))
    ode2 = parse_ode("y^(4) + y = 0")
    assert ode2.coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    ode3 = parse_ode("-y'' + y = 0")
    assert ode3.coeffs == (Fraction(1), Fraction(0), Fraction(-1))


def test_parse_ode_collects_repeated_orders():
    ode = parse_ode("y'' + y'' + y = 0")
    assert ode.coeffs == (Fraction(1), Fraction(0), Fraction(2))


def test_parse_ode_variable_coefficient_rejected():
    with pytest.raises(NotLinearConstantCoefficient):
        parse_ode("t*y'' + y = 0")
    with pytest.raises(NotLinearConstantCoefficient):
        parse_ode("y'' + x^2*y = 0")


def test_parse_ode_nonlinear_rejected():
    with pytest.raises(NotLinearConstantCoefficient):
        parse_ode("y^2 + y = 0")


def test_parse_ode_equals_sign_errors():
    with pytest.raises(ParseError):
        parse_ode("y'' + y")
    with pytest.raises(ParseError):
        parse_ode("y'' = t = 0")


def test_parse_ode_zero_leading_coefficient():
    with pytest.raises(ParseError):
        parse_ode("0*y'' + y' = t")


def test_parse_ode_order_zero_rejected():
    with pytest.raises(NotLinearConstantCoefficient):
        parse_ode("y = t")


def test_parse_ode_forcing_with_y_rejected():
    with pytest.raises(ParseError):
        parse_ode("y' = y")


def test_linear_ode_validation():
    from odecascade import LinearODE

    with pytest.raises(ValueError):
        LinearODE((Fraction(1),), Expr.zero())          # order 0
    with pytest.raises(ValueError):
        LinearODE((Fraction(1), Fraction(0)), Expr.zero())   # zero leading coeff
    with pytest.raises(ValueError):
        LinearODE((0.0, float("inf")), Expr.zero())
    with pytest.raises(ValueError):
        LinearODE((Fraction(0), Fraction(1)), Expr.zero(), var="u")
    ode = LinearODE((Fraction(0), Fraction(1)), Expr.zero())
    assert ode.order == 1 and ode.is_exact()
    assert not ode.to_float().is_exact()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_latex_repeated_root_fixture():
    e = E(term(Fraction(1, 20), 5, 0, 2))
    assert render(e, "latex") == r"\frac{1}{20}t^5e^{2t}"


def test_render_plain_zero():
    assert render(Expr.zero()) == "0"
    assert render(RealExpr(())) == "0"


def test_render_plain_real_fixture():
    re = RealExpr([
        RealTerm(Fraction(1, 10), 0, 0, Fraction(0), Fraction(1), "cos"),
        RealTerm(Fraction(1, 5), 0, 0, Fraction(0), Fraction(1), "sin"),
    ])
    assert render(re) == "1/10*cos(t) + 1/5*sin(t)"


def test_render_respects_variable():
    e = E(term(2, 1, 1, -1))
    assert render(e, "plain", var="x") == "2*x*ln(x)*exp(-x)"


def test_render_signs():
    e = E(term(-1, 1), term(Fraction(3, 4)))
    assert render(e) == "3/4 - t"


@settings(max_examples=80)
@given(exprs_strategy)
def test_round_trip_plain(e):
    assert parse_forcing(render(e, "plain")) == e


@settings(max_examples=60)
@given(real_exprs_strategy)
def test_round_trip_real_plain(re):
    e = parse_forcing(render(re, "plain"))
    assert realify(e) == re


def test_round_trip_float_mode():
    e = normalize([term(0.1234567890123, 2, 0, complex(1.5, -0.25))])
    back = parse_forcing(render(e, "plain")).to_float()
    assert back.approx_equal(e)


# ---------------------------------------------------------------------------
# json terms
# ---------------------------------------------------------------------------

@given(exprs_strategy)
def test_json_terms_round_trip_exact(e):
    blob = json.dumps(expr_to_json_terms(e))
    assert expr_from_json_terms(json.loads(blob)) == e


def test_json_terms_round_trip_float():
    e = normalize([term(0.5, 1, 0, complex(0, 1)), term(0.5, 1, 0, complex(0, -1))])
    blob = json.dumps(expr_to_json_terms(e))
    assert expr_from_json_terms(json.loads(blob)) == e


@given(real_exprs_strategy)
def test_json_real_terms_round_trip(re):
    blob = json.dumps(realexpr_to_json_terms(re))
    assert realexpr_from_json_terms(json.loads(blob)) == re


def test_render_json_style():
    # render writes text only; the JSON term lists have their own writers
    e = E(term(1, 1))
    with pytest.raises(ValueError, match="unknown style 'json'"):
        render(e, "json")
    with pytest.raises(ValueError, match="unknown style 'json'"):
        render(realify(e), "json")
    assert expr_from_json_terms(json.loads(json.dumps(expr_to_json_terms(e)))) == e


# ---------------------------------------------------------------------------
# numeric lowering
# ---------------------------------------------------------------------------

def test_parse_numeric_function_nonlinear_exp():
    fn, var = parse_numeric_function("exp(x^2/2)")
    assert var == "x"
    import math
    assert fn(0.8) == pytest.approx(math.exp(0.32))


def test_parse_numeric_function_matches_expr_eval():
    fn, _ = parse_numeric_function("2*t - sin(3*t) + exp(-t)")
    e = parse_forcing("2*t - sin(3*t) + exp(-t)")
    from odecascade import evaluate
    for x in (0.0, 0.5, 1.7):
        assert fn(x) == pytest.approx(evaluate(e, x).real)


def test_parse_numeric_function_rejects_unknown():
    with pytest.raises(UnsupportedFunction):
        parse_numeric_function("sinh(x)")

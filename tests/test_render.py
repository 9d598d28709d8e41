"""Pinned plain and LaTeX text for every rendering branch.

Each expected string is the renderer's output before the plain/LaTeX term
formatters were merged, so any change of printed text shows up here: powers
of t (1, negative, two digits), logarithms, rates 1, -1, 1/2 and complex,
unit, negative, Gaussian and float coefficients, cos/sin with beta = 1 and
beta != 1, zero, stage traces, and the CLI's characteristic polynomial.
"""

import json
import sys
from fractions import Fraction as F

import pytest

from odecascade import (
    Expr,
    GaussianRational as GR,
    OverflowGuard,
    RealExpr,
    RealTerm,
    expr_to_json_terms,
    normalize,
    parse_ode,
    particular_solution,
    render,
    term,
)
from odecascade.cli import _poly_str
from odecascade.parsing import _digit_limit

EXPR_CASES = [
    (term(1, 1), "t", "t"),
    (term(1, -2), "t^(-2)", "t^{-2}"),
    (term(1, 10), "t^10", "t^{10}"),
    (term(1, 0, 1), "ln(t)", r"\ln(t)"),
    (term(1, 0, 2), "ln(t)^2", r"\ln^2(t)"),
    (term(1, 0, 0, 1), "exp(t)", "e^t"),
    (term(1, 0, 0, -1), "exp(-t)", "e^{-t}"),
    (term(1, 0, 0, F(1, 2)), "exp(1/2*t)", r"e^{\frac{1}{2}t}"),
    (term(1, 0, 0, GR(2, 3)), "exp((2+3*i)*t)", "e^{(2+3i)t}"),
    (term(1, 1, 0, GR(0, -1)), "t*exp(-i*t)", "te^{-it}"),
    (term(-1, 1), "-t", "-t"),
    (term(F(-1, 2), 2, 1, -1), "-1/2*t^2*ln(t)*exp(-t)", r"-\frac{1}{2}t^2\ln(t)e^{-t}"),
    (term(GR(F(1, 2), 3), 1, 0, GR(2, 3)), "(1/2+3*i)*t*exp((2+3*i)*t)",
     r"(\frac{1}{2}+3i)te^{(2+3i)t}"),
    (term(GR(0, -1), 1), "-i*t", "-it"),
    (term(GR(0, 1), 0, 0, 1), "i*exp(t)", "ie^t"),
    (term(GR(0, 3), 2), "3*i*t^2", "3it^2"),
    (term(GR(2, -1), 0, 1), "(2-i)*ln(t)", r"(2-i)\ln(t)"),
    (term(GR(F(-2, 3), F(-5, 7)), 1, 0, F(-1, 2)), "(-2/3-5/7*i)*t*exp(-1/2*t)",
     r"(-\frac{2}{3}-\frac{5}{7}i)te^{-\frac{1}{2}t}"),
    (term(F(3, 4)), "3/4", r"\frac{3}{4}"),
    (term(-1), "-1", "-1"),
    (term(GR(0, -1)), "-i", "-i"),
    (term(GR(1, 1)), "(1+i)", "(1+i)"),
    (term(0.5, 1), "0.5*t", "0.5t"),
    (term(-0.25), "-0.25", "-0.25"),
    (term(1.0, 3, 0, -1.0), "t^3*exp(-t)", "t^3e^{-t}"),
    (term(complex(0.5, -1.5), 1, 0, complex(-1, 2)), "(0.5-1.5*i)*t*exp((-1.0+2.0*i)*t)",
     "(0.5-1.5i)te^{(-1.0+2.0i)t}"),
    (term(2.5j, 0), "2.5*i", "(0.0+2.5i)"),
    (term(-3.0, 12, 2, 1.5j), "-3.0*t^12*ln(t)^2*exp(1.5*i*t)",
     r"-3.0t^{12}\ln^2(t)e^{(0.0+1.5i)t}"),
]

REAL_CASES = [
    (RealTerm(F(-1, 2), 1, 0, F(0), F(1), "cos"), "-1/2*t*cos(t)", r"-\frac{1}{2}t\cos t"),
    (RealTerm(F(1, 3), 0, 2, F(-1), F(2), "sin"), "1/3*ln(t)^2*exp(-t)*sin(2*t)",
     r"\frac{1}{3}\ln^2(t)e^{-t}\sin(2t)"),
    (RealTerm(F(1), -2, 1, F(1, 2), F(1, 2), "cos"), "t^(-2)*ln(t)*exp(1/2*t)*cos(1/2*t)",
     r"t^{-2}\ln(t)e^{\frac{1}{2}t}\cos(\frac{1}{2}t)"),
    (RealTerm(-0.75, 10, 0, -1.0, 2.5, "sin"), "-0.75*t^10*exp(-t)*sin(2.5*t)",
     r"-0.75t^{10}e^{-t}\sin(2.5t)"),
    (RealTerm(1.0, 0, 0, 0.5, 1.0, "cos"), "exp(0.5*t)*cos(t)", r"e^{0.5t}\cos t"),
    (RealTerm(-1.0, 1, 1, 1.0, 0.0, "cos"), "-t*ln(t)*exp(t)", r"-t\ln(t)e^t"),
    (RealTerm(F(2)), "2", "2"),
    (RealTerm(F(-3, 5)), "-3/5", r"-\frac{3}{5}"),
    (RealTerm(-2, 0, 0, F(0), F(3), "sin"), "-2*sin(3*t)", r"-2\sin(3t)"),
    (RealTerm(F(-1), 1, 0, F(-1)), "-t*exp(-t)", "-te^{-t}"),
    (RealTerm(F(7), 0, 1, F(1), F(1), "sin"), "7*ln(t)*exp(t)*sin(t)", r"7\ln(t)e^t\sin t"),
]

POLY_CASES = [
    ((F(6), F(-5), F(1)), "r^2 - 5*r + 6"),
    ((F(1, 2), F(0), F(-3, 4), F(-1)), "-r^3 - 3/4*r^2 + 1/2"),
    ((F(0), F(-1), F(0), F(1)), "r^3 - r"),
    ((6.0, -5.0, 1.0), "r^2 - 5.0*r + 6.0"),
    ((-1.0, 0.0, 2.5, 1.0), "r^3 + 2.5*r^2 - 1.0"),
    ((0.1, -1.0, 0.0, -0.3333333333333333), "-0.3333333333333333*r^3 - r + 0.1"),
]

TRACE_CASES = [
    ("y'' + 2y' + 5y = t*exp(-t)",
     "stage 1: solve phi' - ((-1+2*i))*phi = t*exp(-t)\n"
     "         phi = 1/4*exp(-t) + 1/2*i*t*exp(-t)\n"
     "stage 2: solve phi' - ((-1-2*i))*phi = 1/4*exp(-t) + 1/2*i*t*exp(-t)\n"
     "         phi = 1/4*t*exp(-t)\n"
     "y_p = 1/4*t*exp(-t)",
     "stage 1: solve phi' - ((-1+2i))*phi = te^{-t}\n"
     "         phi = \\frac{1}{4}e^{-t} + \\frac{1}{2}ite^{-t}\n"
     "stage 2: solve phi' - ((-1-2i))*phi = \\frac{1}{4}e^{-t} + \\frac{1}{2}ite^{-t}\n"
     "         phi = \\frac{1}{4}te^{-t}\n"
     "y_p = \\frac{1}{4}te^{-t}"),
    ("y'' + y' + y = 3*t",
     "stage 1: solve phi' - ((-0.5+0.8660254037844387*i))*phi = 3.0*t\n"
     "         phi = (1.5000000000000002-2.598076211353316*i) + (1.5+2.598076211353316*i)*t\n"
     "stage 2: solve phi' - ((-0.5-0.8660254037844387*i))*phi = "
     "(1.5000000000000002-2.598076211353316*i) + (1.5+2.598076211353316*i)*t\n"
     "         phi = -3.0 + 3.0*t\n"
     "y_p = -3.0 + 3.0*t",
     "stage 1: solve phi' - ((-0.5+0.8660254037844387i))*phi = 3.0t\n"
     "         phi = (1.5000000000000002-2.598076211353316i) + (1.5+2.598076211353316i)t\n"
     "stage 2: solve phi' - ((-0.5-0.8660254037844387i))*phi = "
     "(1.5000000000000002-2.598076211353316i) + (1.5+2.598076211353316i)t\n"
     "         phi = -3.0 + 3.0t\n"
     "y_p = -3.0 + 3.0t"),
]


@pytest.mark.parametrize("t, plain, latex", EXPR_CASES)
def test_render_expr_term(t, plain, latex):
    e = normalize([t])
    assert render(e) == plain
    assert render(e, "latex") == latex


@pytest.mark.parametrize("t, plain, latex", REAL_CASES)
def test_render_real_term(t, plain, latex):
    e = RealExpr([t])
    assert render(e) == plain
    assert render(e, "latex") == latex


def test_render_expr_sum_in_x():
    e = normalize([t for t, _, _ in EXPR_CASES[:12]])
    assert render(e, "plain", "x") == (
        "exp(-x) - 1/2*x^2*ln(x)*exp(-x) + x*exp(-i*x) + x^(-2) + ln(x) + ln(x)^2"
        " + x^10 + exp(1/2*x) + exp(x) + exp((2+3*i)*x)")
    assert render(e, "latex", "x") == (
        r"e^{-x} - \frac{1}{2}x^2\ln(x)e^{-x} + xe^{-ix} + x^{-2} + \ln(x) + \ln^2(x)"
        r" + x^{10} + e^{\frac{1}{2}x} + e^x + e^{(2+3i)x}")


def test_render_real_sum():
    e = RealExpr([t for t, _, _ in REAL_CASES if isinstance(t.coeff, (int, F))])
    assert render(e) == (
        "-t*exp(-t) + 1/3*ln(t)^2*exp(-t)*sin(2*t) + 7/5 - 1/2*t*cos(t) - 2*sin(3*t)"
        " + t^(-2)*ln(t)*exp(1/2*t)*cos(1/2*t) + 7*ln(t)*exp(t)*sin(t)")
    assert render(e, "latex") == (
        r"-te^{-t} + \frac{1}{3}\ln^2(t)e^{-t}\sin(2t) + \frac{7}{5} - \frac{1}{2}t\cos t"
        r" - 2\sin(3t) + t^{-2}\ln(t)e^{\frac{1}{2}t}\cos(\frac{1}{2}t) + 7\ln(t)e^t\sin t")


def test_render_zero():
    for zero in (Expr.zero(), RealExpr(())):
        assert render(zero) == "0"
        assert render(zero, "latex") == "0"


@pytest.mark.parametrize("text, plain, latex", TRACE_CASES)
def test_render_trace(text, plain, latex):
    _, trace = particular_solution(parse_ode(text))
    assert render(trace) == plain
    assert render(trace, "latex") == latex


@pytest.mark.parametrize("coeffs, text", POLY_CASES)
def test_characteristic_polynomial_text(coeffs, text):
    assert _poly_str(coeffs) == text


#: the writer of each output format
_WRITERS = {
    "plain": lambda e: render(e, "plain"),
    "latex": lambda e: render(e, "latex"),
    "json": lambda e: json.dumps(expr_to_json_terms(e)),
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("style", ["plain", "latex", "json"])
def test_render_too_many_digits_is_overflow_guard(style):
    # the CLI writes its JSON under the guard that render applies itself
    e = normalize([term(F(1, 7 ** 6000), 1)])
    with pytest.raises(OverflowGuard), _digit_limit():
        _WRITERS[style](e)

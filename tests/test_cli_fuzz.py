"""Every CLI input ends in an answer or in one ``error:`` line with a
documented exit code, never in a traceback.

Inputs are grammar-shaped (``docs/grammar.ebnf``) or random text.  Sizes
are bounded so every example runs in milliseconds: exponents at most 6,
derivative order at most 4 in grammar-shaped text (or 10^8, which the
parser's order cap refuses before any work), ``--points`` at most 5, no
``^`` in random text and no decimal exponent past four digits.  The
equation coefficients include 963761198400, which a divisor search over its
6,720 divisors could not finish in seconds.  Sizes past the other caps
(``t^200000``, ``ln(t)^20000``, powers of sums) are pinned by the
regressions below.
"""

import re
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from support import forcing_texts, ode_texts, run_cli

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}

#: grammar characters and a few that are not ASCII (a superscript and an
#: Arabic-Indic digit pass ``str.isdigit``); no "^"
_ALPHABET = "yytxei0123456789.+-*/()=' sincoexpl²٣é"


def _random_text():
    text = st.text(alphabet=_ALPHABET, max_size=24)
    return text.filter(lambda s: "**" not in s
                       and not re.search(r"[eE][+-]?\d{5}", s))


def _ode_arg():
    return st.one_of(ode_texts(), _random_text())


_floats = st.sampled_from(["0", "0.5", "1", "2", "-1", "-0.5", "1e-3", "inf",
                           "-inf", "nan"])


# Options go first and "--" ends them, so text starting with "-" stays an
# argument.

def _solve_args():
    flags = st.lists(st.sampled_from(["--json", "--latex", "--steps", "--exact",
                                      "--float"]), max_size=3, unique=True)
    return st.builds(lambda ode, fl: ["solve", *fl, "--", ode], _ode_arg(), flags)


def _roots_args():
    return st.builds(lambda ode, fl: ["roots", *fl, "--", ode], _ode_arg(),
                     st.sampled_from([[], ["--json"]]))


def _verify_args():
    candidate = st.one_of(forcing_texts(), _random_text())
    return st.builds(lambda ode, y, fl: ["verify", *fl, "--", ode, y], _ode_arg(),
                     candidate, st.sampled_from([[], ["--json"]]))


def _eval_args():
    return st.builds(
        lambda ode, a, b, n: ["eval", "--from", a, "--to", b, "--points", str(n),
                              "--", ode],
        _ode_arg(), _floats, _floats, st.integers(-1, 5))


_numeric_forcings = st.one_of(
    forcing_texts("x"),
    st.sampled_from(["exp(x^2/2)", "1/x", "x^(1/2)", "ln(x)", "exp(1000*x)",
                     "sin(x)/x", "1e5000", "0^(-1)"]),
    _random_text(),
)


def _varcoef_args():
    return st.builds(
        lambda a, n, q, x0, x1, h: ["varcoef", "--x0", x0, "--x1", x1, "--step", h,
                                    "--", a, str(n), q],
        st.sampled_from(["1.0", "0", "-2", "0.5", "nan"]),
        st.integers(-1, 3),
        _numeric_forcings,
        st.sampled_from(["0", "-1", "0.5", "-inf", "nan"]),
        st.sampled_from(["1", "2", "0.5", "inf", "-1"]),
        # at most ~60 march steps on these domains
        st.sampled_from(["0.05", "0.1", "0.25", "0", "-0.1", "nan", "inf"]),
    )


def _assert_clean(args):
    result = run_cli(args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exc_info)
    assert result.exit_code in DOCUMENTED_EXIT_CODES, (args, result.exit_code)
    assert "Traceback" not in result.stdout
    assert "Traceback" not in result.stderr
    if result.stderr.startswith("error:"):
        assert len(result.stderr.splitlines()) == 1
    return result


_FUZZ = settings(derandomize=True, max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])


@pytest.mark.parametrize("command", ["solve", "roots", "verify", "eval", "varcoef"])
def test_cli_fuzz(command):
    strategy = {"solve": _solve_args, "roots": _roots_args, "verify": _verify_args,
                "eval": _eval_args, "varcoef": _varcoef_args}[command]()

    @_FUZZ
    @given(strategy)
    def run(args):
        _assert_clean(args)

    run()


# ---------------------------------------------------------------------------
# regressions: each of these ended in a traceback or a misleading message
# ---------------------------------------------------------------------------

_BIG_INT = "7" * 5000

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python has no int-to-str digit limit")


def _case(name, args, code, message=None, seconds=None, **kw):
    return pytest.param(args, code, message, seconds, id=name, **kw)


@pytest.mark.parametrize("args, code, message, seconds", [
    # exact roots past the double range
    _case("solve-huge-root", ["solve", "y' - 1e400y = 1"], 0),
    _case("solve-json-huge-root", ["solve", "y' - 1e400y = 1", "--json"], 1,
          "error: result too large to print: a value is beyond the range of a "
          "JSON float"),
    _case("roots-huge-root", ["roots", "y' + 1e5000y = 0"], 1,
          "error: result too large to print", marks=needs_digit_limit),
    _case("roots-json-huge-root", ["roots", "y' + 1e5000y = 0", "--json"], 1,
          "error: result too large to print"),
    # a residual too large to print
    _case("verify-huge-residual", ["verify", "y' + y = 1", "1e5000"], 1,
          "error: result too large to print", marks=needs_digit_limit),
    # division by a zero literal, either side of the equation
    _case("lhs-division-by-zero", ["solve", "1/0y' + y = 1"], 2,
          "error: division by zero at 2..3"),
    _case("rhs-division-by-zero", ["solve", "y' + y = 1/0"], 2,
          "error: division by zero at 11..12"),
    # a literal Python will not read
    _case("verify-5000-digits", ["verify", "y' + y = 1", _BIG_INT], 2,
          "error: cannot read number", marks=needs_digit_limit),
    _case("varcoef-5000-digits", ["varcoef", "1.0", "1", _BIG_INT], 2,
          "error: cannot read number", marks=needs_digit_limit),
    _case("verify-superscript-digit", ["verify", "y' + y = 1", "²"], 2,
          "error: cannot read number"),
    _case("varcoef-literal-past-double", ["varcoef", "1.0", "1", "1e5000"], 2,
          "error: number is beyond double range at 0..6"),
    # the varcoef forcing failing at a grid point
    _case("varcoef-division-by-zero", ["varcoef", "1.0", "1", "1/x"], 1,
          "error: forcing is undefined at x=0.0"),
    _case("varcoef-overflow", ["varcoef", "1.0", "1", "exp(1000*x)"], 1,
          "error: forcing overflows at x="),
    _case("varcoef-complex-value", ["varcoef", "1.0", "1", "x^(1/2)", "--x0", "-1"], 1,
          "error: forcing is undefined at x=-1.0"),
    _case("varcoef-log-of-zero", ["varcoef", "1.0", "1", "ln(x)"], 1,
          "error: forcing is undefined at x=0.0: math domain error"),
    _case("varcoef-infinite-domain", ["varcoef", "0", "0", "1", "--x1", "inf"], 1,
          "error: need a finite domain"),
    # coefficients with no double value on the float path
    _case("float-coefficient-overflow", ["solve", "y' + y = 1e400", "--float"], 1,
          "error: a coefficient is beyond double range"),
    _case("float-leading-underflow", ["solve", "1e-400y' + y = 1", "--float"], 1,
          "error: the leading coefficient underflows to zero as a float"),
    _case("float-roots-overflow", ["solve", "y + 1e400y''' = 0"], 1,
          "error: a characteristic coefficient has no double value"),
    # a coefficient ratio that overflows the numeric root iteration
    _case("numeric-roots-overflow", ["roots", "y^(12) + 1e30y = 0"], 1,
          "error: numeric root finding left double range"),
    _case("numeric-roots-overflow-float", ["solve", "--float", "y^(12) + 1e30y = 0"], 1,
          "error: numeric root finding left double range"),
    # eval at an infinite t
    _case("eval-sine-at-infinity",
          ["eval", "y' = sin(t)", "--from", "0", "--to", "inf", "--points", "2"], 1,
          "error: value at t=inf is undefined"),
    # a power whose expansion has no bound on its work, refused before it starts
    _case("power-term-cap", ["solve", "y' + y = (exp(t)+sin(t))^64"], 1,
          "error: power ^64 of a 3-term expression may have 2145 terms", seconds=1.0),
    # single-term powers that took 9-14 s and 1-2 GB before failing
    _case("power-bits-cap", ["solve", "y' + y = 2^(10^9)"], 1,
          "error: power ^1000000000 may have coefficients of 2000000000 bits",
          seconds=1.0),
    _case("power-degree-cap", ["solve", "y' + y = t^20000"], 1,
          "error: power ^20000 has degree 20000 in t, more than the cap of 4000",
          seconds=1.0),
    _case("forcing-degree-cap", ["solve", "y' + y = t^3000*t^3000"], 1,
          "error: the forcing has degree 6000 in t", seconds=1.0),
    # a log power that ran 11.7 s into a MemoryError; at a nonzero rate it exited 3
    _case("log-power-cap", ["solve", "y' = ln(t)^20000"], 1,
          "error: power ^20000 has degree 20000 in t and ln(t)", seconds=1.0),
    _case("log-power-cap-nonzero-rate", ["solve", "y' + y = ln(t)^20000"], 1,
          "error: power ^20000 has degree 20000 in t and ln(t)", seconds=1.0),
])
def test_cli_regression(args, code, message, seconds):
    start = time.perf_counter()
    result = _assert_clean(args)
    if seconds is not None:
        assert time.perf_counter() - start < seconds
    assert result.exit_code == code, result.stderr
    if message is None:
        assert "residual:       exact-zero" in result.stdout
        return
    assert result.stdout == ""
    assert result.stderr.startswith(message)
    assert len(result.stderr.splitlines()) == 1

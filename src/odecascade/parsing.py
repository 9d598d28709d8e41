"""Text input and output: forcing expressions, whole ODEs, rendering.

The grammar (shipped in docs/grammar.ebnf) covers sums, differences and
products of rational and decimal literals, the variable (t or x), integer
powers via ^, exp(c*t) and the e^(c*t) sugar, sin(b*t) and cos(b*t) with real
b, and ln(t) with integer powers.  Trigonometric input is Euler-expanded
immediately, so everything lands in the complex-exponential algebra.

Two extensions beyond that core make rendering round-trip on every
expression the solver can produce: the imaginary unit ``i`` is a literal,
and exp arguments may be complex-linear, e.g. exp((1+2*i)*t).

Division is only by numeric literals; explicit ``*`` is required except
between a literal and a power of the variable ("5t", "2t^3").
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

from .algebra import (
    COS,
    Expr,
    RealExpr,
    RealTerm,
    Term,
    _one_term,
    multiply,
    normalize,
    scale,
)
from .solver import CascadeTrace
from .errors import (
    DegreeLimitExceeded,
    NotLinearConstantCoefficient,
    OverflowGuard,
    ParseError,
    UnsupportedFunction,
)
from .model import LinearODE
from .roots import ORDER_CAP
from .scalars import GaussianRational

_FUNCTIONS = ("exp", "sin", "cos", "ln")
_VARIABLES = ("t", "x")

_ONE = GaussianRational(1)
_I = GaussianRational(0, 1)
_HALF = GaussianRational(Fraction(1, 2))
_HALF_I = GaussianRational(0, Fraction(1, 2))

#: Most terms an integer power of a sum may have (bounded before lowering it,
#: see :func:`_power_terms_bound`).  Squaring cost grows with the square of
#: the term count times the coefficient size: (exp(t)+sin(t))^24 (325 terms)
#: lowers in about 13 ms, (t+1)^399 in about 55 ms, and (exp(t)+sin(t))^64
#: (2,145 terms) would take about 0.25 s (Python 3.11, a shared 2-CPU host).
POWER_TERM_CAP = 400

#: Caps on the size of a forcing, checked on each power before any multiply
#: and once on the finished forcing (see :func:`_check_size`): the most bits
#: of any numerator or denominator of a coefficient part, and the highest
#: power of t plus power of ln(t) of one term.  3^4000 (6,340 bits) and
#: t^1000 solve in well under a second; 2^(10^9), t^20000 and ln(t)^20000
#: would take 1-2 GB before failing.
COEFF_BITS_CAP = 65536
FORCING_DEGREE_CAP = 4000


class SourceSpan(namedtuple("SourceSpan", "start end")):
    """Half-open byte range [start, end) into the input text."""

    __slots__ = ()

    def __new__(cls, start, end):
        if start > end:
            raise ValueError("span start must not exceed end")
        return super().__new__(cls, start, end)


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

class _Token(namedtuple("_Token", "kind text start end")):  # kind: NUM, NAME, OP, END
    __slots__ = ()

    @property
    def span(self):
        return SourceSpan(self.start, self.end)


_OPS = set("+-*/^()='")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            # scientific part only when 'e' is followed by digits
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(_Token("NUM", text[i:j], i, j))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], i, j))
            i = j
            continue
        if ch == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(_Token("OP", "^", i, i + 2))
            i += 2
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, i, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(i, i + 1))
    tokens.append(_Token("END", "", n, n))
    return tokens


def _number(tok: _Token) -> Fraction:
    """The exact value of a NUM token.

    Its size is bounded from the text before it is read: a literal of more
    than :data:`COEFF_BITS_CAP` bits, counted as (mantissa digits +
    |exponent|) * log2(10), raises :class:`DegreeLimitExceeded`, since
    ``Fraction("1e10000000")`` alone takes seconds.
    """
    text = tok.text
    mantissa, _, exponent = text.lower().partition("e")
    try:  # an exponent int() refuses ("²") is left for Fraction to name
        exp = int(exponent) if exponent.lstrip("+-").isdecimal() else 0
        bits = (len(mantissa) - ("." in mantissa) + abs(exp)) * math.log2(10)
        if bits <= COEFF_BITS_CAP:
            return Fraction(int(text)) if text.isascii() and text.isdigit() else Fraction(text)
    except ValueError as exc:  # a digit int() refuses ("²"), or past the str-to-int limit
        raise ParseError(f"cannot read number: {exc}", tok.span) from exc
    raise DegreeLimitExceeded(
        f"the number at {tok.start}..{tok.end} may have {bits:.0f} bits, "
        f"more than the cap of {COEFF_BITS_CAP}")


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------

_Num = namedtuple("_Num", "value span")
_Name = namedtuple("_Name", "ident span")
_Unary = namedtuple("_Unary", "op operand span")
_Bin = namedtuple("_Bin", "op left right span")
_Pow = namedtuple("_Pow", "base power span")
_Call = namedtuple("_Call", "func arg span")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == text:
            return self.take()
        raise ParseError(f"expected {text!r}", tok.span)

    def at_op(self, *texts) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in texts

    def parse_expr(self):
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            node = _Bin(op.text, node, rhs, SourceSpan(node.span.start, rhs.span.end))
        return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            if self.at_op("*", "/"):
                op = self.take()
                rhs = self.parse_factor()
                node = _Bin(op.text, node, rhs, SourceSpan(node.span.start, rhs.span.end))
            else:
                break
        return node

    def parse_factor(self):
        if self.at_op("+", "-"):
            op = self.take()
            operand = self.parse_factor()
            return _Unary(op.text, operand, SourceSpan(op.start, operand.span.end))
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        if self.at_op("^"):
            self.take()
            power = self.parse_exponent()
            return _Pow(base, power, SourceSpan(base.span.start, power.span.end))
        return base

    def parse_exponent(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            return _Num(_number(tok), tok.span)
        if self.at_op("-"):
            minus = self.take()
            num = self.peek()
            if num.kind == "NUM":
                self.take()
                return _Num(-_number(num), SourceSpan(minus.start, num.end))
            raise ParseError("expected a number after '-' in exponent", num.span)
        if self.at_op("("):
            self.take()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError("expected an integer exponent", tok.span)

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            node = _Num(_number(tok), tok.span)
            # juxtaposition: literal immediately followed by a variable power
            nxt = self.peek()
            if nxt.kind == "NAME" and nxt.text in _VARIABLES:
                rhs = self.parse_power()
                return _Bin("*", node, rhs, SourceSpan(node.span.start, rhs.span.end))
            return node
        if tok.kind == "NAME":
            self.take()
            if tok.text == "e":
                caret = self.peek()
                if not (caret.kind == "OP" and caret.text == "^"):
                    raise ParseError("expected '^' after 'e'", caret.span)
                self.take()
                arg = self.parse_e_argument()
                return _Call("exp", arg, SourceSpan(tok.start, arg.span.end))
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                self.take()
                arg = self.parse_expr()
                closing = self.expect(")")
                return _Call(tok.text, arg, SourceSpan(tok.start, closing.end))
            return _Name(tok.text, tok.span)
        if self.at_op("("):
            self.take()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError("expected a number, name or '('", tok.span)

    def parse_e_argument(self):
        tok = self.peek()
        if tok.kind == "NAME" and tok.text in _VARIABLES:
            self.take()
            return _Name(tok.text, tok.span)
        if self.at_op("("):
            self.take()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError("expected a variable or '(' after 'e^'", tok.span)


# ---------------------------------------------------------------------------
# lowering to the algebra
# ---------------------------------------------------------------------------

def _int_const(node, variables: set) -> int:
    e = _lower(node, variables)
    if e.is_zero:
        return 0
    if len(e.terms) == 1:
        t = e.terms[0]
        if t.tpow == 0 and t.logpow == 0 and not t.exponent:
            c = t.coeff
            if not c.im and c.re.denominator == 1:
                return int(c.re)
    raise ParseError("exponent must be an integer constant", node.span)


def _single_term(e: Expr):
    if len(e.terms) == 1:
        return e.terms[0]
    return None


def _linear_coefficient(arg_expr: Expr):
    """Return c when arg_expr is exactly c*t, else None (zero counts as c=0)."""
    if arg_expr.is_zero:
        return GaussianRational(0)
    t = _single_term(arg_expr)
    if t is not None and t.tpow == 1 and t.logpow == 0 and not t.exponent:
        return t.coeff
    return None


def _lower(node, variables: set) -> Expr:
    """The Expr of a syntax tree; adds each variable it meets to ``variables``."""
    if isinstance(node, _Num):
        return _one_term(GaussianRational(node.value)) if node.value else Expr.zero()
    if isinstance(node, _Name):
        if node.ident in _VARIABLES:
            variables.add(node.ident)
            return _one_term(_ONE, 1)
        if node.ident == "i":
            return _one_term(_I)
        raise UnsupportedFunction(f"unknown name {node.ident!r}", node.span)
    if isinstance(node, _Unary):
        inner = _lower(node.operand, variables)
        return -inner if node.op == "-" else inner
    if isinstance(node, _Bin):
        left = _lower(node.left, variables)
        right = _lower(node.right, variables)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return multiply(left, right)
        if node.op == "/":
            if right.is_zero:
                raise ParseError("division by zero", node.right.span)
            divisor = _single_term(right)
            if divisor is None or divisor.tpow or divisor.logpow or divisor.exponent:
                raise UnsupportedFunction(
                    "division is only supported by a numeric constant", node.right.span
                )
            return scale(GaussianRational(1) / divisor.coeff, left)
        raise ParseError(f"unknown operator {node.op!r}", node.span)
    if isinstance(node, _Pow):
        n = _int_const(node.power, variables)
        base = _lower(node.base, variables)
        if n < 0:
            if base.is_zero:
                raise ParseError("division by zero", node.base.span)
            t = _single_term(base)
            if t is None or t.logpow:
                raise UnsupportedFunction(
                    "negative powers need a single log-free factor", node.span
                )
            base, n = _one_term(t.coeff ** -1, -t.tpow, 0, -t.exponent), -n
        return _power(base, n)
    if isinstance(node, _Call):
        return _lower_call(node, variables)
    raise ParseError("malformed expression", getattr(node, "span", None))


def _power_terms_bound(base: Expr, n: int) -> int:
    """An upper bound on the number of terms of base^n: C(n+k-1, k-1) for a
    k-term base (the monomials of the multinomial expansion), or less when
    the key coordinates tpow, logpow, Re lam and Im lam each take few sums:
    n-fold sums of values in [lo, hi] on a grid of step g take at most
    n*(hi - lo)/g + 1 values, so (1+t+t^2)^n has at most 2n+1 terms."""
    k = len(base.terms)
    if k <= 1:
        return 1
    sums = 1
    for values in zip(*((t.tpow, t.logpow, t.exponent.real, t.exponent.imag)
                        for t in base.terms)):
        lo = min(values)
        den = math.lcm(*[Fraction(v).denominator for v in values])
        steps = [int((v - lo) * den) for v in values]
        if max(steps):
            sums *= n * max(steps) // math.gcd(*steps) + 1
    return min(sums, math.comb(n + k - 1, k - 1))


def _power(base: Expr, n: int) -> Expr:
    """base^n for n >= 0 by repeated squaring: the same canonical Expr as n
    multiplies, because lowering is exact.  Raises
    :class:`DegreeLimitExceeded`, before any multiply, when base^n may have
    more than :data:`POWER_TERM_CAP` terms or break a :func:`_check_size` cap."""
    _check_size(base, n)
    bound = _power_terms_bound(base, n)
    if bound > POWER_TERM_CAP:
        raise DegreeLimitExceeded(
            f"power ^{n} of a {len(base.terms)}-term expression may have {bound} "
            f"terms, more than the cap of {POWER_TERM_CAP}")
    if len(base.terms) == 1:
        c, k, m, lam = base.terms[0]
        return _one_term(c ** n, n * k, n * m, n * lam)
    out, square = _one_term(_ONE), base
    while n:  # square = base^(2^i) at bit i of the original n
        if n & 1:
            out = multiply(out, square)
        n >>= 1
        if n:
            square = multiply(square, square)
    return out


def _check_size(e: Expr, n: int = 1) -> None:
    """Raise :class:`DegreeLimitExceeded` when e^n may break a cap: n times
    the largest numerator or denominator bit length of a coefficient part
    above :data:`COEFF_BITS_CAP`, or n times the largest tpow + logpow of a
    term above :data:`FORCING_DEGREE_CAP`."""
    what = "the forcing" if n == 1 else f"power ^{n}"
    bits = max((p.bit_length() for t in e.terms for part in (t.coeff.re, t.coeff.im)
                for p in (part.numerator, part.denominator)), default=0)
    if n * bits > COEFF_BITS_CAP:
        raise DegreeLimitExceeded(
            f"{what} may have coefficients of {n * bits} bits, "
            f"more than the cap of {COEFF_BITS_CAP}")
    degree = max((t.tpow + t.logpow for t in e.terms), default=0)
    if n * degree > FORCING_DEGREE_CAP:
        logs = " and ln(t)" if any(t.logpow for t in e.terms) else ""
        raise DegreeLimitExceeded(
            f"{what} has degree {n * degree} in t{logs}, "
            f"more than the cap of {FORCING_DEGREE_CAP}")


def _lower_call(node: _Call, variables: set) -> Expr:
    if node.func not in _FUNCTIONS:
        raise UnsupportedFunction(
            f"function {node.func!r} is not supported (use exp, sin, cos, ln)",
            node.span,
        )
    arg = _lower(node.arg, variables)
    if node.func == "exp":
        c = _linear_coefficient(arg)
        if c is None:
            raise UnsupportedFunction(
                "exp argument must be linear in the variable (c*t)", node.arg.span
            )
        return _one_term(_ONE, 0, 0, c)
    if node.func in ("sin", "cos"):
        b = _linear_coefficient(arg)
        if b is None or b.im:
            raise UnsupportedFunction(
                f"{node.func} argument must be b*t with real b", node.arg.span
            )
        # Euler: lo at rate -ib, hi at ib, which is canonical order for b > 0
        lo, hi = (_HALF, _HALF) if node.func == "cos" else (_HALF_I, -_HALF_I)
        terms = (Term(lo, 0, 0, -(_I * b)), Term(hi, 0, 0, _I * b))
        return Expr(terms, _canonical=True) if b.re > 0 else normalize(terms)
    # ln
    t = _single_term(arg)
    if t is None or not (
        t.tpow == 1 and t.logpow == 0 and not t.exponent and t.coeff == 1
    ):
        raise UnsupportedFunction("ln argument must be the bare variable", node.arg.span)
    return _one_term(_ONE, 0, 1)


def _parse_ast(tokens: list[_Token]):
    parser = _Parser(tokens)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise ParseError("unexpected trailing input", trailing.span)
    return node


def parse_forcing(text: str) -> Expr:
    """Parse a forcing-function expression into a canonical Expr."""
    e, _ = parse_forcing_with_var(text)
    return e


def parse_forcing_with_var(text: str) -> tuple[Expr, str | None]:
    """Like :func:`parse_forcing` but also report which variable was used."""
    return _lower_forcing(_tokenize(text))


def _lower_forcing(tokens: list[_Token]) -> tuple[Expr, str | None]:
    variables: set[str] = set()
    e = _lower(_parse_ast(tokens), variables)
    if len(variables) > 1:
        raise ParseError("mix of variables 't' and 'x' in one expression", None)
    _check_size(e)
    return e, next(iter(variables), None)


# ---------------------------------------------------------------------------
# whole equations
# ---------------------------------------------------------------------------

def parse_ode(text: str) -> LinearODE:
    """Parse "<lhs> = <forcing>" into a LinearODE.

    The left side is a signed sum of terms c*y, c*y', c*y'', ..., c*y^(k);
    the right side follows the forcing grammar.  Coefficients are collected
    by derivative order with missing orders set to zero.
    """
    tokens = _tokenize(text)
    eq_positions = [idx for idx, tok in enumerate(tokens)
                    if tok.kind == "OP" and tok.text == "="]
    if not eq_positions:
        raise ParseError("expected '=' between operator and forcing",
                         SourceSpan(len(text), len(text)))
    if len(eq_positions) > 1:
        raise ParseError("multiple '=' signs", tokens[eq_positions[1]].span)
    split = eq_positions[0]
    lhs = tokens[:split] + [_Token("END", "", tokens[split].start, tokens[split].start)]
    rhs = tokens[split + 1:]

    coeffs = _parse_lhs(lhs)

    forcing, var = _lower_forcing(rhs)

    order = max(coeffs)
    if order < 1:
        raise NotLinearConstantCoefficient(
            "the equation must involve at least y'", None
        )
    if order > ORDER_CAP:
        raise DegreeLimitExceeded(
            f"the equation has order {order}, more than the cap of {ORDER_CAP}")
    vec = [coeffs.get(k, Fraction(0)) for k in range(order + 1)]
    if not vec[-1]:
        raise ParseError(f"leading coefficient of y^({order}) is zero", None)
    return LinearODE(tuple(vec), forcing, var or "t")


def _parse_lhs(tokens: list[_Token]) -> dict[int, Fraction]:
    coeffs: dict[int, Fraction] = {}
    pos = 0

    def peek():
        return tokens[pos]

    sign = 1
    if peek().kind == "OP" and peek().text in "+-":
        sign = -1 if peek().text == "-" else 1
        pos += 1

    while True:
        tok = tokens[pos]
        # optional numeric coefficient, possibly a fraction or decimal
        value = Fraction(1)
        if tok.kind == "NUM":
            value = _number(tok)
            pos += 1
            if tokens[pos].kind == "OP" and tokens[pos].text == "/":
                if tokens[pos + 1].kind == "NUM":
                    divisor = _number(tokens[pos + 1])
                    if not divisor:
                        raise ParseError("division by zero", tokens[pos + 1].span)
                    value /= divisor
                    pos += 2
                else:
                    raise ParseError("expected a number after '/'",
                                     tokens[pos + 1].span)
            if tokens[pos].kind == "OP" and tokens[pos].text == "*":
                pos += 1
        tok = tokens[pos]
        if tok.kind != "NAME":
            raise ParseError("expected a y term on the left-hand side", tok.span)
        if tok.text in _VARIABLES:
            raise NotLinearConstantCoefficient(
                f"variable coefficient {tok.text!r} on the left-hand side; "
                "only constant coefficients are supported here (the factorable "
                "power form y'' - a^2 x^(2n) y = q has its own varcoef entry point)",
                tok.span,
            )
        if tok.text != "y":
            raise ParseError(f"unexpected name {tok.text!r} on the left-hand side",
                             tok.span)
        pos += 1
        order = 0
        while tokens[pos].kind == "OP" and tokens[pos].text == "'":
            order += 1
            pos += 1
        if order == 0 and tokens[pos].kind == "OP" and tokens[pos].text == "^":
            caret_span = tokens[pos].span
            pos += 1
            if not (tokens[pos].kind == "OP" and tokens[pos].text == "("):
                raise NotLinearConstantCoefficient(
                    "powers of y are not linear; write y^(k) for the k-th derivative",
                    caret_span,
                )
            pos += 1
            if tokens[pos].kind != "NUM":
                raise ParseError("expected a derivative order", tokens[pos].span)
            order_frac = _number(tokens[pos])
            if order_frac.denominator != 1 or order_frac < 0:
                raise ParseError("derivative order must be a nonnegative integer",
                                 tokens[pos].span)
            order = int(order_frac)
            pos += 1
            if not (tokens[pos].kind == "OP" and tokens[pos].text == ")"):
                raise ParseError("expected ')'", tokens[pos].span)
            pos += 1
        coeffs[order] = coeffs.get(order, Fraction(0)) + sign * value

        tok = tokens[pos]
        if tok.kind == "END":
            break
        if tok.kind == "OP" and tok.text in "+-":
            sign = -1 if tok.text == "-" else 1
            pos += 1
            continue
        raise ParseError("expected '+', '-' or '=' after a y term", tok.span)
    return coeffs


# ---------------------------------------------------------------------------
# numeric lowering (lenient, for the variable-coefficient forcing)
# ---------------------------------------------------------------------------

def parse_numeric_function(text: str):
    """Compile an expression into a float callable of one variable.

    Accepts the full forcing grammar plus arbitrary arguments to exp, sin,
    cos and ln (e.g. exp(x^2/2)), general division, and fractional powers.
    Used by the variable-coefficient path, where the forcing only ever needs
    to be evaluated numerically.
    """
    node = _parse_ast(_tokenize(text))
    names: set[str] = set()

    def build(nd):
        if isinstance(nd, _Num):
            try:
                v = float(nd.value)
            except OverflowError as exc:
                raise ParseError("number is beyond double range", nd.span) from exc
            return lambda x: v
        if isinstance(nd, _Name):
            if nd.ident in _VARIABLES:
                names.add(nd.ident)
                return lambda x: x
            raise UnsupportedFunction(f"unknown name {nd.ident!r}", nd.span)
        if isinstance(nd, _Unary):
            inner = build(nd.operand)
            if nd.op == "-":
                return lambda x: -inner(x)
            return inner
        if isinstance(nd, _Bin):
            lf, rf = build(nd.left), build(nd.right)
            op = nd.op
            if op == "+":
                return lambda x: lf(x) + rf(x)
            if op == "-":
                return lambda x: lf(x) - rf(x)
            if op == "*":
                return lambda x: lf(x) * rf(x)
            if op == "/":
                return lambda x: lf(x) / rf(x)
            raise ParseError(f"unknown operator {op!r}", nd.span)
        if isinstance(nd, _Pow):
            bf, pf = build(nd.base), build(nd.power)
            return lambda x: bf(x) ** pf(x)
        if isinstance(nd, _Call):
            if nd.func not in _FUNCTIONS:
                raise UnsupportedFunction(
                    f"function {nd.func!r} is not supported", nd.span
                )
            af = build(nd.arg)
            fn = {"exp": math.exp, "sin": math.sin, "cos": math.cos,
                  "ln": math.log}[nd.func]
            return lambda x: fn(af(x))
        raise ParseError("malformed expression", getattr(nd, "span", None))

    fn = build(node)
    var = next(iter(names)) if names else "x"
    return fn, var


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _scalar_plain(s) -> str:
    """Parseable rendering of a scalar; complex values get parentheses."""
    if isinstance(s, GaussianRational):
        if not s.im:
            return str(s.re)
        if not s.re:
            if s.im == 1:
                return "i"
            if s.im == -1:
                return "-i"
            return f"{s.im}*i"
        op = "+" if s.im > 0 else "-"
        imag = abs(s.im)
        imag_str = "i" if imag == 1 else f"{imag}*i"
        return f"({s.re}{op}{imag_str})"
    if isinstance(s, (int, Fraction)):
        return str(s)
    c = complex(s)
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return f"{c.imag!r}*i"
    op = "+" if c.imag >= 0 else "-"
    return f"({c.real!r}{op}{abs(c.imag)!r}*i)"


def _scalar_sign_mag(s, style: str):
    """Split a scalar into a printable sign and magnitude when it prints as a
    signed number: -1/2 gives (-1, 1/2) and -2*i gives (-1, 2*i).  The LaTeX
    style writes a float with an imaginary part as (re+im i), its real part
    included, so there only a real float splits.  Exact values stay exact,
    and 0 - s never gives a float part of -0.0 to print."""
    re, im = s.real, s.imag
    if im and (re or style == "latex" and not isinstance(s, GaussianRational)):
        return 1, s
    return (-1, 0 - s) if (im or re) < 0 else (1, s)


def _split_term(t, style: str):
    """(sign, coeff, tpow, logpow, rate, trig) of a Term or RealTerm.

    ``coeff`` is the magnitude when the coefficient prints as a signed number
    (:func:`_scalar_sign_mag`); ``trig`` is ``(kind, beta)`` for a real term
    with beta != 0, otherwise None.
    """
    sign, coeff = _scalar_sign_mag(t.coeff, style)
    if isinstance(t, RealTerm):
        trig = (t.kind, t.beta) if t.beta else None
        return sign, coeff, t.tpow, t.logpow, t.alpha, trig
    return sign, coeff, t.tpow, t.logpow, t.exponent, None


def _rate_times_var_plain(rate, var: str) -> str:
    if rate == 1:
        return var
    if rate == -1:
        return f"-{var}"
    return f"{_scalar_plain(rate)}*{var}"


def _plain_term(sign, coeff, tpow, logpow, rate, trig, var: str):
    pieces = []
    if tpow == 1:
        pieces.append(var)
    elif tpow != 0:
        pieces.append(f"{var}^{tpow}" if tpow > 0 else f"{var}^({tpow})")
    if logpow == 1:
        pieces.append(f"ln({var})")
    elif logpow > 1:
        pieces.append(f"ln({var})^{logpow}")
    if rate:
        pieces.append(f"exp({_rate_times_var_plain(rate, var)})")
    if trig:
        kind, beta = trig
        arg = var if beta == 1 else f"{_scalar_plain(beta)}*{var}"
        pieces.append(f"{kind}({arg})")
    if not pieces:
        return sign, _scalar_plain(coeff)
    if coeff == 1:
        return sign, "*".join(pieces)
    return sign, "*".join([_scalar_plain(coeff)] + pieces)


def _join_signed(parts) -> str:
    if not parts:
        return "0"
    out = []
    for idx, (sign, body) in enumerate(parts):
        if idx == 0:
            out.append(f"-{body}" if sign < 0 else body)
        else:
            out.append(f" - {body}" if sign < 0 else f" + {body}")
    return "".join(out)


def _render_terms(terms, style: str, var: str) -> str:
    """Signed sum of Terms or RealTerms in the "plain" or "latex" style."""
    fmt = _plain_term if style == "plain" else _latex_term
    return _join_signed([fmt(*_split_term(t, style), var) for t in terms])


# -- latex -------------------------------------------------------------------

def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}" \
        if f.numerator >= 0 else f"-\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def _scalar_latex(s) -> str:
    if isinstance(s, GaussianRational):
        if not s.im:
            return _frac_latex(s.re)
        re_part = "" if not s.re else _frac_latex(s.re)
        if s.im == 1:
            im_part = "i"
        elif s.im == -1:
            im_part = "-i"
        else:
            im_part = f"{_frac_latex(s.im)}i"
        if not re_part:
            return im_part
        joiner = "+" if not im_part.startswith("-") else ""
        return f"({re_part}{joiner}{im_part})"
    if isinstance(s, (int, Fraction)):
        return _frac_latex(s)
    c = complex(s)
    if c.imag == 0:
        return repr(c.real)
    return f"({c.real!r}{'+' if c.imag >= 0 else '-'}{abs(c.imag)!r}i)"


def _power_latex(base: str, k: int) -> str:
    if k == 1:
        return base
    ks = str(k)
    return f"{base}^{ks}" if len(ks) == 1 else f"{base}^{{{ks}}}"


def _rate_latex(rate, var: str) -> str:
    if rate == 1:
        return var
    if rate == -1:
        return f"-{var}"
    return f"{_scalar_latex(rate)}{var}"


def _exp_latex(rate, var: str) -> str:
    body = _rate_latex(rate, var)
    return f"e^{var}" if body == var else f"e^{{{body}}}"


def _latex_term(sign, coeff, tpow, logpow, rate, trig, var: str):
    pieces = []
    if tpow:
        pieces.append(_power_latex(var, tpow))
    if logpow == 1:
        pieces.append(f"\\ln({var})")
    elif logpow > 1:
        pieces.append(f"\\ln^{logpow}({var})")
    if rate:
        pieces.append(_exp_latex(rate, var))
    if trig:
        kind, beta = trig
        fn = "\\cos" if kind == COS else "\\sin"
        pieces.append(f"{fn} {var}" if beta == 1 else f"{fn}({_scalar_latex(beta)}{var})")
    coeff_str = "" if coeff == 1 else _scalar_latex(coeff)
    if not pieces:
        return sign, coeff_str or "1"
    return sign, coeff_str + "".join(pieces)


# -- json --------------------------------------------------------------------

def _part_json(v):
    """One real part: ``[num, den]`` when exact, a float when approximate."""
    if isinstance(v, (int, Fraction)):
        return [v.numerator, v.denominator]
    return float(v)


def _part_from_json(v):
    if isinstance(v, list):
        return Fraction(v[0], v[1])
    return float(v)


def expr_to_json_terms(e: Expr) -> list:
    return [{
        "coeff_re": _part_json(t.coeff.real), "coeff_im": _part_json(t.coeff.imag),
        "tpow": t.tpow, "logpow": t.logpow,
        "exp_re": _part_json(t.exponent.real), "exp_im": _part_json(t.exponent.imag),
    } for t in e.terms]


def _scalar_from_json(obj, name: str):
    re, im = _part_from_json(obj[f"{name}_re"]), _part_from_json(obj[f"{name}_im"])
    return GaussianRational(re, im) if isinstance(re, Fraction) else complex(re, im)


def expr_from_json_terms(terms: list) -> Expr:
    # a term with an exact and a float scalar is made float when it is built
    return normalize([Term(_scalar_from_json(obj, "coeff"), int(obj["tpow"]),
                           int(obj["logpow"]), _scalar_from_json(obj, "exp"))
                      for obj in terms])


def realexpr_to_json_terms(e: RealExpr) -> list:
    return [{
        "coeff": _part_json(t.coeff),
        "tpow": t.tpow, "logpow": t.logpow,
        "alpha": _part_json(t.alpha),
        "beta": _part_json(t.beta),
        "kind": t.kind,
    } for t in e.terms]


def realexpr_from_json_terms(terms: list) -> RealExpr:
    out = []
    for obj in terms:
        out.append(RealTerm(
            _part_from_json(obj["coeff"]),
            int(obj["tpow"]), int(obj["logpow"]),
            _part_from_json(obj["alpha"]),
            _part_from_json(obj["beta"]),
            obj["kind"],
        ))
    return RealExpr(out)


def render(obj, style: str = "plain", var: str = "t") -> str:
    """Deterministic text for an Expr, RealExpr or CascadeTrace.

    ``style`` is "plain" (parseable by :func:`parse_forcing`) or "latex";
    the JSON term lists are written by :func:`expr_to_json_terms` and
    :func:`realexpr_to_json_terms`.  Raises :class:`OverflowGuard` when a
    coefficient has more digits than Python converts to text.
    """
    if style not in ("plain", "latex"):
        raise ValueError(f"unknown style {style!r}")
    with _digit_limit():
        if isinstance(obj, CascadeTrace):
            return _render_trace(obj, style, var)
        if not isinstance(obj, (Expr, RealExpr)):
            raise TypeError(f"cannot render {type(obj).__name__}")
        return _render_terms(obj.terms, style, var)


@contextmanager
def _digit_limit():
    """Re-raise Python's int-to-str digit limit (a ValueError from ``str``,
    ``repr`` or ``json.dumps`` on a huge exact value) as
    :class:`OverflowGuard`."""
    try:
        yield
    except ValueError as exc:
        raise OverflowGuard(
            "result too large to print: an integer has more digits than "
            "Python converts to text (see PYTHONINTMAXSTRDIGITS)"
        ) from exc


def _root_json(root) -> dict:
    return {"re": _part_json(root.real), "im": _part_json(root.imag)}


def roots_to_json(rootset) -> list:
    return [{**_root_json(e.value), "mult": e.multiplicity, "exact": e.exact}
            for e in rootset.entries]


def trace_to_json(trace) -> list:
    return [{
        "root": _root_json(st.root),
        "input": expr_to_json_terms(st.input),
        "output": expr_to_json_terms(st.output),
    } for st in trace.stages]


def _render_trace(trace, style: str, var: str) -> str:
    lines = []
    for idx, st in enumerate(trace.stages, start=1):
        root = _scalar_plain(st.root) if style == "plain" else _scalar_latex(st.root)
        g = render(st.input, style, var)
        phi = render(st.output, style, var)
        lines.append(f"stage {idx}: solve phi' - ({root})*phi = {g}")
        lines.append(f"         phi = {phi}")
    lines.append(f"y_p = {render(trace.y_p, style, var)}")
    return "\n".join(lines)

"""Closed algebra of exponential-polynomial-logarithm terms.

Every symbolic object in the solver is a finite sum of terms

    c * t^k * ln(t)^m * e^(lam*t)

with complex coefficient ``c`` and rate ``lam`` (exact Gaussian rationals or
complex floats, see :mod:`odecascade.scalars`), integer ``k`` and nonnegative
integer ``m``.  The class is closed under addition, multiplication and
differentiation, and closed under antidifferentiation except when a term has
both a nonzero rate and a logarithm factor (or a negative power of t), in
which case :class:`NotClosedForm` is raised.

Antidifferentiation and the cascade's first-order stages share one kernel,
:func:`solve_stage`, which solves phi' - r*phi = e one rate at a time: the
part P(t) e^(lam t) of e gives Q(t) e^(lam t) with Q' + mu*Q = P,
mu = lam - r.  The exact backend back-substitutes Q from the top power down
on integers (O(K) steps for degree K).  The float backend keeps the
integration-by-parts chain of each term (O(K^2)) and the rounding of the
multiply-integrate-multiply route: the float residual test is scaled by the
size of its inputs, so changed last bits would flip borderline verdicts.

The exact kernels (the stage's back-substitution, the exponential-shift
identity behind the verifier's ``apply_operator`` and the real part the
cascade takes of a real problem's answer) share one layout for a rate group:
its Gaussian-rational coefficients as Gaussian-integer numerator pairs
(a, b) over one positive denominator, the lcm of the parts' denominators
(:func:`_numerators`).  The work runs on those integers, and each result
is turned back into a :class:`GaussianRational` with one gcd per part
(:func:`_rational`), the fraction-free idea of Bareiss (Math. Comp. 1968).

``k`` may be negative so that differentiation never leaves the algebra
(d/dt ln t = 1/t); the parser and the solvers only ever produce k >= 0.

Expressions are kept in a canonical form: terms sorted by
(Re lam, Im lam, tpow, logpow), one term per key, no zero coefficients.  Two
expressions represent the same function iff they are structurally equal
(exact backend) or their difference passes the relative zero test
(approximate backend).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

from .errors import DomainError, NotClosedForm, NotConjugateSymmetric, OverflowGuard
from .scalars import GaussianRational, as_scalar, conj as _conj_scalar, is_exact

#: Relative tolerance of the approximate backend's zero test.  A coefficient
#: counts as zero when its magnitude is at most REL_EPS times the largest
#: coefficient magnitude in the enclosing expression.
REL_EPS = 1e-12

_UNIT = complex(1.0, 0.0)


class Term(namedtuple("Term", "coeff tpow logpow exponent")):
    """One summand c * t^tpow * ln(t)^logpow * e^(exponent*t)."""

    __slots__ = ()

    def __new__(cls, coeff, tpow=0, logpow=0, exponent=GaussianRational(0)):
        coeff = as_scalar(coeff)
        exponent = as_scalar(exponent)
        if not isinstance(tpow, int) or not isinstance(logpow, int):
            raise TypeError("tpow and logpow must be integers")
        if logpow < 0:
            raise ValueError("logpow must be nonnegative")
        return super().__new__(cls, coeff, tpow, logpow, exponent)

    @property
    def key(self):
        return (self.tpow, self.logpow, self.exponent)

    def is_exact(self) -> bool:
        return is_exact(self.coeff) and is_exact(self.exponent)


def _term_to_float(t: Term) -> Term:
    return Term(complex(t.coeff), t.tpow, t.logpow, complex(t.exponent))


def _sort_key(t: Term):
    lam = t.exponent
    if isinstance(lam, GaussianRational):
        return (lam.re, lam.im, t.tpow, t.logpow)
    return (lam.real, lam.imag, t.tpow, t.logpow)


def _snap(lam: complex, tol: float) -> complex:
    re = 0.0 if abs(lam.real) <= tol else lam.real
    im = 0.0 if abs(lam.imag) <= tol else lam.imag
    return complex(re, im)


def _snap_exponents(terms, eps):
    """Float backend: zero out tiny rate components and merge rates that
    agree within tolerance, so resonant cancellations are recognized."""
    scale = max((abs(t.exponent) for t in terms), default=0.0)
    tol = eps * max(1.0, scale)
    terms = [Term(t.coeff, t.tpow, t.logpow, _snap(t.exponent, tol)) for t in terms]

    # Cluster near-identical rates onto a single representative.
    reps: list[complex] = []
    mapping: dict[complex, complex] = {}
    for lam in sorted({t.exponent for t in terms}, key=lambda z: (z.real, z.imag)):
        for rep in reps:
            if abs(lam - rep) <= tol:
                mapping[lam] = rep
                break
        else:
            reps.append(lam)
            mapping[lam] = lam
    return [Term(t.coeff, t.tpow, t.logpow, mapping[t.exponent]) for t in terms]


class Expr:
    """Canonical finite sum of Terms.  The zero function is the empty sum."""

    __slots__ = ("terms",)

    def __init__(self, terms=(), *, _canonical=False):
        if _canonical:
            object.__setattr__(self, "terms", tuple(terms))
        else:
            object.__setattr__(self, "terms", _canonicalize(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    # -- basics ---------------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return Expr((), _canonical=True)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return all(t.is_exact() for t in self.terms)

    def to_float(self) -> "Expr":
        return normalize([_term_to_float(t) for t in self.terms])

    def max_coeff_mag(self) -> float:
        return max((abs(t.coeff) for t in self.terms), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "Expr(0)"
        bits = ", ".join(
            f"({t.coeff})*t^{t.tpow}*ln^{t.logpow}*e^({t.exponent}t)" for t in self.terms
        )
        return f"Expr[{bits}]"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Expr):
            return normalize(list(self.terms) + list(other.terms))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Expr):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return Expr([Term(-t.coeff, t.tpow, t.logpow, t.exponent) for t in self.terms])

    def __mul__(self, other):
        if isinstance(other, Expr):
            return multiply(self, other)
        return scale(other, self)

    def __rmul__(self, other):
        return scale(other, self)

    # -- calculus ---------------------------------------------------------

    def diff(self) -> "Expr":
        return differentiate(self)

    def integrate(self) -> "Expr":
        return antiderivative(self)

    def conjugate(self) -> "Expr":
        return Expr(
            [Term(_conj_scalar(t.coeff), t.tpow, t.logpow, _conj_scalar(t.exponent))
             for t in self.terms]
        )

    def eval(self, t: float):
        return evaluate(self, t)

    def realify(self) -> "RealExpr":
        return realify(self)

    def approx_equal(self, other: "Expr") -> bool:
        """Equality within the approximate backend's zero test.

        Exact expressions compare structurally; otherwise the difference must
        vanish relative to the larger of the two coefficient scales.
        """
        if self.is_exact() and other.is_exact():
            return self == other
        diff = self.to_float() - other.to_float()
        scale_ref = max(self.max_coeff_mag(), other.max_coeff_mag(), 1.0)
        return all(abs(t.coeff) <= REL_EPS * scale_ref for t in diff.terms)


def _canonicalize(terms) -> tuple:
    terms = [t if isinstance(t, Term) else Term(*t) for t in terms]
    if not terms:
        return ()
    exact = all(t.is_exact() for t in terms)
    if not exact:
        terms = [_term_to_float(t) for t in terms]
        terms = _snap_exponents(terms, REL_EPS)

    merged: dict[tuple, object] = {}
    for t in terms:
        if t.key in merged:
            merged[t.key] = merged[t.key] + t.coeff
        else:
            merged[t.key] = t.coeff

    out = [Term(c, k[0], k[1], k[2]) for k, c in merged.items()]
    if exact:
        out = [t for t in out if t.coeff]
    else:
        scale_ = max((abs(t.coeff) for t in out), default=0.0)
        out = [t for t in out if abs(t.coeff) > REL_EPS * scale_]
    out.sort(key=_sort_key)
    return tuple(out)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def normalize(raw) -> Expr:
    """Canonical form of a list of terms (merge keys, drop zeros, sort)."""
    if isinstance(raw, Expr):
        raw = raw.terms
    return Expr(_canonicalize(raw), _canonical=True)


def add(a: Expr, b: Expr) -> Expr:
    return a + b


def scale(c, a: Expr) -> Expr:
    c = as_scalar(c)
    return Expr([Term(c * t.coeff, t.tpow, t.logpow, t.exponent) for t in a.terms])


def multiply(a: Expr, b: Expr) -> Expr:
    out = []
    for ta in a.terms:
        for tb in b.terms:
            out.append(Term(
                ta.coeff * tb.coeff,
                ta.tpow + tb.tpow,
                ta.logpow + tb.logpow,
                ta.exponent + tb.exponent,
            ))
    return normalize(out)


def conjugate(e: Expr) -> Expr:
    return e.conjugate()


def differentiate(e: Expr) -> Expr:
    """Exact derivative, linear in e.  Never leaves the algebra."""
    out = []
    for t in e.terms:
        if t.exponent:
            out.append(Term(t.coeff * t.exponent, t.tpow, t.logpow, t.exponent))
        if t.tpow:
            out.append(Term(t.coeff * t.tpow, t.tpow - 1, t.logpow, t.exponent))
        if t.logpow:
            out.append(Term(t.coeff * t.logpow, t.tpow - 1, t.logpow - 1, t.exponent))
    return normalize(out)


def _integrate_poly_log(coeff, k: int, m: int) -> list:
    # int t^k ln(t)^m dt as (coeff, tpow, logpow) triples.  k = -1 gives
    # ln^(m+1) / (m+1); otherwise t^(k+1) ln^m / (k+1) - m/(k+1) * I(k, m-1).
    if k == -1:
        return [(coeff / (m + 1), 0, m + 1)]
    out = []
    c = coeff
    mm = m
    while True:
        out.append((c / (k + 1), k + 1, mm))
        if mm == 0:
            break
        c = -(c * mm) / (k + 1)
        mm -= 1
    return out


def _parts_chain(coeff, k: int, mu) -> list:
    # Q of int t^k e^(mu t) dt = Q e^(mu t) by repeated integration by parts,
    # k >= 0, mu != 0, as (coeff, tpow) pairs from t^k down.  O(k) divisions
    # per term, so O(K^2) for a degree-K group.
    out = []
    c = coeff / mu
    j = k
    while True:
        out.append((c, j))
        if j == 0:
            break
        c = -(c * j) / mu
        j -= 1
    return out


def _numerators(values) -> tuple[list, int]:
    """A collection of exact ``values`` as Gaussian-integer numerator pairs
    over one positive denominator: ``([(a, b), ...], den)`` with
    value = (a + b i) / den and den the lcm of the parts' denominators."""
    den = math.lcm(*[d for v in values for d in (v.re.denominator, v.im.denominator)])
    return [(v.re.numerator * (den // v.re.denominator),
             v.im.numerator * (den // v.im.denominator)) for v in values], den


def _rational(a: int, b: int, den: int) -> GaussianRational:
    """(a + b i) / den for den > 0, reduced with one gcd per part."""
    return GaussianRational(Fraction(a, den), Fraction(b, den))


def _back_substitute(p: dict, mu) -> dict:
    # Q' + mu Q = P top down, mu != 0, on integer numerators.  With
    # p_j = P_j / L and 1/mu = u / D (u = md conj(mu_num), D = |mu_num|^2),
    # q_j = N_j / (L D^(K-j+1)) where N_j = (P_j D^(K-j) - (j+1) N_{j+1}) u.
    # O(K) integer steps for a degree-K group, one reduction per output.
    [(mr, mi)], md = _numerators([mu])
    ur, ui = md * mr, -md * mi
    d = mr * mr + mi * mi
    pairs, den = _numerators(p.values())
    num = dict(zip(p, pairs))
    q = {}
    nr = ni = 0  # N_{j+1}
    dpow = 1     # D^(K-j)
    for j in range(max(p), -1, -1):
        pr, pi = num.get(j, (0, 0))
        cr = pr * dpow - (j + 1) * nr
        ci = pi * dpow - (j + 1) * ni
        nr, ni = cr * ur - ci * ui, cr * ui + ci * ur
        dpow *= d
        q[j] = _rational(nr, ni, den * dpow)
    return q


def solve_stage(r, e: Expr) -> Expr:
    """Particular solution of phi' - r*phi = e, with no homogeneous part.

    Per rate lam of e, the terms P(t) e^(lam t) give Q(t) e^(lam t) with
    Q' + mu*Q = P, mu = lam - r.  At mu = 0 (resonance) Q is the
    polynomial/log antiderivative of P.  Otherwise Q is back-substituted on
    the exact backend and built by the integration-by-parts chain on floats
    (see the module docstring).  The exact back-substitution is an integer
    recurrence on the group's Gaussian-integer numerators, reduced once per
    output coefficient.  On floats mu is snapped among the
    shifted rates as :func:`normalize` does, so resonance is found within
    tolerance, and each output term has rate mu + r.  ``r = 0`` is
    :func:`antiderivative`.

    Raises :class:`NotClosedForm` when a term at mu != 0 has a log factor
    or a negative power of t, naming those terms at their shifted rate mu.
    """
    r = as_scalar(r)
    exact = is_exact(r) and e.is_exact()
    by_rate = attrgetter("exponent")  # canonical terms are sorted by rate
    if exact:
        groups = [(lam, lam - r, list(terms)) for lam, terms in groupby(e.terms, by_rate)]
    else:
        # The float steps are those of multiplying by e^(-rt), integrating
        # and multiplying by e^(rt): r snapped as a lone rate, mu snapped
        # among the shifted rates, coefficients times the factors' unit
        # coefficient 1+0j (which only settles the sign of a zero part).
        r = _snap(complex(r), REL_EPS * max(1.0, abs(r)))
        shifted = _canonicalize([
            Term(_UNIT * t.coeff, t.tpow, t.logpow, complex(t.exponent) - r)
            for t in e.terms
        ])
        groups = [(mu + r, mu, list(terms)) for mu, terms in groupby(shifted, by_rate)]

    out = []
    offending = []
    for rate, mu, terms in groups:
        escaping = [t for t in terms if t.logpow > 0 or t.tpow < 0]
        if mu and escaping:
            offending.extend(Term(t.coeff, t.tpow, t.logpow, mu) for t in escaping)
            continue
        if not mu:
            parts = [piece for t in terms
                     for piece in _integrate_poly_log(t.coeff, t.tpow, t.logpow)]
        elif exact:
            q = _back_substitute({t.tpow: t.coeff for t in terms}, mu)
            parts = [(c, j, 0) for j, c in q.items()]
        else:
            parts = [(c, j, 0) for t in terms
                     for c, j in _parts_chain(t.coeff, t.tpow, mu)]
        merged: dict = {}
        for c, k, m in parts:
            merged[k, m] = merged[k, m] + c if (k, m) in merged else c
        out.extend(Term(c if exact else _UNIT * c, k, m, rate)
                   for (k, m), c in merged.items())

    if offending:
        names = ", ".join(
            f"t^{t.tpow}*ln^{t.logpow}(t)*e^({t.exponent}t)" for t in offending
        )
        raise NotClosedForm(
            f"no closed-form antiderivative for: {names}", terms=offending
        )
    return normalize(out)


def antiderivative(e: Expr) -> Expr:
    """One antiderivative with no constant of integration.

    This is :func:`solve_stage` at r = 0: each rate lam != 0 is solved as
    Q' + lam*Q = P, back-substituted on the exact backend and by the
    integration-by-parts chain on floats (whose rounding the float residual
    verdicts depend on); rate 0 takes the polynomial/log antiderivative.
    Integrating a nonconstant term never produces a constant term; the
    constant c itself integrates to c*t.  Raises :class:`NotClosedForm` when
    a term has a nonzero rate together with a log factor or a negative power
    of t (the result would need exponential-integral functions).
    """
    return solve_stage(0, e)


def _apply_by_shift(coeffs, y: Expr) -> Expr:
    """p(D) y for exact real coefficients a_0..a_n and an exact y, by the
    exponential-shift identity (see :func:`odecascade.verify.apply_operator`)."""
    n = len(coeffs) - 1
    ad = math.lcm(*[a.denominator for a in coeffs])
    big_a = [a.numerator * (ad // a.denominator) for a in coeffs]
    out = []
    for lam, terms in groupby(y.terms, attrgetter("exponent")):
        terms = list(terms)
        # c_i * ad * ld^n = sum_k A_k C(k, i) lam_num^(k-i) ld^(n-k+i)
        [(lr, li)], ld = _numerators([lam])
        lam_pow, ld_pow = [(1, 0)], [1]
        for _ in range(n):
            pr, pi = lam_pow[-1]
            lam_pow.append((pr * lr - pi * li, pr * li + pi * lr))
            ld_pow.append(ld_pow[-1] * ld)
        pairs, fd = _numerators([t.coeff for t in terms])
        f = {(t.tpow, t.logpow): pair for t, pair in zip(terms, pairs)}
        acc: dict = {}
        for i in range(n + 1):
            if i:
                f = _diff_numerators(f)
            cr = ci = 0
            for k in range(i, n + 1):
                if big_a[k]:
                    s = big_a[k] * math.comb(k, i) * ld_pow[n - k + i]
                    cr += s * lam_pow[k - i][0]
                    ci += s * lam_pow[k - i][1]
            if cr or ci:
                for key, (a, b) in f.items():
                    sr, si = acc.get(key, (0, 0))
                    acc[key] = (sr + cr * a - ci * b, si + cr * b + ci * a)
        den = ad * ld_pow[n] * fd
        out.extend(Term(_rational(a, b, den), k, m, lam)
                   for (k, m), (a, b) in sorted(acc.items()) if a or b)
    # y is canonical, so its rates come sorted and each key appears once
    return Expr(out, _canonical=True)


def _diff_numerators(f: dict) -> dict:
    # d/dt t^k ln(t)^m = k t^(k-1) ln(t)^m + m t^(k-1) ln(t)^(m-1)
    out: dict = {}
    for (k, m), (a, b) in f.items():
        for mult, key in ((k, (k - 1, m)), (m, (k - 1, m - 1))):
            if mult:
                sr, si = out.get(key, (0, 0))
                out[key] = (sr + mult * a, si + mult * b)
    return out


def _real_part(y: Expr) -> Expr:
    """(y + conj(y)) / 2 of an exact y in one pass: the coefficient at
    (tpow, logpow, lam) is (c + conj(c')) / 2, with c' the coefficient at
    (tpow, logpow, conj(lam)), summed on Gaussian-integer numerators."""
    groups = {lam: list(terms) for lam, terms in groupby(y.terms, attrgetter("exponent"))}
    rates = set(groups) | {lam.conjugate() for lam in groups}
    out = []
    for lam in sorted(rates, key=attrgetter("re", "im")):
        mine, theirs = groups.get(lam, []), groups.get(lam.conjugate(), [])
        pairs, den = _numerators([t.coeff for t in mine + theirs])
        acc = {(t.tpow, t.logpow): pair for t, pair in zip(mine, pairs)}
        for t, (a, b) in zip(theirs, pairs[len(mine):]):
            sr, si = acc.get((t.tpow, t.logpow), (0, 0))
            acc[t.tpow, t.logpow] = (sr + a, si - b)
        out.extend(Term(_rational(a, b, 2 * den), k, m, lam)
                   for (k, m), (a, b) in sorted(acc.items()) if a or b)
    return Expr(out, _canonical=True)


def evaluate(e, t: float):
    """Numeric value at t.  Expr gives a complex, RealExpr a float.

    Raises :class:`DomainError` at t <= 0 when log terms are present, at
    t = 0 when negative powers are present and where a term has no value
    (a sine of an infinite t), and :class:`OverflowGuard` when a coefficient
    or a term's value is beyond double precision.
    """
    try:
        if isinstance(e, RealExpr):
            return _evaluate_real(e, t)
        total = 0j
        for term in e.terms:
            total += complex(term.coeff) * _basis_value(term.tpow, term.logpow, t) \
                * cmath.exp(complex(term.exponent) * t)
        return total
    except OverflowError as exc:
        raise OverflowGuard(f"value at t={t} overflows double precision: {exc}") from exc
    except ValueError as exc:  # sin, cos or exp of an infinite argument
        raise DomainError(f"value at t={t} is undefined: {exc}") from exc


def _basis_value(k: int, m: int, t: float) -> float:
    if m > 0 and t <= 0:
        raise DomainError(f"ln(t) term evaluated at t={t} <= 0")
    if k < 0 and t == 0:
        raise DomainError(f"t^{k} term evaluated at t=0")
    value = float(t) ** k
    if m:
        value *= math.log(t) ** m
    return value


# ---------------------------------------------------------------------------
# real-basis expressions
# ---------------------------------------------------------------------------

COS = "cos"
SIN = "sin"


class RealTerm(namedtuple("RealTerm", "coeff tpow logpow alpha beta kind")):
    """One summand r * t^tpow * ln(t)^logpow * e^(alpha t) * cos/sin(beta t)."""

    __slots__ = ()

    def __new__(cls, coeff, tpow=0, logpow=0, alpha=Fraction(0), beta=Fraction(0), kind=COS):
        if kind not in (COS, SIN):
            raise ValueError("kind must be 'cos' or 'sin'")
        if isinstance(beta, (int, Fraction)) and beta < 0:
            raise ValueError("beta must be nonnegative")
        return super().__new__(cls, coeff, tpow, logpow, alpha, beta, kind)

    @property
    def key(self):
        return (self.alpha, self.beta, self.tpow, self.logpow, self.kind)


class RealExpr:
    """Canonical sum of real-basis terms, produced by :func:`realify`."""

    __slots__ = ("terms",)

    def __init__(self, terms=(), *, _canonical=False):
        if _canonical:
            object.__setattr__(self, "terms", tuple(terms))
        else:
            object.__setattr__(self, "terms", _canonicalize_real(terms))

    def __setattr__(self, name, value):
        raise AttributeError("RealExpr is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return all(isinstance(t.coeff, (int, Fraction)) for t in self.terms)

    def __eq__(self, other):
        if not isinstance(other, RealExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "RealExpr(0)"
        bits = ", ".join(
            f"({t.coeff})*t^{t.tpow}*ln^{t.logpow}*e^({t.alpha}t)*{t.kind}({t.beta}t)"
            for t in self.terms
        )
        return f"RealExpr[{bits}]"

    def eval(self, t: float) -> float:
        return evaluate(self, t)

    def to_expr(self) -> Expr:
        """Embed back into the complex-exponential algebra."""
        out = []
        for rt in self.terms:
            c, alpha, beta = as_scalar(rt.coeff), as_scalar(rt.alpha), as_scalar(rt.beta)
            if not beta:
                if rt.kind == COS:
                    out.append(Term(c, rt.tpow, rt.logpow, alpha))
                continue
            if is_exact(c):
                i, half = GaussianRational(0, 1), GaussianRational(Fraction(1, 2))
            else:
                i, half = 1j, 0.5
            lam_p = alpha + i * beta
            lam_m = alpha - i * beta
            if rt.kind == COS:
                out.append(Term(c * half, rt.tpow, rt.logpow, lam_p))
                out.append(Term(c * half, rt.tpow, rt.logpow, lam_m))
            else:
                out.append(Term(c * half * (-i), rt.tpow, rt.logpow, lam_p))
                out.append(Term(c * half * i, rt.tpow, rt.logpow, lam_m))
        return normalize(out)


def _canonicalize_real(terms) -> tuple:
    # sin(0*t) is the zero function, so beta = 0 sine terms drop out
    terms = [t for t in terms if not (t.kind == SIN and not t.beta)]
    if not terms:
        return ()
    exact = all(
        isinstance(t.coeff, (int, Fraction))
        and isinstance(t.alpha, (int, Fraction))
        and isinstance(t.beta, (int, Fraction))
        for t in terms
    )
    if not exact:
        terms = [
            RealTerm(float(t.coeff), t.tpow, t.logpow, float(t.alpha), float(t.beta), t.kind)
            for t in terms
        ]
    merged: dict[tuple, object] = {}
    for t in terms:
        merged[t.key] = merged.get(t.key, 0) + t.coeff
    out = [RealTerm(c, k[2], k[3], k[0], k[1], k[4]) for k, c in merged.items()]
    if exact:
        out = [t for t in out if t.coeff]
    else:
        scale_ = max((abs(t.coeff) for t in out), default=0.0)
        out = [t for t in out if abs(t.coeff) > REL_EPS * scale_]
    out.sort(key=lambda t: (t.alpha, t.beta, t.tpow, t.logpow, t.kind))
    return tuple(out)


def _evaluate_real(e: RealExpr, t: float) -> float:
    total = 0.0
    for rt in e.terms:
        v = float(rt.coeff) * _basis_value(rt.tpow, rt.logpow, t)
        v *= math.exp(float(rt.alpha) * t)
        angle = float(rt.beta) * t
        v *= math.cos(angle) if rt.kind == COS else math.sin(angle)
        total += v
    return total


def realify(e: Expr) -> RealExpr:
    """Rewrite a conjugate-symmetric expression in the cos/sin real basis.

    Every term at (tpow, logpow, lam) must be matched by the conjugate
    coefficient at (tpow, logpow, conj(lam)), a real-rate term by itself:
    exactly in the exact backend, within the relative zero test otherwise,
    where a float rate whose conjugate is not a key takes the nearest key
    within the rate tolerance.  Raises :class:`NotConjugateSymmetric` for any
    term without such a partner.
    """
    exact = e.is_exact()
    if not exact:
        # Float tolerances only: an exact path compares exactly and never
        # converts a coefficient to float (10^400 would overflow).
        coeff_tol = REL_EPS * max(e.max_coeff_mag(), 1.0)
        rate_scale = max((abs(t.exponent) for t in e.terms), default=0.0)
        rate_tol = REL_EPS * max(1.0, rate_scale)

    by_key = {t.key: t.coeff for t in e.terms}
    out = []
    for t in e.terms:
        lam, c = t.exponent, t.coeff
        target = lam.conjugate()
        partner = by_key.get((t.tpow, t.logpow, target))
        if partner is None and not exact:
            # the clustered float rates need not be bitwise-conjugate
            key = min((k for k in by_key if k[:2] == (t.tpow, t.logpow)),
                      key=lambda k: abs(k[2] - target))
            if abs(key[2] - target) <= rate_tol:
                partner = by_key[key]
        if partner is None:
            raise NotConjugateSymmetric(
                f"no conjugate partner for rate {lam} (tpow={t.tpow}, logpow={t.logpow})"
            )
        if (partner != c.conjugate()) if exact else abs(partner - c.conjugate()) > coeff_tol:
            raise NotConjugateSymmetric(
                f"coefficients at rates {lam}, {target} are not conjugate"
            )
        if lam.imag > 0:
            out.append(RealTerm(2 * c.real, t.tpow, t.logpow, lam.real, lam.imag, COS))
            out.append(RealTerm(-2 * c.imag, t.tpow, t.logpow, lam.real, lam.imag, SIN))
        elif not lam.imag:
            out.append(RealTerm(c.real, t.tpow, t.logpow, lam.real))
    return RealExpr(out)


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------

def term(coeff, tpow: int = 0, logpow: int = 0, exponent=0) -> Term:
    return Term(coeff, tpow, logpow, exponent)


def expr(*terms) -> Expr:
    return normalize(list(terms))


def const(c) -> Expr:
    return expr(term(c))


def exponential(rate) -> Expr:
    """The single-term expression e^(rate*t)."""
    return expr(term(1, 0, 0, rate))

"""Symbolic verification and the undetermined-coefficients oracle.

``apply_operator`` applies the full differential operator to a candidate
(by the exponential-shift identity on exact data, see its docstring);
``residual_symbolic`` automates the "substitute into the original equation"
check.  ``oracle_undetermined_coefficients`` computes a particular solution
by a completely different route (ansatz plus a triangular linear solve), so
cascade results can be cross-checked method against method.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import Expr, Term, _apply_by_shift, _negligible, differentiate, normalize, scale
from .errors import LogForcingUnsupported
from .model import LinearODE
from .roots import CharPoly, characteristic
from .scalars import GaussianRational

STATUS_EXACT_ZERO = "exact-zero"
STATUS_ZERO_TOL = "zero-within-tolerance"
STATUS_NONZERO = "nonzero"


class Residual(namedtuple("Residual", "expr is_zero status")):
    """L[y] - q after normalization, with the backend's zero verdict."""

    __slots__ = ()


def _one_backend(ode: LinearODE, *ys: Expr):
    """The equation and the candidates as given when all are exact, else
    all in floats (``to_float()`` leaves a float value as it is)."""
    if ode.is_exact() and all(y.is_exact() for y in ys):
        return ode, ys
    return ode.to_float(), tuple(y.to_float() for y in ys)


def apply_operator(ode: LinearODE, y: Expr) -> Expr:
    """Sum a_k * d^k y / dt^k, normalized.

    A mixed pair is converted to floats first.  On an exact pair the
    operator is applied per rate lam by the exponential-shift identity

        p(D)[f e^(lam t)] = e^(lam t) * sum_i c_i f^(i),
        c_i = p^(i)(lam) / i! = sum_k a_k C(k, i) lam^(k-i),

    where f^(i) differentiates only the t^k ln(t)^m part (so logs and
    negative powers are covered).  The sum runs on Gaussian-integer
    numerators (:func:`odecascade.algebra._apply_by_shift`) and each output
    coefficient is reduced once.  A float pair is differentiated k times
    and scaled, as the float residual verdicts expect.
    """
    ode, (y,) = _one_backend(ode, y)
    if ode.is_exact():
        return _apply_by_shift(ode.coeffs, y)
    out = Expr.zero()
    d = y
    for k, a in enumerate(ode.coeffs):
        if k > 0:
            d = differentiate(d)
        if a:
            out = out + scale(a, d)
    return out


def _zero_verdict(diff: Expr, exact: bool, refs: tuple) -> tuple[bool, str]:
    """Exact differences must vanish; float ones pass the algebra's float
    zero test (:func:`~odecascade.algebra._negligible`), scaled by ``refs``.
    The float scale is computed on the float branch only, so an exact path
    never converts a coefficient to float (10^400 would overflow)."""
    if exact:
        return (diff.is_zero, STATUS_EXACT_ZERO if diff.is_zero else STATUS_NONZERO)
    ok = _negligible(diff, refs)
    return (ok, STATUS_ZERO_TOL if ok else STATUS_NONZERO)


def residual_symbolic(ode: LinearODE, y_p: Expr) -> Residual:
    """Apply the operator, subtract the forcing, and test for zero.

    An exact equation with an exact candidate is checked exactly; any other
    pair is converted once to floats and checked there.  The
    approximate backend's zero test is relative to the coefficient scale
    of L[y_p] and q, not of the residual itself, so cancellations down to
    roundoff count as zero.
    """
    ode, (y_p,) = _one_backend(ode, y_p)
    applied = apply_operator(ode, y_p)
    diff = applied - ode.forcing
    exact = applied.is_exact() and ode.forcing.is_exact()
    is_zero, status = _zero_verdict(diff, exact, (applied, ode.forcing))
    return Residual(diff, is_zero, status)


def equal_mod_homogeneous(ode: LinearODE, y1: Expr, y2: Expr) -> bool:
    """True iff L[y1 - y2] is zero, i.e. y1 and y2 differ by a homogeneous
    solution: the right equivalence for particular solutions (in floats if mixed)."""
    ode, (y1, y2) = _one_backend(ode, y1, y2)
    applied1 = apply_operator(ode, y1)
    applied2 = apply_operator(ode, y2)
    diff = applied1 - applied2
    exact = applied1.is_exact() and applied2.is_exact()
    is_zero, _ = _zero_verdict(diff, exact, (applied1, applied2))
    return is_zero


# ---------------------------------------------------------------------------
# undetermined-coefficients oracle
# ---------------------------------------------------------------------------

def _derivative_chain(p: CharPoly):
    chain = [p]
    while chain[-1].degree >= 1:
        chain.append(chain[-1].derivative())
    return chain


def _rate_multiplicity(chain, lam, exact: bool) -> int:
    """Number of leading derivatives of p vanishing at lam."""
    for i, poly in enumerate(chain):
        value = poly.eval(lam)
        if exact:
            if value:
                return i
        else:
            scale_ = sum(map(abs, poly.coeffs)) * max(1.0, abs(lam)) ** poly.degree
            if abs(value) > 1e-8 * max(scale_, 1.0):
                return i
    return len(chain) - 1


def oracle_undetermined_coefficients(ode: LinearODE, q: Expr) -> Expr:
    """Particular solution by the classical ansatz, solved triangularly.

    For each forcing rate lam with top power K and multiplicity s of lam
    among the characteristic roots, the ansatz basis is
    { t^j e^(lam t) : s <= j <= s+K }.  L maps t^j e^(lam t) into the span of
    lower powers at the same rate, with known leading factor p^(s)(lam)/s!,
    so the coefficient equations solve top-down with no linear algebra.

    Forcings with logarithm terms or negative powers of t are outside this
    method entirely; they raise :class:`LogForcingUnsupported` (the cascade
    handles them).
    """
    if any(t.logpow > 0 or t.tpow < 0 for t in q.terms):
        raise LogForcingUnsupported(
            "the undetermined-coefficients ansatz cannot represent logarithm "
            "terms or negative powers of t; use the cascade solver"
        )

    ode, (q,) = _one_backend(ode, q)
    exact = ode.is_exact()
    p = characteristic(ode)
    chain = _derivative_chain(p)
    n = p.degree

    groups: dict = {}
    for t in q.terms:
        groups.setdefault(t.exponent, {})[t.tpow] = t.coeff

    zero = GaussianRational(0) if exact else 0j
    result_terms = []
    for lam, powers in groups.items():
        big_k = max(powers)
        s = _rate_multiplicity(chain, lam, exact)
        # D[i] = p^(i)(lam) / i!
        d_values = {}
        for i in range(s, min(s + big_k, n) + 1):
            d_values[i] = chain[i].eval(lam) / math.factorial(i)
        coeffs: dict[int, object] = {}
        for m in range(big_k, -1, -1):
            target = powers.get(m, zero)
            acc = zero
            for j in range(m + s + 1, s + big_k + 1):
                i = j - m
                if i > n or i not in d_values:
                    continue
                acc = acc + d_values[i] * math.perm(j, i) * coeffs[j]
            denom = d_values[s] * math.perm(m + s, s)
            coeffs[m + s] = (target - acc) / denom
        for j, c in coeffs.items():
            result_terms.append(Term(c, j, 0, lam))
    return normalize(result_terms)

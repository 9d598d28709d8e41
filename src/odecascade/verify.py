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
from fractions import Fraction

from .algebra import REL_EPS, Expr, Term, _apply_by_shift, differentiate, normalize, scale
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


def apply_operator(ode: LinearODE, y: Expr) -> Expr:
    """Sum a_k * d^k y / dt^k, normalized.

    With exact coefficients and an exact ``y`` the operator is applied per
    rate lam by the exponential-shift identity

        p(D)[f e^(lam t)] = e^(lam t) * sum_i c_i f^(i),
        c_i = p^(i)(lam) / i! = sum_k a_k C(k, i) lam^(k-i),

    where f^(i) differentiates only the t^k ln(t)^m part (so logs and
    negative powers are covered).  The sum runs on Gaussian-integer
    numerators (:func:`odecascade.algebra._apply_by_shift`) and each output
    coefficient is reduced once.  Any float pair is differentiated k times
    and scaled, as the float residual verdicts expect.
    """
    if y.is_exact() and all(isinstance(a, Fraction) for a in ode.coeffs):
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
    """Exact differences must vanish; float ones within REL_EPS of the largest
    coefficient of ``refs``.  The float scale is computed on the float
    branch only, so an exact path never converts a coefficient to float
    (10^400 would overflow)."""
    if exact and diff.is_exact():
        return (diff.is_zero, STATUS_EXACT_ZERO if diff.is_zero else STATUS_NONZERO)
    scale_ref = max(max(ref.max_coeff_mag() for ref in refs), 1.0)
    ok = all(abs(t.coeff) <= REL_EPS * scale_ref for t in diff.terms)
    return (ok, STATUS_ZERO_TOL if ok else STATUS_NONZERO)


def residual_symbolic(ode: LinearODE, y_p: Expr) -> Residual:
    """Apply the operator, subtract the forcing, and test for zero.

    An exact equation with an exact candidate is checked exactly; any other
    pair is checked on the float backend (``ode.to_float()``).  The
    approximate backend's zero test is relative to the coefficient scale
    of L[y_p] and q, not of the residual itself, so cancellations down to
    roundoff count as zero.
    """
    if not (ode.is_exact() and y_p.is_exact()):
        ode = ode.to_float()
    applied = apply_operator(ode, y_p)
    diff = applied - ode.forcing
    exact = applied.is_exact() and ode.forcing.is_exact()
    is_zero, status = _zero_verdict(diff, exact, (applied, ode.forcing))
    return Residual(diff, is_zero, status)


def equal_mod_homogeneous(ode: LinearODE, y1: Expr, y2: Expr) -> bool:
    """True iff L[y1 - y2] is zero, i.e. y1 and y2 differ by a homogeneous
    solution: the right equivalence for particular solutions."""
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
            scale_ = sum(abs(complex(c)) for c in poly.coeffs) \
                * max(1.0, abs(complex(lam))) ** poly.degree
            if abs(complex(value)) > 1e-8 * max(scale_, 1.0):
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

    p = characteristic(ode)
    exact = q.is_exact() and all(isinstance(c, Fraction) for c in ode.coeffs)
    if not exact:
        q = q.to_float()
        p = CharPoly(tuple(float(c) for c in p.coeffs))
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

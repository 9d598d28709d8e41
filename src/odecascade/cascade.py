"""The cascaded first-order solver.

Factoring the operator p(D) into first-order factors (D - r_i I) reduces the
equation to one first-order linear solve per characteristic root.  Each stage
applies the integrating-factor formula

    phi(t) = e^(r t) * integral( e^(-r t) * g(t) dt )

with the constant of integration omitted, so the output is one specific
particular solution.  The stage is computed per forcing rate lam
(:func:`odecascade.algebra.solve_stage`): the part P(t) e^(lam t) of g
gives Q(t) e^(lam t) with Q' + (lam - r) Q = P,
back-substituted from the top power down on the exact backend, while the
float backend keeps the integration-by-parts chain so its rounding, and the
float residual verdicts, stay as they were.  Resonant forcings need no
special casing: when a forcing rate equals the stage root, lam - r = 0 and
the antiderivative simply gains a power of t.

For a real problem the answer is replaced by its real part
(y + conj(y)) / 2, which differs from it by a homogeneous solution.  An
exact answer is symmetrized in one pass, each key (tpow, logpow, lam)
paired with (tpow, logpow, conj(lam)) and summed on Gaussian-integer
numerators (:func:`odecascade.algebra._real_part`); a float answer keeps
the scaled sum of the answer and its conjugate.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .algebra import Expr, _real_part, realify, scale, solve_stage
from .errors import NotClosedForm, NotConjugateSymmetric, VerificationFailed
from .model import LinearODE
from .roots import characteristic, find_roots
from .scalars import GaussianRational, as_scalar, conj as _conj, is_exact
from .verify import residual_symbolic


class CascadeStage(namedtuple("CascadeStage", "root input output")):
    """One first-order solve: output phi satisfies phi' - root*phi = input."""

    __slots__ = ()


class CascadeTrace(namedtuple("CascadeTrace",
                              "stages leading_coeff y_p y_p_real roots residual",
                              defaults=(None, None))):
    """Full derivation record.

    ``stages[i].output`` is ``stages[i+1].input``; the first input is the
    forcing divided by the leading coefficient.  ``y_p`` is the final
    particular solution (conjugate-symmetrized for real problems, which can
    only change it by a homogeneous solution); ``y_p_real`` is its real form
    when the problem is real.  ``roots`` (the characteristic
    :class:`~odecascade.roots.RootSet`) and ``residual`` (the
    :class:`~odecascade.verify.Residual` of ``y_p``) are filled in by
    :func:`particular_solution`; they are None on a trace from
    :func:`cascade` alone.
    """

    __slots__ = ()


def solve_first_order(r, g: Expr) -> Expr:
    """Particular solution of phi' - r*phi = g (see :func:`solve_stage`)."""
    return solve_stage(r, g)


def _roots_conjugate_closed(seq) -> bool:
    if all(isinstance(r, GaussianRational) for r in seq):
        return Counter(seq) == Counter(_conj(r) for r in seq)
    values = [complex(r) for r in seq]
    tol = 1e-9 * (1.0 + max((abs(v) for v in values), default=0.0))
    unmatched = list(values)
    for v in values:
        target = v.conjugate()
        best = min(unmatched, key=lambda u: abs(u - target), default=None)
        if best is None or abs(best - target) > tol:
            return False
        unmatched.remove(best)
    return True


def cascade(roots_seq, q: Expr, a_n=1) -> CascadeTrace:
    """Run every stage across the given root sequence.

    ``roots_seq`` must already be expanded to the full equation order
    (repeated roots listed repeatedly).  Raises :class:`NotClosedForm`,
    annotated with the failing stage, when an integrand leaves the algebra.
    """
    a_n = as_scalar(a_n)
    g = scale(GaussianRational(1) / a_n if is_exact(a_n) and q.is_exact()
              else 1.0 / complex(a_n), q)
    stages = []
    for idx, r in enumerate(roots_seq, start=1):
        try:
            phi = solve_first_order(r, g)
        except NotClosedForm as exc:
            raise NotClosedForm(
                f"stage {idx} (root {r}): {exc}", terms=exc.terms, stage=idx
            ) from exc
        stages.append(CascadeStage(as_scalar(r), g, phi))
        g = phi

    y_p = g
    y_real = None
    if _roots_conjugate_closed([st.root for st in stages]) and q.conjugate().approx_equal(q):
        # Real problem: drop the skew part, which is a homogeneous solution,
        # so the result is a real function.
        y_p = _real_part(y_p) if y_p.is_exact() else scale(0.5, y_p + y_p.conjugate())
        try:
            y_real = realify(y_p)
        except NotConjugateSymmetric:
            y_real = None
    return CascadeTrace(tuple(stages), a_n, y_p, y_real)


def particular_solution(ode: LinearODE):
    """End-to-end pipeline: characteristic -> roots -> cascade -> realify.

    Returns ``(solution, trace)`` where the solution is the real form when
    the problem admits one, otherwise the complex-exponential form; the
    trace carries the roots and the residual computed on the way.  The
    result is checked against the equation before returning; a nonzero
    residual raises :class:`VerificationFailed` (internal bug guard).
    """
    rootset = find_roots(characteristic(ode))
    q = ode.forcing
    a_n = ode.coeffs[-1]
    if not rootset.all_exact() or not q.is_exact():
        float_ode = ode.to_float()
        q, a_n = float_ode.forcing, float_ode.coeffs[-1]
        seq = tuple(complex(r) for r in rootset.expand())
    else:
        seq = rootset.expand()
    trace = cascade(seq, q, a_n)
    res = residual_symbolic(ode, trace.y_p)
    if not res.is_zero:
        raise VerificationFailed(
            f"cascade result failed the residual check: {res.expr!r}"
        )
    trace = trace._replace(roots=rootset, residual=res)
    solution = trace.y_p_real if trace.y_p_real is not None else trace.y_p
    return solution, trace

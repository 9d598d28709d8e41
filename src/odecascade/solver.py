"""The cascaded first-order solver.

The backend is chosen in one place, :func:`plan`: it finds the roots once
and takes the exact route when every root is a Gaussian rational and the
forcing is exact, else the float route, converting the equation once.

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

A problem is real when both halves are: the multiset of stage roots equals
its conjugate, compared exactly on either backend (:func:`find_roots`
returns float pairs conjugate bit for bit), and the first stage input
q/a_n is conjugate-symmetric, which :func:`~odecascade.algebra.realify`
decides.  Testing q/a_n rather than q is what makes a complex leading
coefficient give a complex answer.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .algebra import Expr, _real_part, realify, scale, solve_stage
from .errors import NonConvergence, NotClosedForm, NotConjugateSymmetric, VerificationFailed
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
    :func:`particular_solution` (``roots`` is its plan's); they are None on
    a trace from :func:`cascade` alone.
    """

    __slots__ = ()


def solve_first_order(r, g: Expr) -> Expr:
    """Particular solution of phi' - r*phi = g (see :func:`solve_stage`)."""
    return solve_stage(r, g)


def cascade(roots_seq, q: Expr, a_n=1) -> CascadeTrace:
    """Run every stage across the given root sequence.

    ``roots_seq`` must already be expanded to the full equation order
    (repeated roots listed repeatedly).  Raises :class:`NotClosedForm`,
    annotated with the failing stage, when an integrand leaves the algebra.
    """
    a_n = as_scalar(a_n)
    g = first = scale(GaussianRational(1) / a_n if is_exact(a_n) and q.is_exact()
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

    y_p, y_real = g, None
    roots = [st.root for st in stages]
    if Counter(roots) == Counter(map(_conj, roots)):
        try:
            realify(first)  # raises unless q/a_n is a real function
            # Real problem: drop the skew part, which is a homogeneous
            # solution, so the result is a real function.
            y_p = _real_part(g) if g.is_exact() else scale(0.5, g + g.conjugate())
            y_real = realify(y_p)
        except NotConjugateSymmetric:
            pass
    return CascadeTrace(tuple(stages), a_n, y_p, y_real)


class SolvePlan(namedtuple("SolvePlan", "ode roots seq")):
    """One solve's route: the equation the stages and the residual check run
    on (the input, or its float conversion), the characteristic
    :class:`~odecascade.roots.RootSet` and the stage roots in that backend."""

    __slots__ = ()


def plan(ode: LinearODE, backend=None) -> SolvePlan:
    """Find the roots and choose the backend, each once: exact when every
    root is a Gaussian rational and the forcing is exact, else float.

    ``backend="exact"`` (``solve --exact``) refuses a root that is not a
    Gaussian rational with :class:`NonConvergence` before converting
    anything; ``"float"`` (``solve --float``) takes the float route,
    converting before the roots are found from the exact coefficients.
    """
    if backend not in (None, "exact", "float"):
        raise ValueError(f"backend must be None, 'exact' or 'float', not {backend!r}")
    float_ode = ode.to_float() if backend == "float" else None
    rootset = find_roots(characteristic(ode))
    if backend == "exact" and not rootset.all_exact():
        raise NonConvergence("roots are not expressible as Gaussian rationals", ())
    if float_ode is None:
        if rootset.all_exact() and ode.forcing.is_exact():
            return SolvePlan(ode, rootset, rootset.expand())
        float_ode = ode.to_float()
    return SolvePlan(float_ode, rootset, tuple(complex(r) for r in rootset.expand()))


def particular_solution(ode):
    """End-to-end pipeline: plan -> cascade -> realify.

    ``ode`` is a :class:`LinearODE` or a :class:`SolvePlan` made for one.
    Returns ``(solution, trace)`` where the solution is the real form when
    the problem admits one, otherwise the complex-exponential form; the
    trace carries the plan's roots and the residual computed on the way.
    The result is checked against the plan's equation before returning; a
    nonzero residual raises :class:`VerificationFailed` (internal bug guard).
    """
    p = ode if isinstance(ode, SolvePlan) else plan(ode)
    trace = cascade(p.seq, p.ode.forcing, p.ode.coeffs[-1])
    res = residual_symbolic(p.ode, trace.y_p)
    if not res.is_zero:
        raise VerificationFailed(
            f"cascade result failed the residual check: {res.expr!r}"
        )
    trace = trace._replace(roots=p.roots, residual=res)
    solution = trace.y_p_real if trace.y_p_real is not None else trace.y_p
    return solution, trace

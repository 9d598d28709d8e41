"""Characteristic polynomial construction and root finding.

The exact path finds every rational root by divisor search (deflating for
multiplicity) and solves a remaining quadratic factor in closed form when its
roots are Gaussian rationals.  Anything left over goes to a simultaneous
Aberth-Ehrlich iteration with Newton polishing and cluster-based multiplicity
detection.  The numeric path is capped at degree 12.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from .errors import DegreeLimitExceeded, NonConvergence, OverflowGuard
from .model import LinearODE
from .scalars import GaussianRational, rational_sqrt

NUMERIC_DEGREE_CAP = 12

#: Most Aberth sweeps the numeric root finder runs before its residual check.
_MAX_SWEEPS = 200

#: Roots closer than CLUSTER_RADIUS * (1 + max|root|) merge into one entry.
#: Multiple roots perturb as tol**(1/m), so this is much looser than the
#: residual tolerance.
CLUSTER_RADIUS = 1e-6


class CharPoly(namedtuple("CharPoly", "coeffs")):
    """p(r) = a_n r^n + ... + a_0, coefficients ascending, a_n != 0.

    Characteristic polynomials have degree >= 1; degree 0 only appears in
    internal derivative chains.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if len(coeffs) > 1 and not coeffs[-1]:
            raise ValueError("leading coefficient must be nonzero")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coeffs)

    def eval(self, r):
        value = 0
        for c in reversed(self.coeffs):
            value = value * r + c
        return value

    def derivative(self) -> "CharPoly":
        return CharPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def deflate(self, root):
        """Synthetic division by (r - root); returns (quotient, remainder)."""
        quot = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * root + c
            quot.append(acc)
        remainder = quot.pop()
        quot.reverse()
        return quot, remainder


def characteristic(ode: LinearODE) -> CharPoly:
    """Characteristic polynomial of the equation: a_k copied by order."""
    return CharPoly(tuple(ode.coeffs))


#: value is a GaussianRational or a complex
RootEntry = namedtuple("RootEntry", "value multiplicity exact")


class RootSet(namedtuple("RootSet", "entries")):
    """Roots with multiplicities, ordered descending by (Re, Im)."""

    __slots__ = ()

    def __new__(cls, entries):
        return super().__new__(cls, tuple(sorted(
            entries, key=lambda e: (-e.value.real, -e.value.imag))))

    @property
    def degree(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def all_exact(self) -> bool:
        return all(e.exact for e in self.entries)

    def expand(self) -> tuple:
        """Length-degree root sequence, repeated roots consecutive,
        descending by (Re, Im) -- the deterministic cascade order."""
        out = []
        for e in self.entries:
            out.extend([e.value] * e.multiplicity)
        return tuple(out)


def find_roots(p: CharPoly, tol: float = 1e-10, method: str = "auto") -> RootSet:
    """All complex roots of p with multiplicities, exact where possible.

    ``method`` is "auto" (exact path when the coefficients are rational,
    numeric fallback for what remains), "exact" (fail if anything is left
    over) or "numeric" (skip the exact path entirely).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if p.degree < 1:
        raise ValueError("root finding needs degree at least 1")
    if method not in ("auto", "exact", "numeric"):
        raise ValueError(f"unknown method {method!r}")

    entries: list[RootEntry] = []
    remaining = p

    if method != "numeric" and p.is_exact():
        exact_entries, remaining_coeffs = _exact_roots(
            [Fraction(c) for c in p.coeffs]
        )
        entries.extend(exact_entries)
        remaining = None
        if len(remaining_coeffs) > 1:
            if method == "exact":
                raise NonConvergence(
                    "roots are not expressible as Gaussian rationals", ()
                )
            try:
                remaining = CharPoly(tuple(float(c) for c in remaining_coeffs))
            except (OverflowError, ValueError) as exc:  # ValueError: lead underflows
                raise OverflowGuard(
                    f"a characteristic coefficient has no double value: {exc}"
                ) from exc
    elif method == "exact":
        raise NonConvergence("exact root finding needs rational coefficients", ())

    if remaining is not None:
        entries.extend(_numeric_roots(remaining, tol))

    return RootSet(tuple(entries))


# ---------------------------------------------------------------------------
# exact path
# ---------------------------------------------------------------------------

_DIVISOR_LIMIT = 10 ** 12


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _exact_roots(coeffs: list[Fraction]):
    """Rational roots by divisor search, then a Gaussian-rational quadratic.

    Returns (entries, leftover_coeffs); leftover has no rational roots and,
    if quadratic, no Gaussian-rational roots either.
    """
    entries: list[RootEntry] = []

    # roots at zero
    zero_mult = 0
    while len(coeffs) > 1 and not coeffs[0]:
        coeffs = coeffs[1:]
        zero_mult += 1
    if zero_mult:
        entries.append(RootEntry(GaussianRational(0), zero_mult, True))

    if len(coeffs) > 1:
        # clear denominators and common factors for the divisor search
        lcm = 1
        for c in coeffs:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        ints = [int(c * lcm) for c in coeffs]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]

        if abs(ints[0]) <= _DIVISOR_LIMIT and abs(ints[-1]) <= _DIVISOR_LIMIT:
            candidates = []
            for pnum in _divisors(ints[0]):
                for qden in _divisors(ints[-1]):
                    cand = Fraction(pnum, qden)
                    candidates.extend((cand, -cand))
            poly = CharPoly(tuple(coeffs))
            seen = set()
            for cand in candidates:
                if cand in seen:
                    continue
                seen.add(cand)
                mult = 0
                while poly.degree >= 1 and poly.eval(cand) == 0:
                    quot, _ = poly.deflate(cand)
                    mult += 1
                    if len(quot) == 1:
                        poly = None
                        break
                    poly = CharPoly(tuple(quot))
                if mult:
                    entries.append(RootEntry(GaussianRational(cand), mult, True))
                if poly is None or poly.degree < 1:
                    break
            coeffs = list(poly.coeffs) if poly is not None else [Fraction(1)]

    if len(coeffs) == 2:
        root = Fraction(-coeffs[0] / coeffs[1])
        entries.append(RootEntry(GaussianRational(root), 1, True))
        coeffs = [Fraction(1)]
    elif len(coeffs) == 3:
        a2, a1, a0 = coeffs[2], coeffs[1], coeffs[0]
        disc = a1 * a1 - 4 * a2 * a0
        if disc < 0:
            s = rational_sqrt(-disc)
            if s is not None:
                re = -a1 / (2 * a2)
                im = s / (2 * a2)
                entries.append(RootEntry(GaussianRational(re, abs(im)), 1, True))
                entries.append(RootEntry(GaussianRational(re, -abs(im)), 1, True))
                coeffs = [Fraction(1)]
        else:
            s = rational_sqrt(disc)
            if s is not None:
                for sgn in (1, -1):
                    root = (-a1 + sgn * s) / (2 * a2)
                    entries.append(RootEntry(GaussianRational(root), 1, True))
                coeffs = [Fraction(1)]

    # merge duplicated values defensively
    merged: dict = {}
    for e in entries:
        if e.value in merged:
            old = merged[e.value]
            merged[e.value] = RootEntry(e.value, old.multiplicity + e.multiplicity,
                                        old.exact and e.exact)
        else:
            merged[e.value] = e
    return list(merged.values()), coeffs


# ---------------------------------------------------------------------------
# numeric path
# ---------------------------------------------------------------------------

def _horner_pair(coeffs: list[complex], z: complex):
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _residual_bound(coeffs: list[complex], z: complex) -> float:
    az = abs(z)
    s = 0.0
    for k, c in enumerate(coeffs):
        s += abs(c) * az ** k
    return s


def _numeric_roots(p: CharPoly, tol: float) -> list[RootEntry]:
    degree = p.degree
    if degree > NUMERIC_DEGREE_CAP:
        raise DegreeLimitExceeded(
            f"numeric root finding is limited to degree {NUMERIC_DEGREE_CAP}, "
            f"got {degree}"
        )
    coeffs = [complex(c) for c in p.coeffs]
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    real_input = all(abs(c.imag) == 0.0 for c in coeffs)

    # roots at exactly zero
    zero_mult = 0
    while len(monic) > 1 and monic[0] == 0:
        monic = monic[1:]
        zero_mult += 1
    n = len(monic) - 1

    roots: list[complex] = []
    sweeps_used = 0
    if n >= 1:
        radius = 1.0 + max(abs(c) for c in monic[:-1])
        roots = [
            radius * 0.8 * cmath.exp(2j * math.pi * k / n + 0.4j) for k in range(n)
        ]
        eps = 2.22e-16
        for sweep in range(_MAX_SWEEPS):
            sweeps_used = sweep + 1
            max_step = 0.0
            converged = True
            for i in range(n):
                z = roots[i]
                pv, dpv = _horner_pair(monic, z)
                if abs(pv) > 8 * n * eps * _residual_bound(monic, z):
                    converged = False
                if pv == 0:
                    continue
                if dpv == 0:
                    roots[i] = z + 1e-8 * (1 + abs(z))
                    continue
                w = pv / dpv
                s = 0j
                for j in range(n):
                    if j != i and roots[i] != roots[j]:
                        s += 1.0 / (roots[i] - roots[j])
                denom = 1.0 - w * s
                step = w if denom == 0 else w / denom
                roots[i] = z - step
                max_step = max(max_step, abs(step) / (1.0 + abs(roots[i])))
            if converged or max_step < 1e-15:
                break

        roots = _polish(monic, roots)

        scale = max(abs(z) for z in roots)
        radius_tol = CLUSTER_RADIUS * (1.0 + scale)
        if real_input:
            roots = _symmetrize(roots, radius_tol)

    entries = _cluster(roots, zero_mult)

    # residual acceptance: |p(r)| <= tol * max|coeff|
    coeff_scale = max(abs(c) for c in coeffs)
    residuals = []
    for e in entries:
        res = abs(p.eval(complex(e.value)))
        residuals.append(res)
        if res > tol * coeff_scale:
            raise NonConvergence(
                f"root iteration did not meet the residual bound after "
                f"{sweeps_used} sweeps (|p(r)| = {res:.3e} at r = {e.value})",
                residuals=residuals,
            )
    return entries


#: Approximations of an m-fold root stagnate at distance ~eps**(1/m); this
#: radius groups them for multiplicity-aware polishing (reliable for
#: multiplicities up to about 6 at double precision).
_POLISH_RADIUS = 3e-3


def _poly_derivative(coeffs: list[complex]) -> list[complex]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _polish(monic: list[complex], roots: list[complex]) -> list[complex]:
    """Newton polishing with multiplicity awareness.

    An approximation with m neighbors within the stagnation radius is taken
    to sit near an m-fold root of p, which is a simple root of the (m-1)-th
    derivative; Newton there converges to machine precision, making the
    final 1e-6 clustering radius trivially sufficient.  A polished value is
    kept only when it does not worsen |p|.
    """
    n = len(roots)
    scale = max(abs(z) for z in roots)
    loose = _POLISH_RADIUS * (1.0 + scale)
    derivs = [monic]
    for _ in range(n):
        if len(derivs[-1]) <= 1:
            break
        derivs.append(_poly_derivative(derivs[-1]))

    out = []
    for i in range(n):
        z0 = roots[i]
        mult = sum(1 for j in range(n) if abs(roots[j] - z0) <= loose)
        mult = min(mult, len(derivs) - 1)
        target = derivs[mult - 1] if mult >= 1 else monic
        z = z0
        for _ in range(8 if mult > 1 else 3):
            pv, dpv = _horner_pair(target, z)
            if dpv == 0 or pv == 0:
                break
            step = pv / dpv
            if abs(step) > 10 * loose:
                break
            z = z - step
            if abs(step) < 1e-16 * (1.0 + abs(z)):
                break
        if abs(_horner_pair(monic, z)[0]) <= abs(_horner_pair(monic, z0)[0]) * (1 + 1e-9):
            out.append(z)
        else:
            out.append(z0)
    return out


def _symmetrize(roots: list[complex], radius_tol: float) -> list[complex]:
    """Force a conjugate-symmetric root list for real-coefficient input."""
    out = [complex(z.real, 0.0) if abs(z.imag) <= radius_tol else z for z in roots]
    upper = [i for i, z in enumerate(out) if z.imag > 0]
    lower = [i for i, z in enumerate(out) if z.imag < 0]
    used = set()
    for i in upper:
        best_j, best_d = None, None
        for j in lower:
            if j in used:
                continue
            d = abs(out[j] - out[i].conjugate())
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        if best_j is not None:
            avg = (out[i] + out[best_j].conjugate()) / 2.0
            out[i] = avg
            out[best_j] = avg.conjugate()
            used.add(best_j)
    return out


def _cluster(roots: list[complex], zero_mult: int) -> list[RootEntry]:
    entries: list[RootEntry] = []
    if roots:
        scale = max(abs(z) for z in roots)
        radius = CLUSTER_RADIUS * (1.0 + scale)
        remaining = list(roots)
        while remaining:
            seed = remaining.pop(0)
            cluster = [seed]
            changed = True
            while changed:
                changed = False
                for z in list(remaining):
                    if any(abs(z - c) <= radius for c in cluster):
                        cluster.append(z)
                        remaining.remove(z)
                        changed = True
            centroid = sum(cluster) / len(cluster)
            if abs(centroid.imag) <= radius:
                centroid = complex(centroid.real, 0.0)
            entries.append(RootEntry(centroid, len(cluster), False))
    if zero_mult:
        entries.append(RootEntry(0j, zero_mult, False))
    return entries


def expand_from_roots(entries, lead=1):
    """Rebuild ascending polynomial coefficients from (root, multiplicity)
    pairs; the reconstruction oracle for tests."""
    coeffs = [lead]
    for e in entries:
        for _ in range(e.multiplicity):
            nxt = [0] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k + 1] = nxt[k + 1] + c
                nxt[k] = nxt[k] - e.value * c
            coeffs = nxt
    return coeffs

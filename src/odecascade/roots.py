"""Characteristic polynomial construction and root finding.

The exact path finds every Gaussian-rational root in one route on integer
coefficients: it clears denominators, takes the square-free part
p / gcd(p, p') by a primitive pseudo-remainder sequence (Yun, SYMSAC '76),
and gets candidates from it in closed form up to degree 2, else by rounding
Aberth approximations z to round(L*z)/L, L its leading coefficient (Gauss's
lemma in Z[i]).  Each candidate counts only if its integer factor divides p
exactly, as many times as it divides.  What is left goes to a simultaneous
Aberth-Ehrlich iteration with Newton polishing and cluster-based
multiplicity detection, capped at degree 12.
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

#: Highest degree find_roots takes and order parse_ode takes: the exact route
#: grows with at least the square of the degree and ends well under a second
#: on a dense degree-64 polynomial with small coefficients.
ORDER_CAP = 64

#: A numeric root r is accepted when |p(r)| <= RESIDUAL_TOL * max|coeff|.
RESIDUAL_TOL = 1e-10

#: The exact route splits p square-free only while deg(p)^2 times the bits of
#: its largest integer coefficient is at most this: the integer gcd grows with
#: about its square (0.6 s at order 64 with 64 bits, 20 s at order 32 with
#: 2,658 bits).  Above it candidates come from p itself, not its split.
SPLIT_WORK_CAP = 2 ** 18

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


def find_roots(p: CharPoly) -> RootSet:
    """All complex roots of p with multiplicities, exact where possible.

    Rational coefficients take the exact route first, and what it leaves
    (roots that are not Gaussian rationals) goes to the numeric path, as do
    float coefficients.  Above degree ORDER_CAP it refuses before any work.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree at least 1")
    if p.degree > ORDER_CAP:
        raise DegreeLimitExceeded(
            f"root finding is limited to degree {ORDER_CAP}, got {p.degree}")
    if not p.is_exact():
        return RootSet(tuple(_numeric_roots(p)))
    entries, leftover = _exact_roots(p.coeffs)
    if len(leftover) > 1:
        try:
            remaining = CharPoly(tuple(float(c) for c in leftover))
        except (OverflowError, ValueError) as exc:  # ValueError: lead underflows
            raise OverflowGuard(
                f"a characteristic coefficient has no double value: {exc}"
            ) from exc
        entries.extend(_numeric_roots(remaining))
    return RootSet(tuple(entries))


# ---------------------------------------------------------------------------
# exact path: integer polynomials, ascending coefficients
# ---------------------------------------------------------------------------

def _exact_roots(coeffs):
    """Every Gaussian-rational root of a rational polynomial, with its
    multiplicity.

    Candidates come from the square-free part and each is checked by exact
    division of its integer factor, so a missed candidate leaves a root
    unfound but never gives a wrong one.  Returns (entries, leftover):
    coeffs divided by the found roots' factors, with coeffs' leading
    coefficient.
    """
    p = square_free = _primitive(coeffs)
    if (len(p) - 1) ** 2 * max(abs(c).bit_length() for c in p) <= SPLIT_WORK_CAP:
        square_free = _divide(p, _gcd(p, _primitive(_poly_derivative(p))))
    entries: list[RootEntry] = []
    for re, im in _candidates(square_free):
        factor = _primitive([re * re + im * im, -2 * re, 1] if im else [-re, 1])
        mult = 0
        while (quot := _divide(p, factor)) is not None:
            p, mult = quot, mult + 1
        if mult:
            entries.append(RootEntry(GaussianRational(re, im), mult, True))
            if im:
                entries.append(RootEntry(GaussianRational(re, -im), mult, True))
    scale = Fraction(coeffs[-1]) / p[-1]
    return entries, [c * scale for c in p]


def _candidates(s: list[int]) -> list:
    """Candidate roots (re, im), im >= 0, of the integer polynomial s,
    square-free unless the split was skipped: closed forms up to degree 2,
    else Aberth approximations z rounded to round(L*z)/L, L = lead(s).
    L*rho is a Gaussian integer for every Gaussian-rational root rho
    (Gauss's lemma in Z[i]), so a close enough z rounds to rho exactly."""
    lead = s[-1]
    if len(s) == 2:
        return [(Fraction(-s[0], lead), Fraction(0))]
    if len(s) == 3:
        disc = Fraction(s[1] * s[1] - 4 * lead * s[0])
        root = rational_sqrt(abs(disc))
        if root is None:
            return []
        if disc < 0:
            return [(Fraction(-s[1], 2 * lead), abs(root / (2 * lead)))]
        return [((sign * root - s[1]) / (2 * lead), Fraction(0)) for sign in (1, -1)]
    out = []
    try:
        approx, _ = _aberth([complex(c / lead) for c in s])
    except OverflowError:  # a coefficient ratio or an iterate past double range
        return out
    for z in approx:
        try:
            re, im = round(lead * z.real), round(lead * z.imag)
        except (OverflowError, ValueError):  # infinite or NaN
            continue
        out.append((Fraction(re, lead), Fraction(abs(im), lead)))
    return out


def _primitive(coeffs) -> list[int]:
    """Integer multiple of a rational polynomial with coprime coefficients."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Remainder of lead(b)^k * a divided by b, in integers (empty for 0)."""
    r, lead, n = list(a), b[-1], len(b) - 1
    while len(r) > n:
        top = r.pop()
        shift = len(r) - n
        r = [lead * c for c in r]
        for k in range(n):
            r[shift + k] -= top * b[k]
        while r and not r[-1]:
            r.pop()
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of two primitive integer polynomials, up to sign, by a primitive
    pseudo-remainder sequence."""
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _divide(a: list[int], d: list[int]):
    """a / d when the integer polynomial d divides a, else None.  For a
    primitive d, an exact quotient over Q is an integer one (Gauss's lemma)."""
    n = len(d) - 1
    r, lead, quot = list(a), d[-1], []
    for shift in range(len(a) - 1 - n, -1, -1):
        q, rem = divmod(r[shift + n], lead)
        if rem:
            return None
        quot.append(q)
        for k in range(n):
            r[shift + k] -= q * d[k]
    return None if any(r[:n]) else quot[::-1]


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


def _aberth(monic: list[complex]):
    """Simultaneous Aberth-Ehrlich sweeps on a monic polynomial of degree
    n >= 1; returns (the n approximations, sweeps run)."""
    n = len(monic) - 1
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    roots = [radius * 0.8 * cmath.exp(2j * math.pi * k / n + 0.4j) for k in range(n)]
    eps = 2.22e-16
    for sweeps_used in range(1, _MAX_SWEEPS + 1):
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
    return roots, sweeps_used


def _numeric_roots(p: CharPoly) -> list[RootEntry]:
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

    roots, sweeps_used = _aberth(monic) if len(monic) > 1 else ([], 0)
    if roots:
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
        if res > RESIDUAL_TOL * coeff_scale:
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

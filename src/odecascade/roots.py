"""Characteristic polynomial construction and root finding.

The exact path finds every Gaussian-rational root in one route on integer
coefficients: it clears denominators, takes the square-free part
p / gcd(p, p') by a primitive pseudo-remainder sequence (Yun, SYMSAC '76),
and gets candidates from it in closed form up to degree 2, else by rounding
Aberth approximations z to round(L*z)/L, L its leading coefficient (Gauss's
lemma in Z[i]).  Each candidate counts only if its integer factor divides p
exactly, as many times as it divides.  Float coefficients take the same
route, since a float is exactly a dyadic rational.

What is left splits into coprime square-free factors with their
multiplicities by Musser's gcd loop, so exact algebra, not a radius, sets
every multiplicity.  Each factor goes to a simultaneous Aberth-Ehrlich
iteration with a few Newton steps, capped at degree 12, and each of its
roots takes the factor's multiplicity.
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
#: 2,658 bits).  Above it candidates come from p itself, not its split, and
#: what the exact route leaves goes to the numeric path as one factor.
SPLIT_WORK_CAP = 2 ** 18

#: Most Aberth sweeps the numeric root finder runs before its residual check.
_MAX_SWEEPS = 200

#: A numeric root within REAL_AXIS_RADIUS * (1 + max|root|) of the real axis
#: is taken as real.
REAL_AXIS_RADIUS = 1e-6


class CharPoly(namedtuple("CharPoly", "coeffs")):
    """p(r) = a_n r^n + ... + a_0, coefficients ascending, a_n != 0.

    Coefficients are rationals or finite floats.  Characteristic
    polynomials have degree >= 1; degree 0 only appears in internal
    derivative chains.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if not all(isinstance(c, (int, Fraction)) or isinstance(c, float) and math.isfinite(c)
                   for c in coeffs):
            raise ValueError("coefficients must be rational or finite floats")
        if len(coeffs) > 1 and not coeffs[-1]:
            raise ValueError("leading coefficient must be nonzero")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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

    Every coefficient, a float too, takes the exact route as the rational it
    holds.  What it leaves (roots that are not Gaussian rationals) is split
    into square-free factors, and each goes to the numeric path.  Above
    degree ORDER_CAP it refuses before any work.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree at least 1")
    if p.degree > ORDER_CAP:
        raise DegreeLimitExceeded(
            f"root finding is limited to degree {ORDER_CAP}, got {p.degree}")
    entries, leftover = _exact_roots([Fraction(c) for c in p.coeffs])
    if len(leftover) > 1:
        for factor, mult in _square_free_factors(leftover):
            try:
                remaining = CharPoly(tuple(float(c) for c in factor))
            except (OverflowError, ValueError) as exc:  # ValueError: lead underflows
                raise OverflowGuard(
                    f"a characteristic coefficient has no double value: {exc}"
                ) from exc
            entries.extend(_numeric_roots(remaining, mult))
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
    if _splits(p):
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


def _square_free_factors(leftover) -> list:
    """(factor, multiplicity) pairs, the factors coprime and square-free with
    a product equal to the rational polynomial ``leftover`` up to a constant,
    by Musser's gcd loop on integers.  A square-free leftover, or one past
    SPLIT_WORK_CAP, is its own only factor, of multiplicity 1."""
    p = _primitive(leftover)
    rest = _gcd(p, _primitive(_poly_derivative(p))) if _splits(p) else [1]
    if len(rest) == 1:  # else rest = prod a_i^(i-1) for p = prod a_i^i
        return [(leftover, 1)]
    distinct, out, mult = _divide(p, rest), [], 1  # distinct = prod a_i over i >= mult
    while len(rest) > 1:
        repeated = _gcd(distinct, rest)
        if len(simple := _divide(distinct, repeated)) > 1:
            out.append((simple, mult))
        distinct, rest, mult = repeated, _divide(rest, repeated), mult + 1
    return [*out, (distinct, mult)]


def _splits(p: list[int]) -> bool:
    """Whether the integer polynomial p is within SPLIT_WORK_CAP."""
    return (len(p) - 1) ** 2 * max(abs(c).bit_length() for c in p) <= SPLIT_WORK_CAP


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


def _numeric_roots(p: CharPoly, multiplicity: int) -> list[RootEntry]:
    """Approximate roots of a square-free real p, each of the given
    multiplicity, every one checked by the residual bound."""
    if p.degree > NUMERIC_DEGREE_CAP:
        raise DegreeLimitExceeded(
            f"numeric root finding is limited to degree {NUMERIC_DEGREE_CAP}, "
            f"got {p.degree}"
        )
    coeffs = [complex(c) for c in p.coeffs]
    monic = [c / coeffs[-1] for c in coeffs]
    try:
        roots, sweeps_used = _aberth(monic)
    except OverflowError as exc:  # a coefficient ratio or an iterate past double range
        raise OverflowGuard(f"numeric root finding left double range: {exc}") from exc
    roots = _polish(monic, roots)
    roots = _symmetrize(roots, REAL_AXIS_RADIUS * (1.0 + max(abs(z) for z in roots)))

    # residual acceptance: |p(r)| <= tol * max|coeff|
    coeff_scale = max(abs(c) for c in coeffs)
    residuals = []
    for z in roots:
        res = abs(p.eval(z))
        residuals.append(res)
        if res > RESIDUAL_TOL * coeff_scale:
            raise NonConvergence(
                f"root iteration did not meet the residual bound after "
                f"{sweeps_used} sweeps (|p(r)| = {res:.3e} at r = {z})",
                residuals=residuals,
            )
    return [RootEntry(z, multiplicity, False) for z in roots]


#: Newton steps longer than 10 * _STEP_RADIUS * (1 + max|root|) are not taken.
_STEP_RADIUS = 3e-3


def _poly_derivative(coeffs: list) -> list:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _polish(monic: list[complex], roots: list[complex]) -> list[complex]:
    """At most three Newton steps per root; a polished value is kept only
    when it does not worsen |p|."""
    loose = _STEP_RADIUS * (1.0 + max(abs(z) for z in roots))
    out = []
    for z0 in roots:
        z = z0
        for _ in range(3):
            pv, dpv = _horner_pair(monic, z)
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

"""Characteristic polynomial construction and root finding.

One exact route takes every coefficient, a float too, since a float is
exactly a dyadic rational.  It clears denominators and splits the primitive
integer polynomial once into coprime square-free factors with their
multiplicities, by Musser's gcd loop on the heuristic gcd GCDHEU (Char,
Geddes & Gonnet, J. Symbolic Comput. 1989), so exact algebra, not a radius,
sets every multiplicity.  Each factor gives candidates in closed form up to
degree 2, else by rounding Aberth approximations z to round(L*z)/L, L its
leading coefficient (Gauss's lemma in Z[i]).  A candidate counts only if
its integer factor divides the factor exactly, and takes the factor's
multiplicity.

What a factor keeps goes, as the correctly rounded floats of its monic
ratios, to a simultaneous Aberth-Ehrlich iteration with a few Newton steps,
capped at degree 12, and each of its roots takes the factor's multiplicity.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from .errors import DegreeLimitExceeded, NonConvergence, OverflowGuard
from .model import LinearODE
from .scalars import GaussianRational, rational_sqrt, to_double

NUMERIC_DEGREE_CAP = 12

#: Highest degree find_roots takes and order parse_ode takes: the exact route
#: grows with at least the square of the degree and ends well under a second
#: on a dense degree-64 polynomial with small coefficients.
ORDER_CAP = 64

#: A numeric root r is accepted when |p(r)| <= RESIDUAL_TOL * max|coeff|.
RESIDUAL_TOL = 1e-10

#: find_roots refuses p, before any gcd, when its degree times the bits of
#: its largest integer coefficient (denominators cleared) passes this: the
#: square-free split's gcds grow with about that product squared.
SPLIT_BITS_CAP = 2 ** 18

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
    holds: p splits once into coprime square-free integer factors, each root
    takes its factor's multiplicity, and what a factor keeps after its
    Gaussian-rational roots are divided out goes to the numeric path.  Above
    degree ORDER_CAP, or past SPLIT_BITS_CAP, it refuses before any work.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree at least 1")
    if p.degree > ORDER_CAP:
        raise DegreeLimitExceeded(
            f"root finding is limited to degree {ORDER_CAP}, got {p.degree}")
    ints = _primitive([Fraction(c) for c in p.coeffs])
    bits = max(abs(c).bit_length() for c in ints)
    if p.degree * bits > SPLIT_BITS_CAP:
        raise DegreeLimitExceeded(
            f"root finding is limited to {SPLIT_BITS_CAP} for the degree times the bits "
            f"of the largest integer coefficient, got {p.degree} * {bits}")
    entries: list[RootEntry] = []
    for factor, mult in _square_free_factors(ints):
        for re, im in _candidates(factor):
            quot = _divide(factor, _primitive([re * re + im * im, -2 * re, 1] if im
                                              else [-re, 1]))
            if quot is not None:
                factor = quot
                entries.append(RootEntry(GaussianRational(re, im), mult, True))
                if im:
                    entries.append(RootEntry(GaussianRational(re, -im), mult, True))
        if len(factor) > 1:  # as the correctly rounded ratios c_k / lead
            monic = [complex(to_double(Fraction(c, factor[-1]), "a characteristic coefficient"))
                     for c in factor]
            entries.extend(_numeric_roots(monic, mult))
    return RootSet(tuple(entries))


# ---------------------------------------------------------------------------
# exact path: integer polynomials, ascending coefficients
# ---------------------------------------------------------------------------

def _candidates(s: list[int]) -> list:
    """Candidate roots (re, im), im >= 0, of the square-free integer
    polynomial s: closed forms up to degree 2, else Aberth approximations z
    rounded to round(L*z)/L, L = lead(s).  L*rho is a Gaussian integer for
    every Gaussian-rational root rho (Gauss's lemma in Z[i]), so a close
    enough z rounds to rho exactly."""
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


def _square_free_factors(p: list[int]) -> list:
    """(factor, multiplicity) pairs, the factors coprime and square-free with
    a product equal to the primitive integer polynomial p up to sign, by
    Musser's gcd loop."""
    rest = _gcd(p, _primitive(_poly_derivative(p)))  # prod a_i^(i-1) for p = prod a_i^i
    distinct, out, mult = _divide(p, rest), [], 1  # distinct = prod a_i over i >= mult
    while len(rest) > 1:
        repeated = _gcd(distinct, rest)
        if len(simple := _divide(distinct, repeated)) > 1:
            out.append((simple, mult))
        distinct, rest, mult = repeated, _divide(rest, repeated), mult + 1
    return [*out, (distinct, mult)]


def _primitive(coeffs) -> list[int]:
    """Integer multiple of a rational polynomial with coprime coefficients."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of two primitive integer polynomials, up to sign, by the heuristic
    gcd (Char, Geddes & Gonnet, J. Symbolic Comput. 1989): the symmetric
    xi-adic digits of gcd(a(xi), b(xi)) for xi >= 2 min(|a|, |b|) + 2 give
    the gcd when their primitive part divides both, else xi grows.  A wrong
    gcd is never returned.  The spurious integer factor divides the
    resultant of the cofactors, so past 2^limit (limit from the Mignotte and
    Hadamard bounds) the digits are the gcd, and the loop ends there."""
    n = len(a) + len(b) - 2
    bits = max(abs(c).bit_length() for c in (*a, *b))
    limit = (n + 1) * (n + bits + 1)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        h, digits = math.gcd(CharPoly(a).eval(xi), CharPoly(b).eval(xi)), []
        while h:
            digit = h % xi
            digit -= xi if 2 * digit > xi else 0
            digits.append(digit)
            h = (h - digit) // xi
        g = _primitive(digits)
        if _divide(a, g) is not None and _divide(b, g) is not None:
            return g
        if xi.bit_length() > limit:
            raise NonConvergence(f"the heuristic gcd passed its bound of 2^{limit}")
        xi = xi * math.isqrt(math.isqrt(xi)) * 73794 // 27011


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


def _numeric_roots(monic: list[complex], multiplicity: int) -> list[RootEntry]:
    """Approximate roots of a square-free real monic polynomial, each of the
    given multiplicity, every one checked by the residual bound."""
    degree = len(monic) - 1
    if degree > NUMERIC_DEGREE_CAP:
        raise DegreeLimitExceeded(
            f"numeric root finding is limited to degree {NUMERIC_DEGREE_CAP}, "
            f"got {degree}"
        )
    try:
        roots, sweeps_used = _aberth(monic)
    except OverflowError as exc:  # an iterate past double range
        raise OverflowGuard(f"numeric root finding left double range: {exc}") from exc
    roots = _polish(monic, roots)
    roots = _symmetrize(roots, REAL_AXIS_RADIUS * (1.0 + max(abs(z) for z in roots)))

    # residual acceptance: |p(r)| <= tol * max|coeff|
    coeff_scale = max(abs(c) for c in monic)
    residuals = []
    for z in roots:
        res = abs(_horner_pair(monic, z)[0])
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

"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed and
returns equation text in the form of ``docs/grammar.ebnf``; the program under
test sees nothing else.  Each item also carries the generator's own tags
(exact or float arithmetic, log forcing), which are derived from how the
equation was built and never from the program, so the checks and digests
cover the same inputs whatever a later version of the solver does with them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

#: Lowest forcing degree of the ``float_low`` family; from there up the float
#: path failed its own residual check (exit 4) at the seed version.
DEFECT_DEGREE = 6

#: The three varcoef arguments the CLI workload passes (default step 1e-3).
VARCOEF_ARGS = ("1.0", "1", "exp(x^2/2)")

#: CLI commands of the ``cli_cold`` rotation, by metric name.
CLI_COMMANDS = ("solve", "solve_json_steps", "roots", "verify", "eval", "varcoef")


@dataclass(frozen=True)
class Item:
    """One equation and the generator's tags for it."""

    text: str
    family: str
    order: int
    degree: int     # highest power of t in the forcing
    exact: bool     # all roots Gaussian-rational by construction
    log: bool       # forcing contains ln(t)


# ---------------------------------------------------------------------------
# text helpers
# ---------------------------------------------------------------------------

def _num(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _rate_arg(rate: Fraction) -> str:
    """Linear argument ``c*t`` for exp/sin/cos."""
    if rate == 1:
        return "t"
    if rate == -1:
        return "-t"
    if rate.denominator == 1:
        return f"{rate.numerator}t"
    return f"{_num(rate)}*t"


def _y_part(k: int, rng: random.Random) -> str:
    if k == 0:
        return "y"
    if k <= 3 and rng.random() < 0.7:
        return "y" + "'" * k
    return f"y^({k})"


def lhs_text(coeffs, rng: random.Random) -> str:
    """Left side from integer coefficients a_0..a_n (ascending)."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mag = abs(c)
        body = ("" if mag == 1 else str(mag)) + _y_part(k, rng)
        parts.append(("-" if c < 0 else "+", body))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    return out + "".join(f" {s} {b}" for s, b in parts[1:])


def _term_text(coeff: Fraction, k: int, factors: list[str]) -> tuple[str, str]:
    """(sign, body) of c * t^k * factors."""
    pieces = []
    mag = abs(coeff)
    if mag != 1 or (k == 0 and not factors):
        pieces.append(_num(mag))
    if k == 1:
        pieces.append("t")
    elif k > 1:
        pieces.append(f"t^{k}")
    pieces.extend(factors)
    return ("-" if coeff < 0 else "+", "*".join(pieces))


def _join(terms) -> str:
    first_sign, first = terms[0]
    out = ("-" if first_sign == "-" else "") + first
    return out + "".join(f" {s} {b}" for s, b in terms[1:])


def _poly_from_roots(roots) -> list[Fraction]:
    """Monic coefficients (ascending) of prod (r - root), real roots only."""
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return coeffs


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _integer_coeffs(coeffs) -> list[int]:
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c * lcm) for c in coeffs]


# ---------------------------------------------------------------------------
# small_mix
# ---------------------------------------------------------------------------

RATIONAL_ROOTS = [Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)] + [
    Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(-3, 2)]
PAIRS = [(Fraction(re), Fraction(im)) for re in (-2, -1, 0, 1) for im in (1, 2, 3)] + [
    (Fraction(1, 2), Fraction(1)), (Fraction(-1), Fraction(1, 2))]
COEFFS = [Fraction(v) for v in (1, 1, 2, 3, 5, -1, -2, -4)] + [
    Fraction(1, 2), Fraction(3, 2), Fraction(-2, 3)]
RATES = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-1, 2)]
FREQS = [Fraction(v) for v in (1, 2, 3)] + [Fraction(1, 2)]


def _forcing(rng: random.Random, real_roots, pair, degree: int, n_terms: int,
             resonance: float) -> str:
    """``n_terms`` log-free terms, the first of degree ``degree`` and the
    rest of lower or equal degree."""
    terms = []
    seen = set()
    for idx in range(n_terms):
        k = degree if idx == 0 else rng.randint(0, degree)
        c = rng.choice(COEFFS)
        shape = rng.random()
        resonant = rng.random() < resonance
        if shape < 0.45:
            lam = rng.choice(real_roots) if resonant and real_roots else rng.choice(RATES)
            factors = [f"exp({_rate_arg(lam)})"] if lam else []
            key = ("e", lam)
        elif shape < 0.85:
            if resonant and pair is not None:
                re, om = pair
            else:
                re, om = rng.choice((Fraction(0), Fraction(0), rng.choice(RATES))), rng.choice(FREQS)
            trig = rng.choice(("sin", "cos"))
            factors = ([f"exp({_rate_arg(re)})"] if re else []) + [f"{trig}({_rate_arg(om)})"]
            key = (trig, re, om)
        else:
            factors = []
            key = ("p",)
        if (key, k) in seen:
            continue
        seen.add((key, k))
        terms.append(_term_text(c, k, factors))
    return _join(terms)


def _exact_item(rng: random.Random, order: int, degree: int, n_terms: int) -> Item:
    pair = None
    roots: list[Fraction] = []
    if order >= 2 and rng.random() < 0.45:
        pair = rng.choice(PAIRS)
    while len(roots) < order - (2 if pair else 0):
        r = rng.choice(RATIONAL_ROOTS)
        copies = rng.randint(1, order - (2 if pair else 0) - len(roots))
        roots.extend([r] * copies)
    poly = _poly_from_roots(roots)
    if pair is not None:
        re, im = pair
        poly = _poly_mul(poly, [re * re + im * im, -2 * re, Fraction(1)])
    coeffs = _integer_coeffs(poly)
    rhs = _forcing(rng, sorted(set(roots)), pair, degree, n_terms, 0.35)
    return Item(f"{lhs_text(coeffs, rng)} = {rhs}", "exact", order, degree, True, False)


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _irrational_factor(rng: random.Random, degree: int) -> list[int]:
    """Monic integer polynomial of degree 2 or 3 irreducible over Q."""
    while True:
        if degree == 2:
            b, c = rng.randint(-3, 3), rng.randint(-4, 4)
            disc = b * b - 4 * c
            if c and not _is_square(abs(disc)):
                return [c, b, 1]
        else:
            a, b, c = rng.randint(-2, 2), rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2, 3))
            cands = [d for d in range(1, abs(c) + 1) if c % d == 0]
            if all(x ** 3 + a * x * x + b * x + c for d in cands for x in (d, -d)):
                return [c, b, a, 1]


def _float_item(rng: random.Random, order: int, degree: int, n_terms: int) -> Item:
    irr_deg = 3 if order >= 3 and rng.random() < 0.4 else 2
    poly = [Fraction(v) for v in _irrational_factor(rng, irr_deg)]
    roots = [Fraction(rng.randint(-2, 2)) for _ in range(order - irr_deg)]
    poly = _poly_mul(poly, _poly_from_roots(roots))
    coeffs = _integer_coeffs(poly)
    rhs = _forcing(rng, sorted(set(roots)), None, degree, n_terms, 0.3)
    return Item(f"{lhs_text(coeffs, rng)} = {rhs}", "float", order, degree, False, False)


LOG_ROOTS = [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2)]


def _log_item(rng: random.Random, order: int, k: int) -> Item:
    """p(D) = lead*(D - r)^n with a ln(t) forcing at rate r: the only shape
    the cascade closes, since every stage then shifts the log to rate 0."""
    r = rng.choice(LOG_ROOTS)
    coeffs = _integer_coeffs(_poly_from_roots([r] * order))
    factors = ["ln(t)"] + ([f"exp({_rate_arg(r)})"] if r else [])
    terms = [_term_text(rng.choice(COEFFS), k, factors)]
    degree = k
    if rng.random() < 0.5:
        j = rng.randint(0, 2)
        lam = rng.choice([x for x in RATES if x != r])
        terms.append(_term_text(rng.choice(COEFFS), j, [f"exp({_rate_arg(lam)})"]))
        degree = max(degree, j)
    return Item(f"{lhs_text(coeffs, rng)} = {_join(terms)}", "log", order, degree, True, True)


def small_mix(seed: int, count: int = 400) -> list[Item]:
    """Textbook-sized equations.  Every seed gets the same mix: a tenth log
    forcings, a quarter irrational roots (float path), the rest exact, and
    within each class the orders, forcing degrees 0-4 and term counts cycle
    evenly; the seed picks roots, rates, coefficients and the shuffle."""
    rng = random.Random(f"small_mix:{seed}")
    n_log, n_float = count // 10, count // 4
    items = [_log_item(rng, 2 + j % 5, (j // 5) % 4) for j in range(n_log)]
    items += [_float_item(rng, 2 + j % 5, (j // 5) % 5, 1 + ((j // 25) % 5 < 2))
              for j in range(n_float)]
    items += [_exact_item(rng, 1 + j % 6, (j // 6) % 5, 1 + ((j // 30) % 5 < 2))
              for j in range(count - n_log - n_float)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# high_degree
# ---------------------------------------------------------------------------

SWEEP_K = tuple(range(16, 81, 4))
REPEATED_N = tuple(range(2, 9))
RATE_COUNTS = tuple(range(1, 7))
ORDER6_RESONANT = "y^(6) - 3y^(4) + 3y'' - y = t^4*exp(t) + t^3*cos(2t) + exp(-t)*t^2"
SIGNED = [Fraction(v) for v in (1, -1, 2, -2, 3, -3)]


def high_degree(seed: int, ks=SWEEP_K) -> list[Item]:
    """Scaling sweeps where the cascade does nearly all the work.  Operators
    and sizes are fixed, so each item costs about the same under every
    seed; the seed picks the forcing coefficients, the sign of the repeated
    root and the sign of each rate."""
    rng = random.Random(f"high_degree:{seed}")

    def coeff():
        return rng.choice(SIGNED)

    items = []
    for k in ks:
        rhs = _join([_term_text(coeff(), k, [])])
        items.append(Item(f"y'' + y = {rhs}", "sweep_exact", 2, k, True, False))
    for n in REPEATED_N:
        r = rng.choice((Fraction(1), Fraction(-1)))
        coeffs = _integer_coeffs(_poly_from_roots([r] * n))
        rhs = _join([_term_text(coeff(), 4, [f"exp({_rate_arg(r)})"]),
                     _term_text(coeff(), 2, ["cos(t)"])])
        items.append(Item(f"{lhs_text(coeffs, rng)} = {rhs}", "repeated", n, 4, True, False))
    for m in RATE_COUNTS:
        rates = [Fraction(j * rng.choice((1, -1))) for j in range(1, m + 1)]
        terms = [_term_text(coeff(), 3, [f"exp({_rate_arg(lam)})"]) for lam in rates]
        items.append(Item(f"y'' + 3y' + 2y = {_join(terms)}", "multirate", 2, 3, True, False))
    items.append(Item(ORDER6_RESONANT, "order6_resonant", 6, 4, True, False))
    for k in ks:
        rhs = _join([_term_text(coeff(), k, ["sin(t)"])])
        items.append(Item(f"y''' + y' + y = {rhs}", "sweep_float", 3, k, False, False))
    for k in range(DEFECT_DEGREE, 11):
        rhs = _join([_term_text(coeff(), k, [])])
        items.append(Item(f"y'' + y' - y = {rhs}", "float_low", 2, k, False, False))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliRequest:
    command: str            # one of CLI_COMMANDS
    argv: tuple             # arguments after ``python -m odecascade.cli``
    item: Item | None       # the equation, None for varcoef


def cli_cold(seed: int, rounds: int = 10) -> list[CliRequest]:
    """``rounds`` rotations over the six commands, each on a fresh
    ``small_mix`` equation.  ``verify`` gets an exact-path equation, whose
    known-correct candidate is appended outside the timed region (after
    ``--``, since a candidate may start with a minus sign)."""
    pool = small_mix(seed, count=4 * rounds)
    exact = [it for it in small_mix(seed, count=40) if it.exact and not it.log]
    out = []
    for r in range(rounds):
        eq = pool[4 * r]
        out.append(CliRequest("solve", ("solve", eq.text), eq))
        eq = pool[4 * r + 1]
        out.append(CliRequest("solve_json_steps", ("solve", eq.text, "--json", "--steps"), eq))
        eq = pool[4 * r + 2]
        out.append(CliRequest("roots", ("roots", eq.text), eq))
        eq = exact[r % len(exact)]
        out.append(CliRequest("verify", ("verify", "--", eq.text), eq))
        eq = pool[4 * r + 3]
        out.append(CliRequest("eval", ("eval", eq.text, "--from", "1", "--to", "2",
                                       "--points", "50"), eq))
        out.append(CliRequest("varcoef", ("varcoef",) + VARCOEF_ARGS, None))
    return out

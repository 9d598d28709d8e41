"""Shared deterministic generators and hypothesis strategies."""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
from fractions import Fraction

import hypothesis.strategies as st

from odecascade import (
    COS,
    SIN,
    Expr,
    GaussianRational,
    LinearODE,
    RealExpr,
    RealTerm,
    RootEntry,
    Term,
    expand_from_roots,
    normalize,
)
from odecascade.cli import main as cli_main

GR = GaussianRational

#: small rationals that keep Fraction growth harmless across a cascade
RATIONALS = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2)]
NONZERO_RATIONALS = [f for f in RATIONALS if f]

#: conjugate-pair templates for building real-coefficient polynomials
COMPLEX_PAIRS = [
    (GR(re, im), GR(re, -im))
    for re in (Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2))
    for im in (Fraction(1), Fraction(2), Fraction(1, 2))
]


def random_root_sequence(rng: random.Random, max_order: int = 4):
    """Conjugate-closed multiset of Gaussian-rational roots, with repeats."""
    order = rng.randint(1, max_order)
    roots = []
    while len(roots) < order:
        remaining = order - len(roots)
        if remaining >= 2 and rng.random() < 0.4:
            pair = rng.choice(COMPLEX_PAIRS)
            copies = rng.randint(1, remaining // 2)
            roots.extend(list(pair) * copies)
        else:
            value = GR(rng.choice(RATIONALS))
            copies = rng.randint(1, remaining)
            roots.extend([value] * copies)
    return tuple(roots[:order]) if len(roots) == order else tuple(roots)


def ode_from_roots(roots, forcing: Expr, lead: Fraction = Fraction(1)) -> LinearODE:
    """Real-coefficient LinearODE whose characteristic roots are ``roots``."""
    coeffs = expand_from_roots([RootEntry(r, 1, True) for r in roots], GR(lead))
    vec = []
    for c in coeffs:
        assert not c.im, "root multiset was not conjugate-closed"
        vec.append(Fraction(c.re))
    return LinearODE(tuple(vec), forcing)


def random_coeff(rng: random.Random) -> GR:
    return GR(rng.choice(NONZERO_RATIONALS), rng.choice(RATIONALS))


def random_forcing(rng: random.Random, roots, max_terms: int = 6,
                   force_resonance: bool = False) -> Expr:
    """Random log-free exp-poly forcing; exponents often collide with roots."""
    n_terms = rng.randint(1, max_terms)
    terms = []
    for idx in range(n_terms):
        if roots and (force_resonance and idx == 0 or rng.random() < 0.5):
            lam = rng.choice(list(roots))
        else:
            lam = GR(rng.choice(RATIONALS), rng.choice(RATIONALS))
        terms.append(Term(random_coeff(rng), rng.randint(0, 3), 0, lam))
    e = normalize(terms)
    if e.is_zero:
        return normalize([Term(GR(1), 0, 0, GR(0))])
    return e


def random_real_forcing(rng: random.Random, roots, max_terms: int = 6,
                        force_resonance: bool = False) -> Expr:
    """Conjugate-symmetric forcing (a real-valued function)."""
    e = random_forcing(rng, roots, max_terms=max_terms,
                       force_resonance=force_resonance)
    half = GR(Fraction(1, 2))
    sym = normalize(
        [Term(half * t.coeff, t.tpow, t.logpow, t.exponent) for t in e.terms]
        + [Term(half * t.coeff.conjugate(), t.tpow, t.logpow,
                t.exponent.conjugate()) for t in e.terms]
    )
    if sym.is_zero:
        return normalize([Term(GR(1), 0, 0, GR(0))])
    return sym


def random_antiderivable_expr(rng: random.Random, max_terms: int = 6) -> Expr:
    """Random Expr inside the closed antidifferentiation class."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        if rng.random() < 0.5:
            lam = GR(rng.choice([f for f in RATIONALS if f]),
                     rng.choice(RATIONALS))
            terms.append(Term(random_coeff(rng), rng.randint(0, 4), 0, lam))
        else:
            terms.append(Term(random_coeff(rng), rng.randint(0, 4),
                              rng.randint(0, 3), GR(0)))
    return normalize(terms)


def random_problem(rng: random.Random, max_order: int = 4,
                   force_resonance: bool = False):
    """(LinearODE, forcing, root sequence) with exact Gaussian-rational data."""
    roots = random_root_sequence(rng, max_order)
    forcing = random_forcing(rng, roots, force_resonance=force_resonance)
    ode = ode_from_roots(roots, forcing)
    return ode, forcing, roots


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_fractions = small_fractions.filter(bool)

gaussian_rationals = st.builds(GR, small_fractions, small_fractions)
nonzero_gaussian = gaussian_rationals.filter(bool)

#: a small exponent pool, so generated terms actually share keys sometimes
exponent_pool = st.sampled_from([
    GR(0), GR(1), GR(-1), GR(2), GR(Fraction(1, 2)),
    GR(0, 1), GR(0, -1), GR(1, 1), GR(1, -1),
])

terms_strategy = st.builds(
    Term,
    coeff=gaussian_rationals,
    tpow=st.integers(min_value=0, max_value=4),
    logpow=st.integers(min_value=0, max_value=3),
    exponent=exponent_pool,
)

exprs_strategy = st.lists(terms_strategy, min_size=0, max_size=6).map(normalize)

antiderivable_terms = st.one_of(
    st.builds(Term, coeff=gaussian_rationals,
              tpow=st.integers(0, 4), logpow=st.just(0),
              exponent=exponent_pool.filter(bool)),
    st.builds(Term, coeff=gaussian_rationals,
              tpow=st.integers(0, 4), logpow=st.integers(0, 3),
              exponent=st.just(GR(0))),
)

antiderivable_exprs = st.lists(antiderivable_terms, min_size=0, max_size=6).map(normalize)

real_terms_strategy = st.builds(
    RealTerm,
    coeff=small_fractions,
    tpow=st.integers(0, 3),
    logpow=st.integers(0, 2),
    alpha=small_fractions,
    beta=st.fractions(min_value=0, max_value=3, max_denominator=4),
    kind=st.sampled_from([COS, SIN]),
)

real_exprs_strategy = st.lists(real_terms_strategy, min_size=0, max_size=5).map(RealExpr)


def permutations_of(seq):
    """Distinct permutations of a root multiset."""
    return set(itertools.permutations(seq))


# ---------------------------------------------------------------------------
# input text shaped by docs/grammar.ebnf
# ---------------------------------------------------------------------------

#: literals, including ones past the double range and a zero divisor
_numbers = st.sampled_from(["0", "1", "2", "3", "1/2", "7/3", "0.5", "2.5", "1e3",
                            "1e-3", "1e400", "1e-400"])
#: exponents stay small, so every example solves in milliseconds
_exponents = st.sampled_from(["0", "1", "2", "3", "6", "-1", "(2)", "(1/2)", "(-2)"])


def _atom_texts(var):
    return st.one_of(
        _numbers,
        st.just(var),
        st.just("i"),
        st.builds(lambda c, k: f"{c}{var}^{k}", st.sampled_from(["1", "5", "2.5"]),
                  st.integers(0, 6)),
        st.builds(lambda c: f"e^({c}*{var})", _numbers),
        st.just(f"e^{var}"),
        st.builds(lambda f, c: f"{f}({c}*{var})",
                  st.sampled_from(["exp", "sin", "cos"]), _numbers),
        st.just(f"ln({var})"),
        st.builds(lambda f: f"{f}({var}^2)", st.sampled_from(["exp", "sin", "ln"])),
    )


def _powered(atoms):
    return st.one_of(atoms, st.builds(lambda a, k: f"({a})^{k}", atoms, _exponents))


def _combine(children):
    return st.one_of(
        st.builds(lambda a, op, b: f"{a} {op} {b}", children,
                  st.sampled_from(["+", "-", "*", "/"]), children),
        st.builds(lambda a: f"-{a}", children),
        st.builds(lambda a: f"({a})", children),
    )


def forcing_texts(var="t"):
    """Forcing expressions in the grammar; some break an argument rule."""
    return st.recursive(_powered(_atom_texts(var)), _combine, max_leaves=6)


#: an order past the parser's cap among the small ones
_y_parts = st.one_of(
    st.integers(0, 4).map(lambda k: "y" + "'" * k),
    st.integers(0, 4).map(lambda k: f"y^({k})"),
    st.just("y^(100000000)"),
)
#: 963761198400 has 6,720 divisors, too many for a divisor search
_y_terms = st.builds(
    lambda c, y: f"{c}{y}",
    st.sampled_from(["", "", "2", "3*", "1/2", "0", "1e400", "1e-400", "5/0",
                     "963761198400"]),
    _y_parts,
)


def ode_texts():
    """Whole equations in the grammar: one to four y terms, then a forcing."""
    lhs = st.lists(st.tuples(st.sampled_from(["+", "-"]), _y_terms), min_size=1,
                   max_size=4).map(lambda ts: " ".join(f"{s} {t}" for s, t in ts))
    return st.builds(lambda l, q: f"{l} = {q}", lhs, forcing_texts())


# ---------------------------------------------------------------------------
# the command line, in process
# ---------------------------------------------------------------------------

class CliResult:
    """What one command line printed and how it ended.

    ``exit_code`` is the code of the ``SystemExit`` that ended it (0 when
    ``main`` returned, 1 for any other exception).  ``exception`` is that
    ``SystemExit`` when its code is nonzero, the other exception with its
    ``exc_info``, or None.  ``output`` is stdout and stderr interleaved as
    written."""

    def __init__(self, exit_code, stdout, stderr, output, exc_info=None):
        self.exit_code, self.stdout, self.stderr, self.output = exit_code, stdout, stderr, output
        self.exc_info = exc_info
        self.exception = exc_info[1] if exc_info else None


class _Tee(io.StringIO):
    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


def run_cli(args) -> CliResult:
    """``odecascade`` with ``args``, run by ``odecascade.cli.main`` in this
    process with stdout and stderr captured."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    code, exc_info = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exc_info = sys.exc_info() if code else None
        except Exception:
            code, exc_info = 1, sys.exc_info()
    return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue(), exc_info)

"""Characteristic roots, exact and numeric, and why resonance is free.

The exact path finds every Gaussian-rational root with its multiplicity:
candidates come from the square-free part p / gcd(p, p') and each one counts
only if its integer factor divides p exactly.  Anything else falls back to a
simultaneous Aberth iteration with multiplicity-aware Newton polishing and
clustering.

Resonance (a forcing rate that equals a characteristic root) needs no
special handling in the cascade: the shifted integrand's rate cancels to
zero and the antiderivative just gains a power of t.

Run:  python demos/02_roots_and_resonance.py
"""

from fractions import Fraction

from odecascade import (
    CharPoly,
    GaussianRational as GR,
    cascade,
    find_roots,
    normalize,
    parse_ode,
    render,
    residual_symbolic,
    term,
)

print("exact roots")
print("-" * 72)
for text in ["y'' + 5y' + 6y = 0", "y'' - 4y' + 4y = 0", "y'' - 2y' + 5y = 0",
             "y'''' + 2y'' + y = 0"]:
    ode = parse_ode(text)
    roots = find_roots(CharPoly(ode.coeffs))
    bits = ", ".join(f"{e.value} (x{e.multiplicity})" for e in roots.entries)
    print(f"  {text:<28} ->  {bits}")

print()
print("numeric path with a planted triple root: (r-1)^3 (r+2)")
print("-" * 72)
p = CharPoly((-2.0, 5.0, -3.0, -1.0, 1.0))
for entry in find_roots(p).entries:
    print(f"  root {complex(entry.value):.2e}  multiplicity {entry.multiplicity}")

print()
print("resonant forcing: q = t^2 e^{2t} against roots (2, 2)")
print("-" * 72)
q = normalize([term(1, 2, 0, 2)])
trace = cascade((GR(2), GR(2)), q)
for idx, stage in enumerate(trace.stages, start=1):
    print(f"  stage {idx} output: {render(stage.output)}")
ode = parse_ode("y'' - 4y' + 4y = t^2*exp(2t)")
print(f"  y_p = {render(trace.y_p)}")
print(f"  residual: {residual_symbolic(ode, trace.y_p).status}")
print()
print("each stage integrand had rate 0, so the power of t just climbed:")
print("  t^2 -> t^3/3 -> t^4/12, giving y_p = (1/12) t^4 e^{2t}")

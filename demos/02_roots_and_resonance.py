"""Characteristic roots, exact and numeric, and why resonance is free.

The exact path finds every Gaussian-rational root with its multiplicity:
candidates come from the square-free part p / gcd(p, p') and each one counts
only if its integer factor divides p exactly.  What is left splits into
square-free factors with exact multiplicities, and only those factors go to
a simultaneous Aberth iteration with a few Newton steps.

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
print("numeric path on a square-free factor: (r^2-2)^2 (r+1) = r^5 + r^4 - 4r^3 - 4r^2 + 4r + 4")
print("-" * 72)
p = CharPoly(tuple(Fraction(c) for c in (4, 4, -4, -4, 1, 1)))
for entry in find_roots(p).entries:  # every root is real here
    kind = "exact" if entry.exact else "approx"
    print(f"  root {complex(entry.value).real!r:<20}  multiplicity {entry.multiplicity}  {kind}")

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

"""The factorable variable-coefficient form, solved numerically.

When a second-order operator factors as (D + a x^n I)(D - a x^n I), the
equation splits into two first-order solves with integrating factor
exp(+-a x^(n+1)/(n+1)).  Expanding the product (mind the product rule on the
variable coefficient!) shows the equation actually solved is

    y'' - (a n x^(n-1) + a^2 x^(2n)) y = q(x).

The closed-form integrals are non-elementary in general, so both stages are
marched simultaneously with classical RK4; Gauss-Legendre quadrature of the
closed forms cross-checks the march at probe points.

Run:  python demos/03_variable_coefficient.py
"""

import math

from odecascade import PowerCoefODE, recognize_factorable, solve_varcoef

print("recognizing the factorable pattern in y'' + b x^m y = q")
print("-" * 72)
for b, m in [(-9.0, 4), (-1.0, 3), (1.0, 2)]:
    try:
        ode = recognize_factorable(b, m)
        print(f"  b={b:+.0f}, m={m}:  factors with a={ode.a:.0f}, n={ode.n}")
    except Exception as exc:
        print(f"  b={b:+.0f}, m={m}:  not factorable ({exc})")

print()
print("manufactured check: a=1, n=1, q = e^{x^2/2} on [0, 1]")
print("-" * 72)
print("  y_m = e^{x^2/2} satisfies y'' - (1 + x^2) y = 0, so the march from")
print("  zero initial values must satisfy both stage equations to RK4 order.")
ode = PowerCoefODE(1.0, 1, lambda x: math.exp(x * x / 2), 0.0, 1.0)
for h in (4e-3, 2e-3, 1e-3):
    sol = solve_varcoef(ode, h)
    print(f"  h={h:.0e}:  stage1={sol.max_stage1_residual:.2e}  "
          f"stage2={sol.max_stage2_residual:.2e}  fd={sol.max_fd_residual:.2e}")
print("  halving h divides the stage residuals by ~16 (fourth order)")
print("  and the centered-difference check by ~4 (second order).")

sol = solve_varcoef(ode, 1e-3)
print()
print("Gauss-Legendre cross-check of the closed forms at probe points:")
for x, dphi, dy in zip(sol.probe_xs, sol.probe_phi_errors, sol.probe_y_errors):
    print(f"  x={x:.2f}:  |phi_march - phi_gl| = {dphi:.1e}   "
          f"|y_march - y_gl| = {dy:.1e}")

print()
print("sampled solution (every 200th node):")
for i in range(0, len(sol.xs), 200):
    print(f"  x={sol.xs[i]:.2f}  phi={sol.phi[i]: .6f}  y={sol.y[i]: .6f}")
print(f"  max |y| on grid: {max(map(abs, sol.y)):.6f}")

"""Verification tools: symbolic residuals, equivalence of particular
solutions, and the independent undetermined-coefficients oracle.

Particular solutions are unique only up to homogeneous solutions, so two
methods agree when L[y1 - y2] = 0, not when y1 == y2.  The oracle builds the
classical ansatz and solves its triangular coefficient system, a completely
different route from the cascade, which makes it a genuine cross-check.

Run:  python demos/04_verification_and_oracle.py
"""

from odecascade import (
    LogForcingUnsupported,
    equal_mod_homogeneous,
    oracle_undetermined_coefficients,
    parse_forcing,
    parse_ode,
    particular_solution,
    realify,
    render,
    residual_symbolic,
)

ode = parse_ode("y'' - 4y' + 4y = t^3*exp(2t)")
print("equation: y'' - 4y' + 4y = t^3 e^(2t)")
print("-" * 72)

y_cascade, trace = particular_solution(ode)
print(f"  cascade:      {render(y_cascade)}")

y_oracle = oracle_undetermined_coefficients(ode, ode.forcing)
print(f"  oracle:       {render(realify(y_oracle))}")
print(f"  oracle residual: {residual_symbolic(ode, y_oracle).status}")

shifted = parse_forcing("1/20*t^5*exp(2*t) + exp(2*t) + t*exp(2*t)")
print()
print("adding homogeneous pieces e^{2t} and t e^{2t} changes nothing:")
print(f"  equal mod homogeneous: "
      f"{equal_mod_homogeneous(ode, trace.y_p, shifted)}")
print(f"  residual of the shifted candidate: "
      f"{residual_symbolic(ode, shifted).status}")

wrong = parse_forcing("1/20*t^5*exp(2*t) + t")
print(f"  but adding t (not homogeneous) is detected: "
      f"{residual_symbolic(ode, wrong).status}")

print()
print("where the ansatz cannot go, the cascade still can:")
print("-" * 72)
ode_log = parse_ode("y'' + 4y' + 4y = exp(-2t)*ln(t)")
try:
    oracle_undetermined_coefficients(ode_log, ode_log.forcing)
except LogForcingUnsupported as exc:
    print(f"  oracle: {exc}")
y_log, trace_log = particular_solution(ode_log)
print(f"  cascade: y_p = {render(y_log)}")
print(f"  residual: {residual_symbolic(ode_log, trace_log.y_p).status}")

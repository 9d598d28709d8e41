"""Particular solutions of linear nonhomogeneous ODEs by operator
factorization: factor p(D) into first-order factors and solve one
integrating-factor equation per characteristic root.

The package also covers the factorable variable-coefficient power form
numerically, and verifies every result by applying the operator symbolically.
"""

from .algebra import (
    COS,
    SIN,
    REL_EPS,
    Expr,
    RealExpr,
    RealTerm,
    Term,
    add,
    antiderivative,
    conjugate,
    const,
    differentiate,
    evaluate,
    exponential,
    expr,
    multiply,
    normalize,
    realify,
    scale,
    term,
)
from .solver import (CascadeStage, CascadeTrace, SolvePlan, cascade, particular_solution, plan,
                     solve_first_order)
from .errors import (
    DegreeLimitExceeded,
    DomainError,
    LogForcingUnsupported,
    NonConvergence,
    NotClosedForm,
    NotConjugateSymmetric,
    NotFactorable,
    NotLinearConstantCoefficient,
    OdeCascadeError,
    OverflowGuard,
    ParseError,
    StepTooLarge,
    UnsupportedFunction,
    VerificationFailed,
)
from .model import LinearODE
from .parsing import (
    SourceSpan,
    expr_from_json_terms,
    expr_to_json_terms,
    parse_forcing,
    parse_numeric_function,
    parse_ode,
    realexpr_from_json_terms,
    realexpr_to_json_terms,
    render,
)
from .roots import CharPoly, RootEntry, RootSet, characteristic, expand_from_roots, find_roots
from .scalars import GaussianRational, as_scalar, rational_sqrt
from .varcoef import (NumericSolution, PowerCoefODE, recognize_factorable,
                      residual_varcoef, solve_varcoef)
from .verify import (
    Residual,
    apply_operator,
    equal_mod_homogeneous,
    oracle_undetermined_coefficients,
    residual_symbolic,
)

__version__ = "0.1.0"

__all__ = [
    "COS", "SIN", "REL_EPS",
    "Expr", "RealExpr", "RealTerm", "Term", "GaussianRational",
    "add", "antiderivative", "conjugate", "const", "differentiate",
    "evaluate", "exponential", "expr", "multiply", "normalize", "realify",
    "scale", "term", "as_scalar", "rational_sqrt",
    "LinearODE", "SourceSpan", "parse_forcing", "parse_ode",
    "parse_numeric_function", "render",
    "expr_to_json_terms", "expr_from_json_terms",
    "realexpr_to_json_terms", "realexpr_from_json_terms",
    "CharPoly", "RootEntry", "RootSet", "characteristic", "find_roots",
    "expand_from_roots",
    "CascadeStage", "CascadeTrace", "SolvePlan", "cascade", "particular_solution",
    "plan", "solve_first_order",
    "PowerCoefODE", "NumericSolution", "recognize_factorable",
    "solve_varcoef", "residual_varcoef",
    "Residual", "apply_operator", "residual_symbolic",
    "equal_mod_homogeneous", "oracle_undetermined_coefficients",
    "OdeCascadeError", "NotClosedForm", "NotConjugateSymmetric", "DomainError",
    "ParseError", "UnsupportedFunction", "NotLinearConstantCoefficient",
    "NonConvergence", "DegreeLimitExceeded", "NotFactorable", "StepTooLarge",
    "OverflowGuard", "LogForcingUnsupported", "VerificationFailed",
]

"""Exception types raised across the package."""

from __future__ import annotations


class OdeCascadeError(Exception):
    """Base class for all package-specific errors."""


class NotClosedForm(OdeCascadeError):
    """An antiderivative left the exp-poly-log algebra.

    Raised exactly when some integrand term has a nonzero exponential rate
    together with a logarithm factor (or a negative variable power).  The
    offending terms are kept on the exception; ``stage`` is filled in when
    the failure happened inside a cascade stage.
    """

    def __init__(self, message, terms=(), stage=None):
        super().__init__(message)
        self.terms = tuple(terms)
        self.stage = stage


class NotConjugateSymmetric(OdeCascadeError):
    """Input to realification does not represent a real-valued function."""


class DomainError(OdeCascadeError):
    """Numeric evaluation outside the domain of the expression (t <= 0 with logs)."""


class ParseError(OdeCascadeError):
    """Syntax error in an input expression or equation.

    Carries a :class:`~odecascade.parsing.SourceSpan` pointing at the
    offending region of the input text.
    """

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span


class UnsupportedFunction(ParseError):
    """Syntactically valid input using a construct outside the algebra."""


class NotLinearConstantCoefficient(ParseError):
    """Left-hand side of an equation is not a constant-coefficient linear operator."""


class NonConvergence(OdeCascadeError):
    """Numeric root iteration hit its sweep cap without meeting the residual bound."""

    def __init__(self, message, residuals=()):
        super().__init__(message)
        self.residuals = tuple(residuals)


class DegreeLimitExceeded(OdeCascadeError):
    """Polynomial degree above the supported cap for the numeric root path, or
    a forcing over one of the parser's caps: terms of a power of a sum,
    coefficient bits, or degree in t."""


class NotFactorable(OdeCascadeError):
    """Variable-coefficient equation does not match the factorable power form."""


class StepTooLarge(OdeCascadeError):
    """Marching step failed the stage residual or cross-check tolerance."""


class OverflowGuard(OdeCascadeError):
    """A value beyond what a float or a printed string can hold.

    Raised when an integrating-factor exponent would overflow double
    precision on the domain, when numeric evaluation meets a coefficient or
    value outside the double range, and when a result has an integer with
    more digits than Python converts to text.
    """


class LogForcingUnsupported(OdeCascadeError):
    """The undetermined-coefficients oracle got a forcing with logarithm terms
    or negative powers of t."""


class VerificationFailed(OdeCascadeError):
    """A computed solution failed its own symbolic residual check (internal bug guard)."""

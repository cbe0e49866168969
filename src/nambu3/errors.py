"""Exception types shared across the package."""
from __future__ import annotations


class ZeroDivisor(ZeroDivisionError):
    """Raised when a scalar division has a zero divisor."""


class ExponentOverflow(OverflowError):
    """Raised when a monomial exponent would leave the 16-bit bound."""


class IndexOverflow(OverflowError):
    """Raised when a basis index would leave the +/-2^40 bound."""


class WorkerLost(RuntimeError):
    """Raised when a fan-out worker cannot start or ends without its result."""


class WindowTooSmall(ValueError):
    """Raised when an equality window has too few points to be conclusive."""


class NotEigenvector(ValueError):
    """Raised when a vector is not an eigenvector of the diagonal pair action."""


class NotAModule(ValueError):
    """Raised when inducing from a ternary action that fails the module axioms.

    Carries the failing defect report on the ``report`` attribute.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ValueError):
    """Raised for invalid run configuration (window, parameters, output mode)."""


class ParseError(ValueError):
    """Syntax error with position and the token set that was expected."""

    def __init__(self, message, pos, expected=()):
        self.message = message
        self.pos = pos
        self.expected = tuple(expected)
        detail = f"{message} at position {pos}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)

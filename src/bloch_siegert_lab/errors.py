"""Exception and warning types shared across the package."""

__all__ = ["BslError", "ConvergenceError", "DegenerateInputError", "DomainError", "GridError",
    "NoSignChangeError", "PoleError", "ValidityWarning"]


class BslError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BslError, ValueError):
    """An input lies outside the domain an operation supports."""


class NoSignChangeError(BslError):
    """A bracketed root search was given endpoints with equal signs."""


class ConvergenceError(BslError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateInputError(BslError, ValueError):
    """Inputs degenerate to the point that the requested quantity is undefined."""


class GridError(BslError, ValueError):
    """A frequency grid violates the symmetry/uniformity a routine requires."""


class PoleError(BslError):
    """A Laplace-domain evaluation landed on a pole of the response."""


class ValidityWarning(UserWarning):
    """Parameters are outside the regime where an approximation is controlled."""

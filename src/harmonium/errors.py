"""Exception and warning types shared across the package."""

__all__ = ["AccuracyWarning", "BracketError", "DomainError", "NoCrossingError"]


class DomainError(ValueError):
    """A parameter lies outside the validity window of the requested quantity."""


class BracketError(RuntimeError):
    """A guaranteed sign change could not be located (or was not unique).

    This signals a bug or a parameter far outside the validated window,
    not a tolerance problem.
    """


class NoCrossingError(RuntimeError):
    """A curve crossing was requested where none exists."""


class AccuracyWarning(UserWarning):
    """A quadrature self-check moved the result by more than the advertised accuracy."""

"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ViscoImpactError",
    "DomainError",
    "ConfigError",
    "ParseError",
    "PlasticImpactError",
    "NoSeparationError",
    "DiscriminantError",
    "SingularityError",
    "NoCrossingError",
]


class ViscoImpactError(Exception):
    """Base class for all package errors."""


class DomainError(ViscoImpactError):
    """A parameter or argument lies outside its physical domain."""


class ConfigError(ViscoImpactError):
    """A configuration value (step size, horizon, kernel spec) is invalid."""


class ParseError(ViscoImpactError):
    """A data file could not be parsed.

    Carries row/column diagnostics when they are known.
    """

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class PlasticImpactError(ViscoImpactError):
    """The contact force never returns to zero: the impactor stays embedded."""


class NoSeparationError(ViscoImpactError):
    """No force zero was found: numeric integration reached its horizon."""


class DiscriminantError(ViscoImpactError):
    """The characteristic cubic has no complex-conjugate root pair, so the
    oscillatory closed form does not apply."""


class SingularityError(ViscoImpactError):
    """A ratio was requested where its denominator vanishes identically."""


class NoCrossingError(ViscoImpactError):
    """The force history never reaches the requested stress level."""

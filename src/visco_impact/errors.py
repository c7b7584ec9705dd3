"""Exception types shared across the package, and the exit code of each.

Each class carries as ``exit_code`` what the command line returns when the
error ends a command (an ``OSError`` exits 1, a failed ``verify`` exits 4):

- 1 ``EXIT_IO``: ``ViscoImpactError``, ``ConfigError``, ``ParseError``
- 2 ``EXIT_DOMAIN``: ``DomainError``, ``DiscriminantError``,
  ``SingularityError``, ``NoCrossingError``
- 3 ``EXIT_PLASTIC``: ``PlasticImpactError``, ``NoSeparationError``
"""

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

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_PLASTIC = 3
EXIT_VERIFY = 4


class ViscoImpactError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_IO


class DomainError(ViscoImpactError):
    """A parameter or argument lies outside its physical domain."""

    exit_code = EXIT_DOMAIN


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

    exit_code = EXIT_PLASTIC


class NoSeparationError(PlasticImpactError):
    """No force zero was found: numeric integration reached its horizon."""


class DiscriminantError(DomainError):
    """The characteristic cubic has no complex-conjugate root pair, so the
    oscillatory closed form does not apply."""


class SingularityError(DomainError):
    """A ratio was requested where its denominator vanishes identically."""


class NoCrossingError(DomainError):
    """The force history never reaches the requested stress level."""

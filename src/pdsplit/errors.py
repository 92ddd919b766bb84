"""Exception types shared across the package, and the integer rule that many of them enforce."""

import numbers


class PdsplitError(Exception):
    """Base class for all package errors."""


class DimensionError(PdsplitError):
    """Block counts or vector/matrix shapes do not match the space signature."""


class ConfigError(PdsplitError):
    """Invalid solver configuration, subspace choice, or schedule."""


class SchemaError(PdsplitError):
    """Malformed input file: JSON schema, value ranges, or cross-field checks."""


class NumericalError(PdsplitError):
    """A linear solve or other numerical kernel failed unexpectedly."""


class InconsistencyError(PdsplitError):
    """The best-approximation update detected an empty outer approximation."""


def is_integer(value) -> bool:
    """The integer rule for counts and indices: an integer, not a bool; numpy integers pass."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def integer(name: str, value, error: type = ConfigError) -> int:
    """value as an int; an `error` naming `name` unless it follows the integer rule."""
    if not is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)

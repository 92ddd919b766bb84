"""Exception types shared across the package."""


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


class InvariantViolation(PdsplitError):
    """A per-step invariant check failed (raised by check_step in tests/oracle.py)."""

"""Exception types shared across the package, and the check of counts."""

from numbers import Integral


class ConfigurationError(ValueError):
    """Raised when inputs are structurally invalid (bad grid, bad scheme, bad flags)."""


class AnalysisError(RuntimeError):
    """Raised when an analysis precondition fails at runtime.

    Example: an interval sequence requires each backward cubic to have a
    single real root; if a requested parameter regime violates that, the
    computation cannot continue meaningfully.
    """


def _check_count(name: str, value, least: int | None = None) -> None:
    """ConfigurationError unless value is a Python or numpy integer, and at
    least `least` where given: counts feed range(), and 2.0 is no count."""
    if not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigurationError(f"{name} must be >= {least}")

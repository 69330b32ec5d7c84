"""Exception types shared across the package, and the integer-count check."""

import operator


class TargetZoneError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(TargetZoneError, ValueError):
    """An argument or run setting is invalid; with a key the text reads "<key>: <message>"."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")


ConfigError = ParameterError  # an alias: config-file and flag errors are parameter errors


def check_count(value: object, key: str) -> None:
    """Raise ParameterError with ``key`` unless ``value`` is an integer (not a float)."""
    try:
        operator.index(value)
    except TypeError:
        raise ParameterError(f"must be an integer, got {value!r}", key) from None


class ConvergenceError(TargetZoneError, RuntimeError):
    """An iterative evaluation failed to converge within its budget."""


class CalibrationError(ConvergenceError):
    """Root finding for the band calibration failed; carries last residuals."""

    def __init__(self, message: str, residuals=None):
        self.residuals = residuals
        super().__init__(message)


class InstabilityError(TargetZoneError, RuntimeError):
    """Time stepping produced non-finite values."""


class SingularSystemError(TargetZoneError, RuntimeError):
    """The tridiagonal time-step matrix is singular, so it cannot be factored."""

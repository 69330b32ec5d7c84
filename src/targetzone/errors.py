"""Exception types shared across the package."""


class TargetZoneError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(TargetZoneError, ValueError):
    """An argument violates a documented precondition; may name the offending key."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message)


class ConfigError(TargetZoneError, ValueError):
    """A configuration file or flag is invalid; carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


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

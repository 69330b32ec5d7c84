"""Exception types shared across the package, and the two numeric-input checks.

Each plain numeric rule is one `check_count` (an integer in [lo, hi]) or `check_real` call
(finite, in [lo, hi] or (lo, hi]) in the module that owns the value, and a refusal reads
"<key>: must be finite and > 0, got -1.0" or "<key>: must be an integer in [0, 9], got 10".
"""

import contextlib
import math
import operator


class TargetZoneError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(TargetZoneError, ValueError):
    """An argument or run setting is invalid; with a key the text reads "<key>: <message>"."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")


ConfigError = ParameterError  # an alias: config-file and flag errors are parameter errors


def check_count(value: object, key: str, lo: int, hi=math.inf) -> None:
    """Raise ParameterError with ``key`` unless ``value`` is an integer (no float) in [lo, hi]."""
    with contextlib.suppress(TypeError):  # a float, or no number at all
        if lo <= operator.index(value) <= hi:
            return
    raise ParameterError(f"must be an integer{_bounds(lo, hi, False)}, got {value!r}", key)


def check_real(value: object, key: str, lo: float, hi=math.inf, *, open_lo=False) -> None:
    """Raise ParameterError with ``key`` unless ``value`` is finite and in [lo, hi] or (lo, hi]."""
    with contextlib.suppress(TypeError):  # no number, such as None or a string
        if math.isfinite(value) and (lo < value if open_lo else lo <= value) and value <= hi:
            return
    raise ParameterError(f"must be finite{_bounds(lo, hi, open_lo, ' and')}, got {value}", key)


def _bounds(lo, hi, open_lo: bool, join: str = "") -> str:
    """The range as a refusal prints it: " in [lo, hi]", " > lo", or nothing if unbounded."""
    if hi < math.inf:
        return f"{join} in {'(' if open_lo else '['}{lo}, {hi}]"
    return f"{join} {'>' if open_lo else '>='} {lo}" if lo > -math.inf else ""


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

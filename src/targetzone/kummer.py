"""Confluent hypergeometric Kummer function M(a, b, z) and its z-derivative.

`kummer_m(a, b, z)` takes plain floats and sums the Taylor series
sum_{n>=0} (a)_n z^n / ((b)_n n!) on Python floats, to machine precision. The
model's arguments (a > 0, z = rho*f^2/sigma^2 >= 0) give positive terms,
but z is not small: over the benchmark's parameter cube it reaches 313 at
calibrated band edges, where the series needs about 470 of its MAX_TERMS
terms, and 7.8e7 at Newton trial points. Beyond z of about 300 to 340
(depending on a) the cap is exceeded and beyond about 550 to 780 the terms
overflow: both raise ConvergenceError. No large-|z| asymptotic branch is
provided.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, ParameterError

MAX_TERMS = 500

_MACHINE_REL = 2.0**-52
# Largest rounding error, relative to the sum, that cancellation may leave.
_CANCEL_REL = 1e-12


def _check_b(b: float) -> None:
    # Poles of M in b sit at 0, -1, -2, ...
    if b <= 0 and b == math.floor(b):
        raise ParameterError(f"b={b} is a pole of M(a, b, z) (zero or negative integer)", "b")


def kummer_m(a: float, b: float, z: float) -> float:
    """Evaluate M(a, b, z) by direct series summation.

    Terminates once two consecutive terms are below 2**-52 relative to the
    running partial sum (two, so that an incidentally zero term cannot stop
    an alternating series early). Raises ConvergenceError if MAX_TERMS terms
    are not enough, or if cancellation between terms of mixed sign leaves a
    rounding error (about 2**-52 times the largest term) above 1e-12 relative
    to the sum. Terms never change sign for a > 0, b > 0, z >= 0, so there
    the cancellation check cannot fire. An overflowed sum raises too.
    """
    _check_b(b)

    # Python floats: numpy scalar arithmetic gives the same bits about twice as slowly.
    a, b, z = float(a), float(b), float(z)
    rel_stop = _MACHINE_REL  # a local: the loop below is the calibration's hot path
    term = 1.0
    total = 1.0
    largest = 1.0
    small_streak = 0
    for n in range(MAX_TERMS):
        term *= (a + n) * z / ((b + n) * (n + 1))
        total += term
        size = abs(term)
        if size > largest:
            largest = size
        if size <= rel_stop * abs(total):
            small_streak += 1
            if small_streak >= 2:
                if largest * _MACHINE_REL > _CANCEL_REL * abs(total):
                    raise ConvergenceError(
                        f"Kummer series for (a={a}, b={b}, z={z}) cancels beyond 1e-12 "
                        f"(largest term {largest:.3e}, sum {total:.3e})"
                    )
                if not math.isfinite(total):
                    raise ConvergenceError(f"Kummer series for (a={a}, b={b}, z={z}) overflows")
                return total
        else:
            small_streak = 0
    raise ConvergenceError(
        f"Kummer series for (a={a}, b={b}, z={z}) did not converge in {MAX_TERMS} terms"
    )


def kummer_m_dz(a: float, b: float, z: float) -> float:
    """dM/dz via the exact identity dM(a,b,z)/dz = (a/b) * M(a+1, b+1, z)."""
    _check_b(b)
    return (a / b) * kummer_m(a + 1.0, b + 1.0, z)

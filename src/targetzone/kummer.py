"""Confluent hypergeometric Kummer function M(a, b, z) and its z-derivative.

`kummer_m(a, b, z)` sums the Taylor series sum_{n>=0} (a)_n z^n / ((b)_n n!)
to machine precision. It takes floats or arrays. Floats are summed term by
term on Python floats, with the term index kept as a float: the float loop
is the hot path of Newton's calibration, and int + float would convert the
index to the same float on every use. Each term's denominator
(b + n) * (n + 1) comes from a table cached per (b, MAX_TERMS), so a term
costs (a + n) * z / den, in the loop's operation order. The model's
arguments, a > 0, b > 0 and z >= 0, take a loop for positive terms: there
every term is >= 0 and the sum >= 1, so abs() is the identity, the largest
term never exceeds the sum and the cancellation test below cannot fire, and
b is no pole. That loop drops all three and gives the signed loop's bits,
stopping term and error texts. Every other input takes the signed loop,
which keeps them. Arrays are broadcast to lanes, which
are summed in ordered blocks of 16, 32 and then 64 terms: a block forms its
term ratios, and `np.multiply.accumulate` and `np.add.accumulate` along the
terms carry the term and the sum on in term order from where the last block
ended. So every lane rounds exactly as the float loop does and gives the
same bits, stops at the same term by the same rule and fails with the same
error; where several lanes fail, the first in C order raises. The model's
arguments (a > 0, z = rho*f^2/sigma^2 >= 0) give positive terms, but z is
not small: over the benchmark's parameter cube it reaches 313 at calibrated
band edges, where the series needs about 470 of its MAX_TERMS terms, and
7.8e7 at Newton trial points. Beyond z of about 300 to 340 (depending on a)
the cap is exceeded and beyond about 550 to 780 the terms overflow: both
raise ConvergenceError. No large-|z| asymptotic branch is provided. A b at a
pole (0, -1, -2, ...) or at -inf, where the poles pile up, raises
ParameterError with key b.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ParameterError

MAX_TERMS = 500
# Terms in the first block of the array path, doubled up to _BLOCK: most
# lanes stop within 16 terms, and longer blocks are no faster but hold a
# larger (terms, lanes) scratch array.
_FIRST_BLOCK = 16
_BLOCK = 64

_MACHINE_REL = 2.0**-52
# Largest rounding error, relative to the sum, that cancellation may leave.
_CANCEL_REL = 1e-12


def _check_b(b: float) -> None:
    # Poles of M in b sit at 0, -1, -2, ... and pile up towards -inf, which
    # math.floor cannot take.
    if b <= 0 and (b == -math.inf or b == math.floor(b)):
        raise ParameterError(
            f"b={b} is a pole of M(a, b, z) (zero, a negative integer or -inf)", "b"
        )


def _check_b_lanes(b) -> None:
    """`_check_b` on every lane of an array b, in C order."""
    for pole in np.ravel(b).tolist():
        _check_b(pole)


@lru_cache(maxsize=32)
def _denominators(b: float, max_terms: int) -> tuple[float, ...]:
    """The float loops' term denominators (b + n) * (n + 1), n = 0 .. max_terms - 1."""
    return tuple((b + n) * (n + 1.0) for n in map(float, range(max_terms)))


def _diverged(a: float, b: float, z: float) -> ConvergenceError:
    return ConvergenceError(
        f"Kummer series for (a={a}, b={b}, z={z}) did not converge in {MAX_TERMS} terms"
    )


def _cancels(a: float, b: float, z: float, largest: float, total: float) -> ConvergenceError:
    return ConvergenceError(
        f"Kummer series for (a={a}, b={b}, z={z}) cancels beyond 1e-12 "
        f"(largest term {largest:.3e}, sum {total:.3e})"
    )


def _overflows(a: float, b: float, z: float) -> ConvergenceError:
    return ConvergenceError(f"Kummer series for (a={a}, b={b}, z={z}) overflows")


def kummer_m(a, b, z):
    """Evaluate M(a, b, z) by direct series summation, on floats or arrays.

    Scalar arguments give a float. Otherwise a, b and z are broadcast, and
    the result has their shape and, lane by lane, the float calls' bits;
    where lanes fail, the first in C order raises the float call's error.

    Terminates once two consecutive terms are below 2**-52 relative to the
    running partial sum (two, so that an incidentally zero term cannot stop
    an alternating series early). Raises ConvergenceError if MAX_TERMS terms
    are not enough, or if cancellation between terms of mixed sign leaves a
    rounding error (about 2**-52 times the largest term) above 1e-12 relative
    to the sum. Terms never change sign for a > 0, b > 0, z >= 0, so there
    the cancellation check cannot fire. An overflowed sum raises too.
    """
    if not (type(a) is type(b) is type(z) is float):  # arrays, numpy scalars or ints
        _check_b_lanes(b)
        a, b, z = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, z)))
        if z.ndim:
            return _kummer_m_lanes(a.ravel(), b.ravel(), z.ravel()).reshape(z.shape)
        # Python floats: numpy scalar arithmetic gives the same bits about twice as slowly.
        a, b, z = float(a), float(b), float(z)
    if not (a > 0 and b > 0 and z >= 0):
        return _kummer_m_signed(a, b, z)

    # Positive terms, the calibration's hot path: the module docstring says why
    # this loop gives the signed loop's results without its sign bookkeeping.
    rel_stop = _MACHINE_REL  # a local: read once per term
    term = 1.0
    total = 1.0
    small = False
    n = 0.0  # a float count: see the module docstring
    for den in _denominators(b, MAX_TERMS):
        term *= (a + n) * z / den
        n += 1.0
        total += term
        if term <= rel_stop * total:
            if small:
                if not math.isfinite(total):
                    raise _overflows(a, b, z)
                return total
            small = True
        else:
            small = False
    raise _diverged(a, b, z)


def _kummer_m_signed(a: float, b: float, z: float) -> float:
    """The float loop of `kummer_m` for any signs, with the cancellation check."""
    _check_b(b)
    rel_stop = _MACHINE_REL
    term = 1.0
    total = 1.0
    largest = 1.0
    small_streak = 0
    n = 0.0
    for den in _denominators(b, MAX_TERMS):
        term *= (a + n) * z / den
        n += 1.0
        total += term
        size = abs(term)
        if size > largest:
            largest = size
        if size <= rel_stop * abs(total):
            small_streak += 1
            if small_streak >= 2:
                if largest * _MACHINE_REL > _CANCEL_REL * abs(total):
                    raise _cancels(a, b, z, largest, total)
                if not math.isfinite(total):
                    raise _overflows(a, b, z)
                return total
        else:
            small_streak = 0
    raise _diverged(a, b, z)


def _kummer_m_lanes(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The float loop of `kummer_m` on 1-d lanes, one block of terms at a time."""
    total, largest = np.zeros(z.size), np.zeros(z.size)
    converged = np.zeros(z.size, dtype=bool)
    # The lanes still summing, and what each carries into the next block.
    live = np.arange(z.size)
    term, carry_total, carry_largest, carry_small = 1.0, 1.0, 1.0, False
    start, size = 0, _FIRST_BLOCK
    with np.errstate(all="ignore"):  # inf and nan propagate silently, as on Python floats
        while start < MAX_TERMS and live.size:
            n = np.arange(start, min(start + size, MAX_TERMS), dtype=float)[:, None]
            start, size = start + size, min(2 * size, _BLOCK)
            # In place, in the float loop's order: ((a + n) * z) / ((b + n) * (n + 1)).
            terms, scratch = a[live] + n, b[live] + n
            terms *= z[live]
            scratch *= n + 1.0
            terms /= scratch
            terms[0] *= term
            np.multiply.accumulate(terms, axis=0, out=terms)
            sums = terms.copy()
            sums[0] += carry_total
            np.add.accumulate(sums, axis=0, out=sums)
            last = terms[-1].copy()
            peaks = np.abs(terms, out=terms)  # terms are not needed past here
            np.abs(sums, out=scratch)
            scratch *= _MACHINE_REL
            small = peaks <= scratch
            np.maximum.accumulate(peaks, axis=0, out=peaks)
            np.maximum(peaks, carry_largest, out=peaks)
            # A lane stops at the second small term in a row.
            stop = small.copy()
            stop[0] &= carry_small
            stop[1:] &= small[:-1]
            done = stop.any(axis=0)
            at, cols, lanes = stop.argmax(axis=0)[done], np.flatnonzero(done), live[done]
            total[lanes], largest[lanes], converged[lanes] = sums[at, cols], peaks[at, cols], True
            going = ~done
            live = live[going]
            term, carry_total = last[going], sums[-1, going]
            carry_largest, carry_small = peaks[-1, going], small[-1, going]
            del terms, sums, scratch, peaks, small, stop  # freed before the next block
        cancels = converged & (largest * _MACHINE_REL > _CANCEL_REL * np.abs(total))
        failed = ~converged | cancels | ~np.isfinite(total)
    if failed.any():
        i = int(failed.argmax())
        args = a[i].item(), b[i].item(), z[i].item()
        if not converged[i]:
            raise _diverged(*args)
        if cancels[i]:
            raise _cancels(*args, largest[i].item(), total[i].item())
        raise _overflows(*args)
    return total


def kummer_m_dz(a, b, z):
    """dM/dz via the exact identity dM(a,b,z)/dz = (a/b) * M(a+1, b+1, z).

    Takes floats or arrays, as `kummer_m` does; a b lane at a pole raises.
    """
    _check_b_lanes(b)
    return (a / b) * kummer_m(a + 1.0, b + 1.0, z)

"""Closed-form stationary solution, band calibration, and the BM reference.

The stationary two-point problem

    (alpha*sigma^2/2) e'' - alpha*rho*f e' - e = -f,   e'(f_lo) = e'(f_hi) = 0

has the odd-family solution

    e(f) = -c2*(sqrt(rho)*f/sigma)*M(a2, 3/2, z) + f/(1 + alpha*rho),
    z = rho*f^2 / sigma^2,   a2 = (1 + alpha*rho)/(2*alpha*rho),

where M is the Kummer function. The general solution adds an even term
c1*M(1/(2*alpha*rho), 1/2, z); on the symmetric band f_lo = -f_hi
oddness forces c1 = 0, so it is not carried. (c2, f_hi) solve the value and
smooth-pasting conditions at the upper edge; `calibrate_symmetric` solves
that 2x2 system by damped Newton with the analytic Jacobian. `calibrate_bm`
provides the rho -> 0 (regulated Brownian motion) reference in closed form,
evaluated in a form normalised at the band edge so that nothing overflows.

Value, slope and curvature at a point come from one jet. It derives a2 and
the powers of rho and sigma once, raising ParameterError (key rho or sigma)
where one is not a usable float, then the three Kummer values
M(a2 + k, 3/2 + k, z), k = 0, 1, 2, on Python floats. Newton evaluates one
jet per trial point, and an accepted point's jet is also the next Jacobian.
A trial point whose jet overflows or whose Kummer series raises is rejected
like a NaN residual.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import CalibrationError, ConvergenceError, ParameterError
from .kummer import kummer_m
from .model import Band, BmStationaryCoefficients, ModelParams, StationaryCoefficients

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100


def check_e_bar(e_bar: float) -> None:
    """The band half-width in the rate must be positive and finite."""
    if not (e_bar > 0 and math.isfinite(e_bar)):
        raise ParameterError(f"must be positive and finite, got {e_bar}", "e_bar")


class _Jet(NamedTuple):
    """Value, slope and curvature of e at one point, plus the c2-columns h2, h2'."""

    value: float
    slope: float
    curvature: float
    h2: float
    h2p: float


def _jet(params: ModelParams, coefs: StationaryCoefficients, f: float) -> _Jet:
    """Evaluate the stationary solution and its first two df-derivatives at f.

    The Kummer values M(a2, 3/2, z), M(a2+1, 5/2, z) and M(a2+2, 7/2, z) are
    computed once; the derivatives follow from
    dM(a, b, z)/dz = (a/b) M(a+1, b+1, z) and the chain rule through
    z(f) = rho*f^2/sigma^2.
    """
    rho, sigma = params.rho, params.sigma
    alpha_rho, two_alpha_rho = params.alpha * rho, 2.0 * params.alpha * rho
    a2 = (1.0 + alpha_rho) / two_alpha_rho if two_alpha_rho else math.inf
    if not 0.5 <= a2 < math.inf:  # a2 = 1/2 + 1/(2*alpha*rho); 0.0 once 2*alpha*rho overflows
        raise ParameterError(f"a2={a2} at alpha*rho={alpha_rho}; rho = 0 is Brownian motion", "rho")
    try:  # `**` raises OverflowError where `*` would give inf
        s2, s3, s5 = sigma**2, sigma**3, sigma**5
    except OverflowError:
        s5 = math.inf
    if not 0 < s5 < math.inf:  # the most extreme power on either side of 1, and a divisor
        raise ParameterError(f"sigma**5 over- or underflows at sigma={sigma}", "sigma")
    try:
        sqrt_rho, r15, r25 = math.sqrt(rho), rho**1.5, rho**2.5
    except OverflowError:
        raise ParameterError(f"rho**2.5 overflows at rho={rho}", "rho") from None

    u = 0.0 - f  # not -f: u at f = +0.0 must be +0.0, or the curvature's sign flips
    z = rho * u * u / s2
    m2 = kummer_m(a2, 1.5, z)
    m2p = (a2 / 1.5) * kummer_m(a2 + 1.0, 2.5, z)
    m2pp = (a2 * (a2 + 1.0) / (1.5 * 2.5)) * kummer_m(a2 + 2.0, 3.5, z)
    h2 = (sqrt_rho * u / sigma) * m2
    h2p = -((sqrt_rho / sigma) * m2 + (2.0 * r15 * u * u / s3) * m2p)
    h2pp = (6.0 * r15 * u / s3) * m2p + (4.0 * r25 * u**3 / s5) * m2pp

    particular = f / (1.0 + alpha_rho)
    return _Jet(
        value=coefs.c2 * h2 + particular,
        slope=coefs.c2 * h2p + 1.0 / (1.0 + alpha_rho),
        curvature=coefs.c2 * h2pp,
        h2=h2,
        h2p=h2p,
    )


def eval_stationary(params: ModelParams, coefs: StationaryCoefficients, f: float) -> float:
    """Stationary exchange rate e(f) for given integration constants."""
    return _jet(params, coefs, f).value


def eval_stationary_slope(params: ModelParams, coefs: StationaryCoefficients, f: float) -> float:
    """Analytic de/df of the stationary solution."""
    return _jet(params, coefs, f).slope


def eval_stationary_curvature(params: ModelParams, coefs: StationaryCoefficients, f: float) -> float:
    """Analytic d2e/df2 of the stationary solution."""
    return _jet(params, coefs, f).curvature


def stationary_ode_residual(
    params: ModelParams,
    coefs: StationaryCoefficients,
    f_grid: Sequence[float],
) -> np.ndarray:
    """Residual (alpha*sigma^2/2) e'' - alpha*rho*f e' - e + f on a grid.

    Zero (to roundoff) for any coefficients, because every member of the
    solution family satisfies the stationary equation; the check guards the
    analytic-derivative plumbing rather than the calibration.
    """
    a, r, s2 = params.alpha, params.rho, params.sigma**2
    out = np.empty(len(f_grid))
    for i, f in enumerate(np.asarray(f_grid, dtype=float).tolist()):
        e, ep, epp, _, _ = _jet(params, coefs, f)
        out[i] = 0.5 * a * s2 * epp - a * r * f * ep - e + f
    return out


def calibrate_symmetric(
    params: ModelParams, e_bar: float
) -> tuple[StationaryCoefficients, Band]:
    """Solve (c2, f_bar) so that e(f_bar) = e_bar and e'(f_bar) = 0.

    The band is [-f_bar, f_bar] in the fundamental, [-e_bar, e_bar] in the
    rate. Damped Newton on the 2x2 system with the analytic Jacobian; the
    step is halved until the residual norm decreases (and f_bar stays
    positive). Initial guess: the free-float preimage
    f_bar = (1 + alpha*rho)*e_bar with c2 = 0.
    """
    check_e_bar(e_bar)

    def trial(c2: float, f_bar: float) -> tuple[_Jet | None, tuple[float, float], float]:
        """Jet, residuals and residual norm at one point; a NaN norm rejects it."""
        try:
            jet = _jet(params, StationaryCoefficients(c2), f_bar)
        except (OverflowError, ConvergenceError):
            return None, (math.nan, math.nan), math.nan
        res = (jet.value - e_bar, jet.slope)
        return jet, res, max(abs(res[0]), abs(res[1]))

    c2 = 0.0
    f_bar = (1.0 + params.alpha * params.rho) * e_bar
    jet, res, norm = trial(c2, f_bar)
    if jet is None:
        raise CalibrationError(
            f"the stationary solution overflows or its Kummer series fails at the initial guess "
            f"f_bar={f_bar}",
            np.array(res),
        )

    for _ in range(_NEWTON_MAX_ITER):
        if norm < _NEWTON_TOL:
            coefs = StationaryCoefficients(c2)
            band = Band(-f_bar, f_bar, -e_bar, e_bar)
            return coefs, band

        # The current point's jet already holds the Jacobian.
        jac = np.array([[jet.h2, jet.slope], [jet.h2p, jet.curvature]])
        try:
            step = np.linalg.solve(jac, [-res[0], -res[1]]).tolist()
        except np.linalg.LinAlgError as exc:
            raise CalibrationError(
                f"singular Jacobian at (c2={c2}, f_bar={f_bar})", np.array(res)
            ) from exc

        # Damping: halve until the residual norm drops and f_bar stays positive.
        lam = 1.0
        while True:
            c2_new, f_new = c2 + lam * step[0], f_bar + lam * step[1]
            if f_new > 0:
                jet_new, res_new, norm_new = trial(c2_new, f_new)
                if norm_new < norm:
                    break
            lam *= 0.5
            if lam < 1e-12:
                raise CalibrationError(
                    "Newton stalled (no descent direction); "
                    f"e_bar={e_bar} may admit no smooth-pasting solution",
                    np.array(res),
                )
        c2, f_bar, jet, res, norm = c2_new, f_new, jet_new, res_new, norm_new

    raise CalibrationError(
        f"calibration did not converge in {_NEWTON_MAX_ITER} iterations "
        f"(residuals {res[0]:.3e}, {res[1]:.3e}); e_bar={e_bar} may admit no "
        "smooth-pasting solution",
        np.array(res),
    )


def calibrate_bm(alpha: float, sigma: float, e_bar: float) -> tuple[BmStationaryCoefficients, Band]:
    """Brownian-motion reference band: e(f) = f + a*(e^{lf} - e^{-lf}).

    Smooth pasting fixes a = -1/(2l*cosh(l*f_bar)), which the evaluators form
    from lam and f_bar, and f_bar as the unique positive root of
    f_bar - tanh(l*f_bar)/l = e_bar, l = sqrt(2/(alpha*sigma^2)). l must be a
    positive finite float (key alpha).
    """
    ModelParams(alpha, 0.0, sigma)  # checks alpha and sigma
    check_e_bar(e_bar)
    alpha_s2 = alpha * sigma**2
    lam = math.sqrt(2.0 / alpha_s2) if alpha_s2 else math.inf
    if not 0 < lam < math.inf:
        raise ParameterError(f"lambda={lam} is not a positive finite float", "alpha")

    def gap(f_bar: float) -> float:
        return f_bar - math.tanh(lam * f_bar) / lam - e_bar

    # gap(0) = -e_bar < 0 and gap(e_bar + 1/lam) > 0: guaranteed bracket.
    try:
        f_bar = brentq(gap, 0.0, e_bar + 1.0 / lam, xtol=1e-16, rtol=8.9e-16)
    except ValueError as exc:
        raise CalibrationError(f"no smooth-pasting root for e_bar={e_bar}") from exc
    return BmStationaryCoefficients(lam, f_bar), Band(-f_bar, f_bar, -e_bar, e_bar)


def _bm_edge_ratio(coefs: BmStationaryCoefficients, f: float, sign: float) -> float:
    """cosh(l|f|)/cosh(l*f_bar) for sign 1, sinh(l|f|)/cosh(l*f_bar) for sign -1.

    Formed as e^{l(|f| - f_bar)} * (1 + sign*e^{-2l|f|}) / (1 + e^{-2l*f_bar}),
    which is finite on the band; where the first factor overflows, key f.
    """
    lam, x = coefs.lam, abs(f)
    try:
        scale = math.exp(lam * (x - coefs.f_bar))
    except OverflowError:
        raise ParameterError(f"e^(lambda*(|f| - f_bar)) overflows at f={f}", "f") from None
    edge = 1.0 + math.exp(-2.0 * lam * coefs.f_bar)
    return scale * (1.0 + sign * math.exp(-2.0 * lam * x)) / edge


def eval_stationary_bm(coefs: BmStationaryCoefficients, f: float) -> float:
    """Brownian-motion stationary rate f + a*(e^{lf} - e^{-lf}) = f - sinh(lf)/(l*cosh(l*f_bar))."""
    return f - math.copysign(_bm_edge_ratio(coefs, f, -1.0), f) / coefs.lam


def eval_stationary_bm_slope(coefs: BmStationaryCoefficients, f: float) -> float:
    """Slope of the Brownian-motion stationary rate, 1 - cosh(lf)/cosh(l*f_bar)."""
    return 1.0 - _bm_edge_ratio(coefs, f, 1.0)

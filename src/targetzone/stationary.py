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
Its evaluators take a float f or an array of any shape; an array of one or
more dimensions is mapped point by point through the float code (math.exp,
whose bits np.exp does not always give), and the first point in C order
whose factor overflows raises. A 0-d array goes through the float code as
it is and gives a float, as at the OU evaluators.

The OU evaluators take value, slope and curvature from one jet, at a float
f or over an array of them. `_solution` derives a2 and the powers of rho and
sigma once, raising ParameterError (key rho or sigma) where one is not a
usable float; the jet then takes the Kummer values M(a2 + k, 3/2 + k, z)
up to the order its caller returns: k = 0 for the value, k <= 1 for the
slope and k <= 2 for the curvature and the ODE residual. That is one float
call per k at a float, and one call on (points, order + 1) lanes over an
array. Each lane repeats the float arithmetic, so an array gives the float
calls' bits point by point, and each order gives the bits the full jet
gives. The curvature's u**3 is Python's pow, point by point; where it
overflows, the curvature and the residual raise ParameterError keyed f.

Newton derives these constants once per calibration and evaluates its trial
points on floats in stages, through the same formulas: M(a2, 3/2, z) gives
the value residual, which alone rejects a point whose residual is no
smaller than the current norm; M(a2 + 1, 5/2, z) gives the slope and the
norm; only a point that lowers the norm evaluates M(a2 + 2, 7/2, z) and u**3
for the curvature, which the next Jacobian needs. So a trial accepts
exactly the points its full jet would, with the same bits, and a rejected
one stops at the residual that rejects it. A trial point whose jet
overflows or whose Kummer series raises is rejected like a NaN residual.
The initial guess is the first trial, with an infinite norm to beat; where
it is rejected, the calibration fails.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np
from scipy.optimize import brentq

from .errors import CalibrationError, ConvergenceError, ParameterError, check_real
from .kummer import kummer_m
from .model import Band, BmStationaryCoefficients, ModelParams, StationaryCoefficients

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100
# k in the Kummer family M(a2 + k, 3/2 + k, z) of the jet's array lanes.
_FAMILY = np.array([0.0, 1.0, 2.0])


Points = Union[float, np.ndarray]


class _Jet(NamedTuple):
    """Value, slope and curvature of e at f, plus the c2-columns h2, h2'.

    `_jet` leaves the derivatives above the order it evaluates None.
    """

    value: Points
    slope: Points
    curvature: Points
    h2: Points
    h2p: Points


class _Solution(NamedTuple):
    """The stationary solution at one (alpha, rho, sigma): its constants and arithmetic.

    h2 = (sqrt(rho)*u/sigma)*M(a2, 3/2, z) with u = -f, and its df-derivatives
    follow from dM(a, b, z)/dz = (a/b) M(a+1, b+1, z) and the chain rule
    through z(f) = rho*f^2/sigma^2. Each method is the one site of its
    formula, for a float f or an array; the Kummer values come in as
    arguments, so the caller decides which of them to evaluate.
    """

    a2: float
    rho: float
    sigma: float
    s2: float
    s3: float
    s5: float
    sqrt_rho: float
    r15: float
    r25: float
    one_alpha_rho: float  # 1 + alpha*rho

    def z(self, u: Points) -> Points:
        return self.rho * u * u / self.s2

    def value(self, c2: float, f: Points, u: Points, m2: Points) -> tuple[Points, Points]:
        """h2 and e at f, from M(a2, 3/2, z)."""
        h2 = (self.sqrt_rho * u / self.sigma) * m2
        return h2, c2 * h2 + f / self.one_alpha_rho

    def slope(
        self, c2: float, u: Points, m2: Points, m2p: Points
    ) -> tuple[Points, Points, Points]:
        """dM(a2, 3/2, z)/dz, h2' and e' at f, from M(a2 + 1, 5/2, z)."""
        dm2 = (self.a2 / 1.5) * m2p
        h2p = -((self.sqrt_rho / self.sigma) * m2 + (2.0 * self.r15 * u * u / self.s3) * dm2)
        return dm2, h2p, c2 * h2p + 1.0 / self.one_alpha_rho

    def curvature(self, c2: float, u: Points, u3: Points, dm2: Points, m2pp: Points) -> Points:
        """e'' at f, from M(a2 + 2, 7/2, z) and u**3."""
        d2m2 = (self.a2 * (self.a2 + 1.0) / (1.5 * 2.5)) * m2pp
        return c2 * ((6.0 * self.r15 * u / self.s3) * dm2 + (4.0 * self.r25 * u3 / self.s5) * d2m2)


def _solution(params: ModelParams) -> _Solution:
    """Derive a2 and the powers of rho and sigma, raising ParameterError (rho, sigma)."""
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
    return _Solution(a2, rho, sigma, s2, s3, s5, sqrt_rho, r15, r25, 1.0 + alpha_rho)


def _cube(u: float) -> float:
    """u**3 by Python's pow, also for a numpy scalar; its OverflowError names the point f = -u."""
    try:
        return float(u) ** 3
    except OverflowError:
        raise OverflowError(f"f**3 overflows at f={0.0 - u}") from None


def _jet(solution: _Solution, c2: float, f: Points, order: int) -> _Jet:
    """Evaluate the stationary solution and its df-derivatives up to `order` at f.

    The Kummer values M(a2 + k, 3/2 + k, z), k = 0 .. order, are computed
    once each, on floats or on (point, k) lanes; the derivatives above
    `order`, and h2' at order 0, are None.
    """
    a2 = solution.a2
    u = 0.0 - f  # not -f: u at f = +0.0 must be +0.0, or the curvature's sign flips
    z = solution.z(u)
    if isinstance(z, np.ndarray):
        # Lanes (point, k): a lane error is the one a loop over f would meet first.
        family = _FAMILY[: order + 1]
        lanes = kummer_m(a2 + family, family + 1.5, z[..., None])
        m = [lanes[..., k] for k in range(order + 1)]
    else:
        m = [kummer_m(a2, 1.5, z)]
        if order >= 1:
            m.append(kummer_m(a2 + 1.0, 2.5, z))
        if order >= 2:
            m.append(kummer_m(a2 + 2.0, 3.5, z))
    h2, value = solution.value(c2, f, u, m[0])
    if order == 0:
        return _Jet(value, None, None, h2, None)
    dm2, h2p, slope = solution.slope(c2, u, m[0], m[1])
    if order == 1:
        return _Jet(value, slope, None, h2, h2p)
    if isinstance(u, np.ndarray):
        # Python's pow per point: numpy's u**3 rounds differently in some lanes.
        u3 = np.reshape([_cube(x) for x in u.ravel().tolist()], u.shape)
    else:
        u3 = _cube(u)
    return _Jet(value, slope, solution.curvature(c2, u, u3, dm2, m[2]), h2, h2p)


def _trial(
    solution: _Solution, e_bar: float, c2: float, f: float, norm: float
) -> tuple[_Jet, tuple[float, float], float] | None:
    """Newton's trial point (c2, f): its jet, residuals and norm if the norm drops below `norm`.

    Returns None for a rejected point, as soon as one is certain: each stage
    adds one Kummer value. The value residual r0 alone rejects when
    |r0| >= norm or r0 is NaN, since the norm max(|r0|, |r1|) is then no
    smaller (even for a NaN r1, which Python's max passes over). Only a point
    that passes pays for the curvature, which the next Jacobian needs; one
    whose curvature overflows or whose Kummer series raises is rejected too.
    """
    try:
        u = 0.0 - f
        z = solution.z(u)
        m2 = kummer_m(solution.a2, 1.5, z)
        h2, value = solution.value(c2, f, u, m2)
        r0 = value - e_bar
        if not abs(r0) < norm:
            return None
        dm2, h2p, slope = solution.slope(c2, u, m2, kummer_m(solution.a2 + 1.0, 2.5, z))
        norm_new = max(abs(r0), abs(slope))
        if not norm_new < norm:
            return None
        curvature = solution.curvature(c2, u, u**3, dm2, kummer_m(solution.a2 + 2.0, 3.5, z))
    except (OverflowError, ConvergenceError):
        return None
    return _Jet(value, slope, curvature, h2, h2p), (r0, slope), norm_new


def _jet_at(params: ModelParams, coefs: StationaryCoefficients, f: Points, order: int) -> _Jet:
    """`_jet` up to `order` at a float or over an array, with numpy's float warnings off.

    Python floats overflow to inf and nan silently; the lanes must too. The
    one Python pow, u**3, raises instead; its first overflowing point in C
    order is keyed f.
    """
    with np.errstate(all="ignore"):
        try:
            return _jet(_solution(params), coefs.c2, f, order)
        except OverflowError as exc:
            raise ParameterError(str(exc), "f") from None


def eval_stationary(params: ModelParams, coefs: StationaryCoefficients, f: Points) -> Points:
    """Stationary exchange rate e(f) for given integration constants, at a float or an array."""
    return _jet_at(params, coefs, f, 0).value


def eval_stationary_slope(params: ModelParams, coefs: StationaryCoefficients, f: Points) -> Points:
    """Analytic de/df of the stationary solution, at a float or an array."""
    return _jet_at(params, coefs, f, 1).slope


def eval_stationary_curvature(
    params: ModelParams, coefs: StationaryCoefficients, f: Points
) -> Points:
    """Analytic d2e/df2 of the stationary solution, at a float or an array."""
    return _jet_at(params, coefs, f, 2).curvature


def stationary_ode_residual(
    params: ModelParams,
    coefs: StationaryCoefficients,
    f_grid: Sequence[float],
) -> np.ndarray:
    """Residual (alpha*sigma^2/2) e'' - alpha*rho*f e' - e + f on a grid.

    Zero (to roundoff) for any coefficients, because every member of the
    solution family satisfies the stationary equation; the check guards the
    analytic-derivative plumbing rather than the calibration. The jet runs
    once over the whole grid; each node gets the bits of the float jet.
    """
    a, r, s2 = params.alpha, params.rho, params.sigma**2
    f = np.asarray(f_grid, dtype=float)
    e, ep, epp, _, _ = _jet_at(params, coefs, f, 2)
    with np.errstate(all="ignore"):  # see _jet_at
        return 0.5 * a * s2 * epp - a * r * f * ep - e + f


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
    check_real(e_bar, "e_bar", 0, open_lo=True)
    solution = _solution(params)

    c2 = 0.0
    f_bar = (1.0 + params.alpha * params.rho) * e_bar
    accepted = _trial(solution, e_bar, c2, f_bar, math.inf)
    if accepted is None:
        raise CalibrationError(
            f"the stationary solution overflows or its Kummer series fails at the initial guess "
            f"f_bar={f_bar}",
            np.array((math.nan, math.nan)),
        )
    jet, res, norm = accepted

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
                accepted = _trial(solution, e_bar, c2_new, f_new, norm)
                if accepted is not None:
                    break
            lam *= 0.5
            if lam < 1e-12:
                raise CalibrationError(
                    "Newton stalled (no descent direction); "
                    f"e_bar={e_bar} may admit no smooth-pasting solution",
                    np.array(res),
                )
        c2, f_bar = c2_new, f_new
        jet, res, norm = accepted

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
    check_real(e_bar, "e_bar", 0, open_lo=True)
    alpha_s2 = alpha * sigma**2
    lam = math.sqrt(2.0 / alpha_s2) if alpha_s2 else math.inf
    if not 0 < lam < math.inf:
        raise ParameterError(f"lambda={lam} is not a positive finite float", "alpha")

    def gap(f_bar: float) -> float:
        return f_bar - math.tanh(lam * f_bar) / lam - e_bar

    # gap(0) = -e_bar < 0 and gap(hi) = (1 - tanh(lam*hi))/lam >= 0. Once tanh(lam*hi)
    # rounds to 1, hi is the root to rounding and the computed gap(hi) may be below 0.
    hi = e_bar + 1.0 / lam
    f_bar = hi if gap(hi) <= 0 else brentq(gap, 0.0, hi, xtol=1e-16, rtol=8.9e-16)
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


def _bm_at(evaluate: Callable[[float], float], f: Points) -> Points:
    """`evaluate` at a float or 0-d array, or point by point over an array (see above)."""
    if isinstance(f, np.ndarray) and f.ndim >= 1:
        return np.reshape([evaluate(x) for x in f.ravel().tolist()], f.shape)
    return evaluate(f)


def eval_stationary_bm(coefs: BmStationaryCoefficients, f: Points) -> Points:
    """Brownian-motion stationary rate f + a*(e^{lf} - e^{-lf}) = f - sinh(lf)/(l*cosh(l*f_bar))."""
    return _bm_at(lambda x: x - math.copysign(_bm_edge_ratio(coefs, x, -1.0), x) / coefs.lam, f)


def eval_stationary_bm_slope(coefs: BmStationaryCoefficients, f: Points) -> Points:
    """Slope of the Brownian-motion stationary rate, 1 - cosh(lf)/cosh(l*f_bar)."""
    return _bm_at(lambda x: 1.0 - _bm_edge_ratio(coefs, x, 1.0), f)

"""Regenerate the frozen constants in tests/reference_values.py.

Run with: python scripts/gen_reference_values.py

Needs mpmath (arbitrary precision), which is deliberately not a package or
test dependency; it is used only offline, here. Every value is produced by a
method independent of the shipped code paths:

* Kummer points: mpmath's hyp1f1 at 50 decimal digits.
* Symmetric calibration: eliminate the c2 coefficient from the smooth-pasting
  (zero-slope) equation, then bisect the band-value equation in f_bar.
* Brownian-motion reference: bisect f_bar - tanh(lam*f_bar)/lam = e_bar.
"""

import mpmath as mp

mp.mp.dps = 50


def ou_calibrate(alpha, rho, sigma, e_bar):
    a2 = (1 + alpha * rho) / (2 * alpha * rho)
    a3 = (1 + 3 * alpha * rho) / (2 * alpha * rho)

    def c2_of(f_bar):
        z = rho * f_bar**2 / sigma**2
        denom = (mp.sqrt(rho) / sigma) * mp.hyp1f1(a2, mp.mpf(3) / 2, z) + (
            2 * mp.sqrt(rho) * (1 + alpha * rho) * f_bar**2 / (3 * alpha * sigma**3)
        ) * mp.hyp1f1(a3, mp.mpf(5) / 2, z)
        return (1 / (1 + alpha * rho)) / denom

    def value_gap(f_bar):
        z = rho * f_bar**2 / sigma**2
        edge = f_bar / (1 + alpha * rho) - c2_of(f_bar) * (
            mp.sqrt(rho) * f_bar / sigma
        ) * mp.hyp1f1(a2, mp.mpf(3) / 2, z)
        return edge - e_bar

    lo, hi = mp.mpf("1e-8"), mp.mpf(1)
    assert value_gap(lo) < 0 < value_gap(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if value_gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    f_bar = (lo + hi) / 2
    return c2_of(f_bar), f_bar


def bm_calibrate(alpha, sigma, e_bar):
    lam = mp.sqrt(2 / (alpha * sigma**2))
    lo, hi = mp.mpf(0), e_bar + 1 / lam
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid - mp.tanh(lam * mid) / lam - e_bar < 0:
            lo = mid
        else:
            hi = mid
    f_bar = (lo + hi) / 2
    return lam, f_bar, -1 / (2 * lam * mp.cosh(lam * f_bar))


# (alpha, rho, sigma, e_bar) of the symmetric calibrations beyond the reference point.
OU_POINTS = [
    (0.5, 5.0, 0.1, 0.2),
    (44.520313677514466, 0.004508939050233481, 0.22659397028015218, 0.004867791702035497),
    (1.0, 10.0, 0.05, 0.02),
    (10.0, 0.1, 0.3, 0.05),
]


def main():
    alpha, sigma, e_bar = mp.mpf(3), mp.mpf("0.1"), mp.mpf("0.01")

    def dump(name, value):
        print(f"{name} = {mp.nstr(value, 17)}")

    dump("KUMMER_M_SIXTH_HALF_009", mp.hyp1f1(mp.mpf(1) / 6, mp.mpf(1) / 2, mp.mpf("0.09")))
    c2, f_bar = ou_calibrate(alpha, mp.mpf(1), sigma, e_bar)
    dump("OU_C2", c2)
    dump("OU_F_BAR", f_bar)
    lam, f_bm, a_coef = bm_calibrate(alpha, sigma, e_bar)
    dump("BM_LAMBDA", lam)
    dump("BM_F_BAR", f_bm)
    dump("BM_A_COEF", a_coef)

    # Points given as floats: mp.mpf takes their exact binary values, as the package does.
    print("OU_CALIBRATIONS = [")
    for point in OU_POINTS:
        c2, f_bar = ou_calibrate(*(mp.mpf(x) for x in point))
        print(f"    ({point}, {mp.nstr(c2, 17)}, {mp.nstr(f_bar, 17)}),")
    print("]")


if __name__ == "__main__":
    main()

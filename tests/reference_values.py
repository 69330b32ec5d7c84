"""Frozen high-precision reference values.

Generated by scripts/gen_reference_values.py (mpmath at 50 digits, rounded to
17 significant figures), by methods independent of the shipped code: direct
arbitrary-precision series for the Kummer point, coefficient elimination plus
bisection for the symmetric calibration, and scalar bisection for the
Brownian-motion band. Regenerate with:

    python scripts/gen_reference_values.py
"""

# M(1/6, 1/2, 0.09): the first Kummer term's parameters at alpha=3, rho=1.
KUMMER_M_SIXTH_HALF_009 = 1.0310778651446263

# Symmetric calibration at alpha=3, rho=1, sigma=0.1, e_bar=0.01.
OU_C2 = 0.0093815985296837484
OU_F_BAR = 0.088656647474682533

# Symmetric calibration beyond the reference point, at the exact binary values
# of these floats: ((alpha, rho, sigma, e_bar), c2, f_bar).
OU_CALIBRATIONS = [
    ((0.5, 5.0, 0.1, 0.2), 4.5347376483590983e-110, 0.70142741072685047),  # z_bar = 246
    (
        (44.520313677514466, 0.004508939050233481, 0.22659397028015218, 0.004867791702035497),
        2.714904508132147,
        0.25771999309067905,
    ),
    ((1.0, 10.0, 0.05, 0.02), 3.082570643721486e-88, 0.22056803859326575),  # z_bar = 195
    ((10.0, 0.1, 0.3, 0.05), 0.31692454019435463, 0.43966521781559742),
]

# Brownian-motion reference at alpha=3, sigma=0.1, e_bar=0.01.
BM_LAMBDA = 8.1649658092772603
BM_F_BAR = 0.08083794712793195
BM_A_COEF = -0.04995494281525182

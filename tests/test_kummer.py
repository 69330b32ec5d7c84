import math

import numpy as np
import pytest

from targetzone import ConvergenceError, ParameterError, kummer_m, kummer_m_dz

from reference_values import KUMMER_M_SIXTH_HALF_009


@pytest.mark.parametrize("a,b", [(0.5, 1.5), (1.0, 1.0), (-2.3, 0.25), (7.0, 3.5)])
def test_value_at_zero_is_exactly_one(a, b):
    assert kummer_m(a, b, 0.0) == 1.0


@pytest.mark.parametrize("a", [1.0, 0.5, 2.5])
def test_exponential_identity(a):
    # M(a, a, z) = e^z; the acceptance bound is 1e-12 absolute on [-5, 5].
    for z in np.linspace(-5.0, 5.0, 101):
        assert abs(kummer_m(a, a, z) - math.exp(z)) < 1e-12


def test_exp_of_one():
    assert kummer_m(1.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-14)


def test_frozen_high_precision_point():
    # Oracle: mpmath series at 50 digits (scripts/gen_reference_values.py).
    value = kummer_m(1.0 / 6.0, 0.5, 0.09)
    assert value == pytest.approx(KUMMER_M_SIXTH_HALF_009, rel=5e-15)


def test_kummer_transformation():
    # M(a, b, -z) = exp(-z) * M(b - a, b, z), an identity independent of the
    # series route used for positive arguments.
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = rng.uniform(-2.0, 3.0)
        b = rng.uniform(0.3, 4.0)
        z = rng.uniform(0.0, 4.0)
        lhs = kummer_m(a, b, -z)
        rhs = math.exp(-z) * kummer_m(b - a, b, z)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


def test_deterministic():
    args = (0.7, 1.9, 2.3)
    assert kummer_m(*args) == kummer_m(*args)


def test_doubling_term_cap_changes_nothing_after_convergence(monkeypatch):
    import targetzone.kummer as kummer_mod

    for z in (0.09, 1.7, -3.0):
        base = kummer_m(2.0 / 3.0, 1.5, z)
        with monkeypatch.context() as patch:
            patch.setattr(kummer_mod, "MAX_TERMS", 1000)
            doubled = kummer_m(2.0 / 3.0, 1.5, z)
        assert abs(doubled - base) <= 1e-12 * abs(base)


def test_derivative_at_zero():
    assert kummer_m_dz(1.0, 1.0, 0.0) == 1.0
    assert kummer_m_dz(0.5, 1.5, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_derivative_matches_central_difference():
    # Cross-check of the identity dM/dz = (a/b) M(a+1, b+1, z).
    a, b, z = 2.0 / 3.0, 1.5, 0.09
    h = 1e-6
    fd = (kummer_m(a, b, z + h) - kummer_m(a, b, z - h)) / (2.0 * h)
    assert abs(kummer_m_dz(a, b, z) - fd) < 1e-8


def test_derivative_finite_difference_order():
    # Central differences converge at O(h^2); observed order must be >= 1.9.
    a, b, z = 2.0 / 3.0, 1.5, 0.5
    exact = kummer_m_dz(a, b, z)

    def fd_error(h):
        fd = (kummer_m(a, b, z + h) - kummer_m(a, b, z - h)) / (2.0 * h)
        return abs(fd - exact)

    order = math.log10(fd_error(1e-3) / fd_error(1e-4))
    assert order >= 1.9


@pytest.mark.parametrize("b", [0.0, -1.0, -3.0])
def test_pole_b_raises(b):
    with pytest.raises(ParameterError, match="pole"):
        kummer_m(1.0, b, 0.5)
    with pytest.raises(ParameterError, match="pole"):
        kummer_m_dz(1.0, b, 0.5)


def test_negative_noninteger_b_is_fine():
    assert math.isfinite(kummer_m(1.0, -0.5, 0.2))


def test_nonconvergence_reports_terms():
    with pytest.raises(ConvergenceError, match="500 terms"):
        kummer_m(1.0, 1.0, 400.0)


def test_cancellation_raises_instead_of_a_wrong_value():
    # The true value is 0.0390 (scipy.special.hyp1f1); the alternating series
    # peaks near 7e24 and its float sum is -4.8e8.
    with pytest.raises(ConvergenceError, match="cancels"):
        kummer_m(166.7, 0.5, -5.0)


def test_cancellation_bound_is_1e_12():
    # M(1, 1, -z) = e^{-z} by alternating terms. The largest term times 2**-52
    # is 8.6e-13 of the sum at z = 5, inside the bound, and 2.3e-12 at z = 5.5.
    assert kummer_m(1.0, 1.0, -5.0) == pytest.approx(math.exp(-5.0), rel=1e-12)
    with pytest.raises(ConvergenceError, match="cancels"):
        kummer_m(1.0, 1.0, -5.5)


@pytest.mark.parametrize("a,b,z", [(1.0 / 6.0, 0.5, 0.09), (2.99, 1.5, 40.0), (0.7, 1.9, -2.3)])
def test_numpy_scalar_arguments_give_the_same_float(a, b, z):
    plain = kummer_m(a, b, z)
    from_numpy = kummer_m(np.float64(a), np.float64(b), np.float64(z))
    assert type(from_numpy) is float
    assert from_numpy.hex() == plain.hex()


def test_overflowing_sum_raises_instead_of_inf():
    with pytest.raises(ConvergenceError, match="overflows"):
        kummer_m(3.0, 1.5, 800.0)

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


def test_minus_infinite_b_is_a_keyed_error():
    # The poles pile up towards b = -inf; math.floor(-inf) raised an untyped OverflowError.
    with pytest.raises(ParameterError) as scalar:
        kummer_m(1.0, -math.inf, 0.5)
    with pytest.raises(ParameterError) as lanes:
        kummer_m(np.array([1.0, 1.0]), np.array([1.5, -math.inf]), np.array([0.5, 0.5]))
    assert scalar.value.key == lanes.value.key == "b"


def test_derivative_takes_array_b_and_checks_every_lane():
    # An array b once met the pole test as one truth value: numpy's untyped ValueError.
    b = np.array([0.5, 1.5, -0.5, 7.25])
    z = np.array([0.0, 0.3, 4.0])
    got = kummer_m_dz(1.0, b[:, None], z)
    assert got.shape == (4, 3)
    assert [x.hex() for x in got.ravel().tolist()] == [
        kummer_m_dz(1.0, y, w).hex() for y in b.tolist() for w in z.tolist()
    ]
    for poles in ([1.5, -2.0], [0.0, 1.5], [1.5, -math.inf]):
        with pytest.raises(ParameterError, match="pole") as excinfo:
            kummer_m_dz(1.0, np.array(poles), 0.3)
        assert excinfo.value.key == "b"


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


# Array lanes repeat the float loop: same bits, same stopping term, same error.
LANE_A2 = np.geomspace(0.5, 5e3, 9)
LANE_Z = np.array([0.0, 1e-9, 0.03, 0.786, 4.0, 25.0, 90.0, 180.0, 260.0, 313.0, 340.0])


def _scalar_lanes(a, b, z):
    """The float calls lane by lane: values, and the error text of each failing lane."""
    values, errors = [], []
    for x, y, w in zip(a.ravel().tolist(), b.ravel().tolist(), z.ravel().tolist()):
        try:
            values.append(kummer_m(x, y, w))
            errors.append(None)
        except ConvergenceError as exc:
            values.append(math.nan)
            errors.append(str(exc))
    return np.reshape(values, z.shape), errors


@pytest.mark.parametrize("b", [1.5, 2.5, 3.5])
def test_lanes_equal_the_float_loop(b, monkeypatch):
    import targetzone.kummer as kummer_mod

    a, z = np.meshgrid(LANE_A2, LANE_Z, indexing="ij")
    b = np.full(z.shape, b)
    expected, errors = _scalar_lanes(a, b, z)
    fine = np.array([e is None for e in errors]).reshape(z.shape)
    assert np.array_equal(kummer_m(a[fine], b[fine], z[fine]), expected[fine])
    # The whole grid raises the float loop's first error, in C order.
    with pytest.raises(ConvergenceError) as excinfo:
        kummer_m(a, b, z)
    assert str(excinfo.value) == next(e for e in errors if e is not None)
    # Some converged lanes run past the first 64 terms, so blocks carry over.
    monkeypatch.setattr(kummer_mod, "MAX_TERMS", 64)
    assert any(e is not None for e in _scalar_lanes(a[fine], b[fine], z[fine])[1])


def test_lanes_broadcast_and_keep_the_shape():
    z = LANE_Z[:6].reshape(2, 3)
    got = kummer_m(2.0 / 3.0, np.array([1.5, 2.5, 3.5]), z)
    assert got.shape == (2, 3)
    assert [x.hex() for x in got.ravel().tolist()] == [
        kummer_m(2.0 / 3.0, y, w).hex()
        for w, y in zip(z.ravel().tolist(), [1.5, 2.5, 3.5] * 2)
    ]
    assert kummer_m(np.array([]), 1.5, np.array([])).shape == (0,)
    zero_d = kummer_m(np.array(0.7), 1.9, np.array(2.3))
    assert type(zero_d) is float and zero_d == kummer_m(0.7, 1.9, 2.3)


@pytest.mark.parametrize(
    "lanes",
    [
        # Mixed signs: the first failing lane's error is the float loop's.
        [(1.0, 1.0, -5.0), (1.0, 1.0, -5.5), (166.7, 0.5, -5.0)],
        [(1.0, 1.0, -5.0), (1.0, 1.0, 400.0), (1.0, 1.0, -5.5)],
        [(166.7, 0.5, -5.0), (3.0, 1.5, 800.0)],
        [(0.5, 1.5, 1.0), (0.5, 1.5, math.nan)],
        [(0.5, 1.5, 1.0), (0.5, 1.5, math.inf), (0.5, 1.5, math.nan)],
    ],
)
def test_lane_errors_are_the_float_loops_first_error(lanes):
    a, b, z = (np.array(column) for column in zip(*lanes))
    _, errors = _scalar_lanes(a, b, z)
    with pytest.raises(ConvergenceError) as excinfo:
        kummer_m(a, b, z)
    assert str(excinfo.value) == next(e for e in errors if e is not None)


def test_mixed_sign_lanes_that_converge_equal_the_float_loop():
    rng = np.random.default_rng(7)
    a, b, z = rng.uniform(-2.0, 3.0, 200), rng.uniform(0.3, 4.0, 200), rng.uniform(-3.0, 3.0, 200)
    expected, errors = _scalar_lanes(a, b, z)
    assert errors == [None] * 200
    assert np.array_equal(kummer_m(a, b, z), expected)


def test_lanes_check_the_pole_of_b():
    with pytest.raises(ParameterError, match="pole"):
        kummer_m(np.array([1.0, 1.0]), np.array([1.5, -2.0]), np.array([0.5, 0.5]))


def _loop_outcome(loop, a, b, z):
    """A float loop's value as hex, or its error text."""
    try:
        return loop(a, b, z).hex()
    except ConvergenceError as exc:
        return str(exc)


def test_positive_loop_equals_the_signed_loop(monkeypatch):
    # kummer_m sums a > 0, b > 0, z >= 0 in a loop without abs(), the largest
    # term or the cancellation test; the signed loop, which keeps them, is the
    # reference: same bits, same stopping term, same error text.
    import targetzone.kummer as kummer_mod

    rng = np.random.default_rng(22)
    special_z = [0.0, -0.0, math.inf, math.nan, 5e-324, 400.0, 800.0]
    design = [
        (x, y, w)
        for x in [*np.geomspace(0.5, 5e3, 9).tolist(), math.inf]
        for y in (0.5, 1.5, 2.5, 3.5, 7.25)
        for w in [*np.exp(rng.uniform(math.log(1e-300), math.log(1e3), 60)).tolist(), *special_z]
    ]
    capped = {}
    for cap in (500, 64):
        monkeypatch.setattr(kummer_mod, "MAX_TERMS", cap)
        assert kummer_mod._denominators(3.5, cap) == tuple((3.5 + n) * (n + 1.0) for n in range(cap))
        fast = [_loop_outcome(kummer_m, *args) for args in design]
        assert fast == [_loop_outcome(kummer_mod._kummer_m_signed, *args) for args in design]
        assert any(x.startswith("0x") for x in fast) and any(x.endswith("overflows") for x in fast)
        capped[cap] = sum(x.endswith(f"did not converge in {cap} terms") for x in fast)
    # The design needs more than 64 terms at some points that 500 terms sum.
    assert 0 < capped[500] < capped[64]

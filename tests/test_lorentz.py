import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lorentzpol as lp

from conftest import vector_parameters

LN2 = np.log(2.0)


def _measure(matrix, intensity=1.0):
    return lp.simulate_measurements(matrix, intensity)


def test_delta_from_trace_values():
    assert lp.delta_from_trace(_measure(np.eye(4))) == 1.0
    delta = lp.delta_from_trace(_measure(lp.boost_mueller(3, LN2)))
    # trace sum is 2(cosh + 1) = 4.5
    assert delta == pytest.approx(np.sqrt(4.5) / 2.0, abs=1e-14)
    assert delta == pytest.approx(np.cosh(LN2 / 2.0), abs=1e-14)


def test_delta_from_trace_degenerate():
    with pytest.raises(lp.DegenerateTrace):
        lp.delta_from_trace(_measure(np.diag([1.0, -1.0, -1.0, 1.0])))


@pytest.mark.parametrize("gap, singular", [(2e-5, False), (5e-6, True)])
def test_delta_from_trace_documented_boundary(gap, singular):
    # trace_sum / I = (pi - theta)^2 for a rotation near pi; the cut is 1e-10
    ms = _measure(lp.rotation_mueller(2, np.pi - gap))
    if singular:
        with pytest.raises(lp.DegenerateTrace):
            lp.delta_from_trace(ms)
    else:
        assert lp.delta_from_trace(ms) == pytest.approx(gap / 2.0, rel=1e-3)


def test_mn_identity_and_boost():
    ms = _measure(np.eye(4))
    mvec, nvec = lp.mn_from_antisymmetric(ms, lp.delta_from_trace(ms))
    assert_allclose(mvec, 0.0, atol=1e-15)
    assert_allclose(nvec, 0.0, atol=1e-15)

    ms = _measure(lp.boost_mueller(3, LN2))
    delta = lp.delta_from_trace(ms)
    mvec, nvec = lp.mn_from_antisymmetric(ms, delta)
    assert_allclose(mvec, [0, 0, -np.sinh(LN2 / 2.0)], atol=1e-14)
    assert_allclose(nvec, 0.0, atol=1e-15)
    # antisymmetric entry feeding M3 equals -sinh(ln 2) = -0.75
    assert 2.0 * delta * mvec[2] == pytest.approx(-0.75, abs=1e-14)


def test_mn_rotation_populates_n_only():
    theta = 0.9
    ms = _measure(lp.rotation_mueller(3, theta))
    delta = lp.delta_from_trace(ms)
    mvec, nvec = lp.mn_from_antisymmetric(ms, delta)
    assert_allclose(mvec, 0.0, atol=1e-10)
    assert_allclose(nvec, [0, 0, np.sin(theta / 2.0)], atol=1e-14)


def test_mn_requires_positive_delta():
    with pytest.raises(ValueError):
        lp.mn_from_antisymmetric(_measure(np.eye(4)), 0.0)


def test_delta_from_trace_invariant():
    ms = _measure(lp.boost_mueller(2, 0.8), intensity=2.5)
    delta = lp.delta_from_trace(ms)
    assert 4.0 * delta**2 == pytest.approx(np.trace(lp.reconstruct_mueller(ms)), abs=1e-12)


def test_recover_k_identity_and_boost():
    assert_allclose(lp.recover_k(_measure(np.eye(4))), [1, 0, 0, 0])
    k = lp.recover_k(_measure(lp.boost_mueller(3, LN2)))
    assert_allclose(k, [np.cosh(LN2 / 2), 0, 0, -1j * np.sinh(LN2 / 2)], atol=1e-14)


def test_recover_q_identity_boost_rotation():
    assert_allclose(lp.recover_q(_measure(np.eye(4))), np.zeros(3))
    q = lp.recover_q(_measure(lp.boost_mueller(3, LN2)))
    assert_allclose(q, [0, 0, -1.0 / 3.0], atol=1e-15)
    theta = 1.1
    q = lp.recover_q(_measure(lp.rotation_mueller(3, theta)))
    assert_allclose(q, [0, 0, -1j * np.tan(theta / 2.0)], atol=1e-14)


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_axis_cycled_boost_regression(axis):
    # locks the antisymmetric-part index pattern on every axis
    q = lp.recover_q(_measure(lp.boost_mueller(axis, LN2)))
    want = np.zeros(3, dtype=complex)
    want[axis - 1] = -1.0 / 3.0
    assert_allclose(q, want, atol=1e-14)


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_axis_cycled_rotation_regression(axis):
    theta = 0.8
    q = lp.recover_q(_measure(lp.rotation_mueller(axis, theta)))
    want = np.zeros(3, dtype=complex)
    want[axis - 1] = -1j * np.tan(theta / 2.0)
    assert_allclose(q, want, atol=1e-14)


@settings(max_examples=150)
@given(vector_parameters())
def test_full_round_trip_over_random_parameters(q):
    k = lp.k_from_q(q)
    element = lp.lorentz_from_k(k)
    ms = _measure(element)
    k_rec = lp.recover_k(ms)
    assert np.abs(k_rec - lp.canonical_spinor_sign(k)).max() < 1e-9
    assert np.abs(lp.lorentz_from_k(k_rec) - lp.reconstruct_mueller(ms)).max() < 1e-9


@given(vector_parameters())
def test_recover_q_consistent_with_recover_k(q):
    ms = _measure(lp.lorentz_from_k(lp.k_from_q(q)))
    q_direct = lp.recover_q(ms)
    k = lp.recover_k(ms)
    assert np.abs(q_direct - k[1:] / (1j * k[0])).max() < 1e-12  # i*q = kvec/k0
    assert np.abs(q_direct - q).max() < 1e-9


@settings(max_examples=50)
@given(vector_parameters())
def test_mn_split_real_k_vs_boost(q):
    # purely real spinor parameters put everything in N
    k = lp.k_from_q(q)
    k_real = lp.canonical_spinor_sign(k.real.astype(complex))
    k_real /= np.sqrt(lp.spinor_norm(k_real))
    ms = _measure(lp.lorentz_from_k(k_real))
    mvec, _ = lp.mn_from_antisymmetric(ms, lp.delta_from_trace(ms))
    assert np.abs(mvec).max() < 1e-10


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.5])
def test_mn_split_boost_family(beta):
    ms = _measure(lp.boost_mueller(1, beta))
    _, nvec = lp.mn_from_antisymmetric(ms, lp.delta_from_trace(ms))
    assert np.abs(nvec).max() < 1e-10


def test_rotation_branch_consistency():
    # quaternion branch and general branch describe the same element
    n = np.array([0.8, 0.2, -0.4, np.sqrt(1 - 0.8**2 - 0.2**2 - 0.4**2)])
    element = lp.embed_rotation(lp.quaternion_to_rotation(n))
    ms = _measure(element)
    from_quaternion = lp.embed_rotation(
        lp.quaternion_to_rotation(lp.recover_quaternion(lp.rotation_from_measurements(ms)))
    )
    from_spinor = lp.lorentz_from_k(lp.recover_k(ms))
    assert np.abs(from_quaternion - from_spinor).max() < 1e-9


def test_verify_round_trip_pass_and_identity():
    report = lp.verify_round_trip(_measure(lp.boost_mueller(3, LN2)), tol=1e-9)
    assert report.passed
    assert report.max_deviation < 1e-10
    assert report.error is None
    report = lp.verify_round_trip(_measure(np.eye(4)))
    assert report.max_deviation == 0.0


def test_verify_round_trip_non_lorentzian_no_crash():
    report = lp.verify_round_trip(_measure(2.0 * np.eye(4)), tol=1e-9)
    assert not report.passed
    assert report.max_deviation == pytest.approx(1.0)
    assert report.residuals.r0 == pytest.approx(3.0)


def test_verify_round_trip_degenerate_carries_error():
    report = lp.verify_round_trip(_measure(np.diag([1.0, -1.0, -1.0, 1.0])))
    assert not report.passed
    assert report.max_deviation is None
    assert "DegenerateTrace" in report.error
    assert report.residuals.normalized_max < 1e-12


def test_recover_parameters_result_fields():
    ms = _measure(lp.boost_mueller(3, LN2))
    result = lp.recover_parameters(ms)
    assert result.delta == pytest.approx(np.cosh(LN2 / 2), abs=1e-14)
    assert result.round_trip_max_dev < 1e-12
    payload = result.to_json_dict()
    assert list(payload) == [
        "delta", "M", "N", "k", "q", "round_trip_max_dev", "lorentz_residuals",
    ]


@st.composite
def measurement_sets(draw):
    """Measurements of a random Lorentz-type element at a random intensity,
    optionally noisy, so the outputs are generic doubles."""
    k = lp.k_from_q(draw(vector_parameters()))
    intensity = draw(st.floats(0.25, 4.0))
    sigma = draw(st.sampled_from([0.0, 1e-9, 1e-4]))
    seed = draw(st.integers(0, 2**31 - 1))
    return lp.simulate_measurements(lp.lorentz_from_k(k), intensity, lp.NoiseSpec(sigma, seed))


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@settings(max_examples=200)
@given(measurement_sets())
def test_one_pass_parity_with_stage_functions(ms):
    result = lp.recover_parameters(ms)
    delta = lp.delta_from_trace(ms)
    mvec, nvec = lp.mn_from_antisymmetric(ms, delta)
    assert _bits(result.delta) == _bits(delta)
    assert _bits(result.mvec) == _bits(mvec)
    assert _bits(result.nvec) == _bits(nvec)
    assert _bits(result.k) == _bits(lp.recover_k(ms))
    assert _bits(result.q) == _bits(lp.recover_q(ms))


@settings(max_examples=200)
@given(measurement_sets())
def test_one_pass_matches_componentwise_formulas(ms):
    # the formula of recover_q's docstring, term by term
    f, a, b, c = ms.outputs()
    trace_sum = float(f[0] + (a[1] - f[1]) + (b[2] - f[2]) + (c[3] - f[3]))
    numerators = np.array([
        (f[0] - f[1] - a[0]) - 1j * ((f[2] - f[3]) - (c[2] - b[3])),
        (f[0] - f[2] - b[0]) - 1j * ((f[3] - f[1]) - (a[3] - c[1])),
        (f[0] - f[3] - c[0]) - 1j * ((f[1] - f[2]) - (b[1] - a[2])),
    ])
    q = lp.recover_q(ms)
    assert _bits(q) == _bits(numerators / trace_sum)
    # the antisymmetric layout of the module docstring, scaled by 4*I*delta
    result = lp.recover_parameters(ms)
    # delta pins the trace sum, with q above
    assert _bits(result.delta) == _bits(math.sqrt(trace_sum / ms.intensity) / 2.0)
    scale = 4.0 * ms.intensity * result.delta
    assert _bits(result.mvec) == _bits(np.array([
        f[0] - f[1] - a[0], f[0] - f[2] - b[0], f[0] - f[3] - c[0],
    ]) / scale)
    assert _bits(result.nvec) == _bits(np.array([
        f[2] - f[3] - c[2] + b[3], f[3] - f[1] - a[3] + c[1], f[1] - f[2] - b[1] + a[2],
    ]) / scale)
    # and (M - iN)/delta up to rounding
    assert np.abs(q - (result.mvec - 1j * result.nvec) / result.delta).max() < 1e-12


@settings(max_examples=300)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-17, -3.0]), min_size=12, max_size=12),
       st.floats(0.25, 4.0))
@example(offdiag=[0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, -3.0, 0.0, 0.5], intensity=0.25)
def test_q_division_matches_numpy_on_signed_zeros(offdiag, intensity):
    # q is divided on scalars with numpy's complex-division formula; signed zeros
    # in the numerators keep the bytes of the array expression of earlier releases
    outputs = np.diag([4.0, 4.0, 4.0, 4.0]) * intensity
    outputs[~np.eye(4, dtype=bool)] = offdiag
    outputs[0, 0] = 2.0 * intensity
    ms = lp.MeasurementSet(intensity, *outputs)
    (f0, f1, f2, f3), (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = outputs.tolist()
    trace_sum = f0 + (a1 - f1) + (b2 - f2) + (c3 - f3)
    m = [f0 - f1 - a0, f0 - f2 - b0, f0 - f3 - c0]
    q_im = [(f2 - f3) - (c2 - b3), (f3 - f1) - (a3 - c1), (f1 - f2) - (b1 - a2)]
    expected = (np.array(m) - 1j * np.array(q_im)) / trace_sum
    try:
        q = lp.recover_q(ms)
    except lp.SingularNormalization:
        # some draws put q on q.q = 1, where delta^2 + v.v = delta^2 (1 - q.q) vanishes
        assert abs(1.0 - np.dot(expected, expected)) < 1e-9
        with pytest.raises(lp.SingularNormalization):
            lp.recover_parameters(ms)
        return
    assert _bits(q) == _bits(expected)
    assert _bits(lp.recover_parameters(ms).q) == _bits(expected)

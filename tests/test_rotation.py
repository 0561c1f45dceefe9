import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lorentzpol as lp
from lorentzpol import cli

from conftest import unit_quaternions

QUARTER_TURN = np.array([
    [0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
])
E1, E2, E3 = np.eye(3)
EPS = np.finfo(float).eps


def _measure(rotation_block, intensity=1.0):
    return lp.simulate_measurements(lp.embed_rotation(rotation_block), intensity)


def test_rotation_from_measurements_identity():
    assert_allclose(lp.rotation_from_measurements(_measure(np.eye(3))), np.eye(3))


def test_rotation_from_measurements_quarter_turn():
    assert_allclose(lp.rotation_from_measurements(_measure(QUARTER_TURN)), QUARTER_TURN, atol=1e-15)


def test_rotation_from_measurements_rejects_boost():
    ms = lp.simulate_measurements(lp.boost_mueller(3, np.log(2.0)), 1.0)
    with pytest.raises(lp.NotRotationType):
        lp.rotation_from_measurements(ms)


def test_rotation_from_measurements_gate_is_the_classifier():
    # a noisy retarder: rotation-type at tol 1e-3, not Lorentz-type at 1e-9
    ms = lp.simulate_measurements(lp.rotation_mueller(1, 0.4), 1.0, lp.NoiseSpec(2e-4, 3))
    assert lp.is_lorentzian(lp.reconstruct_mueller(ms), 1e-3) is lp.MuellerClass.ROTATION
    expected = np.column_stack([ms.a[1:], ms.b[1:], ms.c[1:]]) / ms.intensity
    assert lp.rotation_from_measurements(ms, 1e-3).tobytes() == expected.tobytes()
    with pytest.raises(lp.NotRotationType, match=r"^measurements classify as not-lorentzian at tol 1e-09, "
                                                  r"not rotation$"):
        lp.rotation_from_measurements(ms)
    boost = lp.simulate_measurements(lp.boost_mueller(3, 0.5), 1.0)
    with pytest.raises(lp.NotRotationType, match=r"^measurements classify as lorentz at tol 0\.001, not rotation$"):
        lp.rotation_from_measurements(boost, 1e-3)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_rotation_from_measurements_rejects_bad_tolerance(tol):
    # refused before the classifier, where every comparison with a NaN tol is False
    ms = lp.simulate_measurements(lp.boost_mueller(3, np.log(2.0)), 1.0)
    with pytest.raises(ValueError, match="finite and positive"):
        lp.rotation_from_measurements(ms, tol=tol)


def test_recover_quaternion_values():
    assert_allclose(lp.recover_quaternion(np.eye(3)), [1, 0, 0, 0])
    s = np.sqrt(0.5)
    # regression: sign convention of the extraction
    assert_allclose(lp.recover_quaternion(QUARTER_TURN), [s, 0, 0, s], atol=1e-15)


def test_recover_quaternion_near_pi():
    with pytest.raises(lp.NearPiRotation):
        lp.recover_quaternion(np.diag([1.0, -1.0, -1.0]))  # pi about axis 1


@pytest.mark.parametrize("gap, singular", [(2e-4, False), (5e-5, True)])
def test_recover_quaternion_documented_pi_boundary(gap, singular):
    # trace + 1 = (pi - theta)^2 near pi; the cut is trace + 1 <= 1e-8
    block = lp.rotation_mueller(1, np.pi - gap)[1:, 1:]
    if singular:
        with pytest.raises(lp.NearPiRotation):
            lp.recover_quaternion(block)
    else:
        assert lp.recover_quaternion(block)[0] == pytest.approx(gap / 2.0, rel=1e-6)


# each case breaks the orthonormal right-handed triad formed by the columns
@pytest.mark.parametrize("columns", [
    (2 * E1, 2 * E2, 2 * E3),
    (E1, E2, -E3),
    (2 * E1, E2, E3),
    (E1, (E1 + E2) / np.sqrt(2.0), E3),
], ids=["scaled", "left_handed", "one_scaled_column", "non_orthogonal"])
def test_recover_quaternion_rejects_non_rotations(columns):
    with pytest.raises(lp.NotRotation):
        lp.recover_quaternion(np.column_stack(columns))


@settings(max_examples=150)
@given(unit_quaternions(min_n0=0.05))
def test_quaternion_round_trip(n):
    recovered = lp.recover_quaternion(lp.quaternion_to_rotation(n))
    assert np.abs(recovered - n).max() < 1e-9


@given(unit_quaternions(min_n0=0.05))
def test_rotation_identity_sum_is_four(n):
    assert abs(lp.rotation_identity_sum(lp.quaternion_to_rotation(n)) - 4.0) < 1e-10


@pytest.mark.parametrize("r", [lp.rotation_mueller(1, 0.4), [[1.0]]], ids=["4x4", "1x1"])
def test_rotation_identity_sum_rejects_other_shapes(r):
    with pytest.raises(ValueError, match=r"shape \(3, 3\)"):
        lp.rotation_identity_sum(r)


@settings(max_examples=80)
@given(unit_quaternions(min_n0=0.05))
def test_end_to_end_rotation_recovery(n):
    element = lp.embed_rotation(lp.quaternion_to_rotation(n))
    ms = lp.simulate_measurements(element, 1.0)
    block = lp.rotation_from_measurements(ms)
    recovered = lp.recover_quaternion(block)
    assert np.abs(lp.embed_rotation(lp.quaternion_to_rotation(recovered)) - element).max() < 1e-9


@settings(max_examples=150)
@given(unit_quaternions(min_n0=0.05), st.floats(0.5, 2.0), st.sampled_from([0.0, 1e-7]),
       st.integers(0, 2**31 - 1))
def test_rotation_payload_matches_numpy_expressions_bitwise(n, intensity, eps, seed):
    # the unit quaternion is n / sqrt(n.n) in Python floats, bit for bit, and within a few eps
    # of np.linalg.norm's; the deviation gives the bits of np.abs(...).max() on that unit.  Both are
    # read from the report, whose 17 significant digits read back to the same doubles
    element = lp.embed_rotation(lp.quaternion_to_rotation(n))
    ms = lp.simulate_measurements(element, intensity, lp.NoiseSpec(eps * intensity, seed))
    rows, residuals = cli.reconstruct_mueller(ms), cli.lorentz_residuals(ms)
    with mock.patch.object(cli, "quaternion_to_rotation", wraps=cli.quaternion_to_rotation) as spy:
        text = cli._report(ms, "rotation", 1e-5 if eps else 1e-9, rows, residuals)
    payload = json.loads(text, parse_int=float)  # an integral double is written as an int literal
    quaternion = payload["quaternion"]
    n0, n1, n2, n3 = quaternion
    unit = np.array([x / math.sqrt(n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3) for x in quaternion])
    assert np.array(spy.call_args.args[0]).tobytes() == unit.tobytes()
    assert np.abs(unit - np.array(quaternion) / np.linalg.norm(quaternion)).max() <= 4 * EPS
    rebuilt = lp.embed_rotation(lp.quaternion_to_rotation(unit))
    deviation = float(np.abs(rebuilt - lp.reconstruct_mueller(ms)).max())
    assert type(payload["round_trip_max_dev"]) is float
    assert np.float64(payload["round_trip_max_dev"]).tobytes() == np.float64(deviation).tobytes()


def test_rotation_from_measurements_matches_column_stack_bitwise():
    ms = lp.simulate_measurements(lp.embed_rotation(lp.quaternion_to_rotation([0.8, 0.36, 0.48, 0.0])), 1.7)
    expected = np.column_stack([ms.a[1:], ms.b[1:], ms.c[1:]]) / ms.intensity
    assert lp.rotation_from_measurements(ms).tobytes() == expected.tobytes()

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lorentzpol as lp
from lorentzpol import jsonio

from conftest import dense_matrices

LN2 = np.log(2.0)


def test_probe_set_values():
    probes = lp.probe_set(1.0)
    assert_allclose(probes, [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
    probes = lp.probe_set(2.0)
    assert_allclose(probes, [[2, 0, 0, 0], [2, 2, 0, 0], [2, 0, 2, 0], [2, 0, 0, 2]])


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_probe_set_rejects_nonpositive_intensity(bad):
    with pytest.raises(lp.NonPositiveIntensity):
        lp.probe_set(bad)


def test_simulate_identity_noiseless():
    ms = lp.simulate_measurements(np.eye(4), 1.0)
    assert_allclose(ms.f, [1, 0, 0, 0])
    assert_allclose(ms.a, [1, 1, 0, 0])
    assert_allclose(ms.b, [1, 0, 1, 0])
    assert_allclose(ms.c, [1, 0, 0, 1])


def test_simulate_boost_matches_closed_form():
    # outputs of the ln-2 boost: cosh = 1.25, sinh = 0.75
    ms = lp.simulate_measurements(lp.boost_mueller(3, LN2), 1.0)
    assert_allclose(ms.f, [1.25, 0, 0, 0.75])
    assert_allclose(ms.a, [1.25, 1, 0, 0.75])
    assert_allclose(ms.b, [1.25, 0, 1, 0.75])
    assert_allclose(ms.c, [2, 0, 0, 2])


def test_simulate_noise_is_deterministic():
    m = lp.boost_mueller(3, LN2)
    noise = lp.NoiseSpec(sigma=0.01, seed=7)
    first = lp.simulate_measurements(m, 1.0, noise)
    second = lp.simulate_measurements(m, 1.0, noise)
    assert first.stokes == second.stokes
    # and actually noisy
    assert not np.array_equal(first.f, lp.simulate_measurements(m, 1.0).f)


def test_simulate_zero_sigma_is_exact():
    m = lp.boost_mueller(3, LN2)
    exact = lp.simulate_measurements(m, 1.0)
    zero = lp.simulate_measurements(m, 1.0, lp.NoiseSpec(sigma=0.0, seed=123))
    assert exact.stokes == zero.stokes


def test_noise_spec_rejects_negative_sigma():
    with pytest.raises(ValueError):
        lp.NoiseSpec(sigma=-0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_noise_spec_rejects_non_finite_sigma(bad):
    with pytest.raises(ValueError, match="finite"):
        lp.NoiseSpec(sigma=bad)


@pytest.mark.parametrize("sigma, seed", [(1e-4, 0), (0.01, 7), (2.5, 2**31 - 1)])
def test_simulate_noise_is_four_successive_draws(sigma, seed):
    # the (4, 4) draw gives the stream of four size-4 draws, one per output
    m = lp.lorentz_from_k(lp.k_from_q([0.2 + 0.1j, -0.3j, 0.25]))
    ms = lp.simulate_measurements(m, 1.3, lp.NoiseSpec(sigma, seed))
    rng = np.random.default_rng(seed)
    expected = [m @ p + rng.normal(0.0, sigma, 4) for p in lp.probe_set(1.3)]
    for got, want in zip((ms.f, ms.a, ms.b, ms.c), expected):
        assert got.tobytes() == want.tobytes()


def test_measurement_set_validation():
    with pytest.raises(lp.NonPositiveIntensity):
        lp.MeasurementSet(0.0, np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        lp.MeasurementSet(1.0, np.zeros(3), np.zeros(4), np.zeros(4), np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["f", "a", "b", "c"])
def test_measurement_set_rejects_non_finite_outputs(bad, where):
    outputs = {name: np.ones(4) for name in "fabc"}
    outputs[where][2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        lp.MeasurementSet(1.0, **outputs)


def test_measurement_set_rejects_non_finite_intensity():
    with pytest.raises(ValueError, match="must be finite"):
        lp.MeasurementSet(np.inf, *[np.ones(4)] * 4)
    for bad in (np.nan, -np.inf):  # not > 0, so reported as non-positive
        with pytest.raises(lp.NonPositiveIntensity):
            lp.MeasurementSet(bad, *[np.ones(4)] * 4)


@pytest.mark.parametrize("intensity, ratio, ok", [
    (1e-100, 1e50, True), (1e100, 1e50, True), (1.0, 0.0, True),
    (1e-101, 1.0, False), (1e101, 1.0, False), (1.0, 2e50, False), (1e100, 2e50, False),
])
def test_measurement_set_magnitude_envelope(intensity, ratio, ok):
    outputs = [np.full(4, ratio * intensity)] * 4
    if ok:
        lp.MeasurementSet(intensity, *outputs)
    else:
        with pytest.raises(ValueError, match="must be finite and in range"):
            lp.MeasurementSet(intensity, *outputs)


def test_reconstruct_identity_and_boost():
    assert_allclose(lp.reconstruct_mueller(lp.simulate_measurements(np.eye(4), 1.0)), np.eye(4))
    boost = lp.boost_mueller(3, LN2)
    assert_allclose(lp.reconstruct_mueller(lp.simulate_measurements(boost, 1.0)), boost)


@settings(max_examples=150)
@given(dense_matrices())
def test_reconstruct_inverts_simulate_exactly(m):
    ms = lp.simulate_measurements(m, 1.0)
    rec = lp.reconstruct_mueller(ms)
    scale = max(np.abs(m).max(), 1e-30)
    assert np.abs(rec - m).max() / scale < 1e-13


def test_reconstruct_is_intensity_invariant():
    rng = np.random.default_rng(11)
    m = rng.uniform(-2.0, 2.0, (4, 4))
    low = lp.reconstruct_mueller(lp.simulate_measurements(m, 1.0))
    high = lp.reconstruct_mueller(lp.simulate_measurements(m, 1e6))
    assert np.abs(low - high).max() / np.abs(m).max() < 1e-9


def test_residuals_identity_and_boost():
    res = lp.lorentz_residuals(lp.simulate_measurements(np.eye(4), 1.0))
    assert res.values() == [0.0, 0.0, 0.0, 0.0]
    res = lp.lorentz_residuals(lp.simulate_measurements(lp.boost_mueller(3, LN2), 1.0))
    assert res.normalized_max < 1e-12


def test_residuals_scaled_identity():
    for intensity in (1.0, 3.0):
        ms = lp.simulate_measurements(2.0 * np.eye(4), intensity)
        res = lp.lorentz_residuals(ms)
        assert res.r0 == pytest.approx(3.0 * intensity**2, abs=1e-12)
        assert (res.r1, res.r2, res.r3) == (0.0, 0.0, 0.0)


def test_residuals_grow_with_noise():
    m = lp.boost_mueller(3, LN2)
    levels = [
        lp.lorentz_residuals(
            lp.simulate_measurements(m, 1.0, lp.NoiseSpec(sigma, seed=5))
        ).normalized_max
        for sigma in (1e-4, 1e-2)
    ]
    assert 0.0 < levels[0] < levels[1]


def test_json_round_trip_and_field_order():
    ms = lp.simulate_measurements(lp.boost_mueller(3, LN2), 1.0)
    text = ms.to_json()
    assert text.startswith('{"intensity": ')
    assert text.index('"F"') < text.index('"A"') < text.index('"B"') < text.index('"C"')
    back = lp.MeasurementSet.from_json(text)
    assert back.intensity == ms.intensity
    assert back.stokes == ms.stokes


# intensities of every type MeasurementSet keeps: float, an int past 2**53, a bool, np.float64
INTENSITIES = st.one_of(
    st.floats(1e-100, 1e100), st.integers(2**53 + 1, 10**100), st.just(True),
    st.floats(1e-100, 1e100).map(np.float64),
)


def _envelope_outputs(intensity):
    """16 outputs inside the envelope: signed zeros, subnormals and +-1e50*I among them."""
    limit = lp.probes.MAX_OUTPUT_RATIO * intensity
    corners = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, limit, -limit])
    return st.lists(st.one_of(corners, st.floats(-limit, limit)), min_size=16, max_size=16)


@settings(max_examples=500)
@given(st.data())
def test_to_json_gives_the_bytes_of_dumps(data):
    intensity = data.draw(INTENSITIES)
    flat = data.draw(_envelope_outputs(intensity))
    ms = lp.MeasurementSet(intensity, *[flat[i:i + 4] for i in range(0, 16, 4)])
    f, a, b, c = ms.stokes
    text = ms.to_json()
    assert text == jsonio.dumps({"intensity": intensity, "outputs": {"F": f, "A": a, "B": b, "C": c}})
    back = lp.MeasurementSet.from_json(text)
    assert back.intensity == float(intensity) and back.stokes == ms.stokes
    # a -0.0 output is written "-0" and read back as -0.0; an int intensity reads back as a float
    if isinstance(intensity, float):
        assert back.to_json() == text


def test_from_json_reads_minus_zero_as_negative_zero():
    ms = lp.MeasurementSet(1.0, [1.0, -0.0, 0.0, -0.0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1])
    text = ms.to_json()
    assert '"F": [1, -0, 0, -0]' in text
    back = lp.MeasurementSet.from_json(text)
    assert [math.copysign(1.0, x) for x in back.stokes[0]] == [1.0, -1.0, 1.0, -1.0]
    assert back.to_json() == text


def test_json_17_digit_floats():
    ms = lp.MeasurementSet(1.0, [np.pi, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1])
    assert "3.1415926535897931" in ms.to_json()


def test_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        lp.MeasurementSet.from_json('{"intensity": 1.0}')
    with pytest.raises(json.JSONDecodeError):
        lp.MeasurementSet.from_json("not json")
    with pytest.raises(lp.NonPositiveIntensity):
        lp.MeasurementSet.from_json(
            '{"intensity": -1, "outputs": {"F": [1,0,0,0], "A": [1,1,0,0],'
            ' "B": [1,0,1,0], "C": [1,0,0,1]}}'
        )


HUGE_INT = "1" + "0" * 400  # past the float range: float() raises OverflowError


@pytest.mark.parametrize("intensity, f", [
    ("1", '{"a": 1}'), ("1", "[1, 0, 0, {}]"), ("[1]", "[1, 0, 0, 0]"),
    (HUGE_INT, "[1, 0, 0, 0]"), ("1", f"[{HUGE_INT}, 0, 0, 0]"),
    ('"1"', "[1, 0, 0, 0]"), ("1", '[1, "0", 0, 0]'),
], ids=["dict_vector", "dict_entry", "list_intensity", "huge_intensity", "huge_entry",
        "string_intensity", "string_entry"])
def test_json_rejects_non_numeric_entries(intensity, f):
    # the TypeError or OverflowError of such an entry, or a string that float() would
    # read, becomes the ValueError of every malformed file, and its message does not
    # call the entry missing
    text = (f'{{"intensity": {intensity}, "outputs": {{"F": {f}, "A": [1, 1, 0, 0],'
            f' "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}}}')
    with pytest.raises(ValueError, match="^malformed measurement JSON: ") as info:
        lp.MeasurementSet.from_json(text)
    assert "missing" not in str(info.value)


def test_json_rejects_deep_nesting():
    # json.loads raises RecursionError past the interpreter's recursion limit
    with pytest.raises(ValueError, match="^malformed measurement JSON: "):
        lp.MeasurementSet.from_json("[" * 100000 + "]" * 100000)

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lorentzpol as lp

from conftest import dense_matrices, reference_dumps

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


@pytest.mark.parametrize("sigma", [np.float32(0.01), np.float64(0.01), np.array(0.01), True],
                         ids=["float32", "float64", "0d_array", "true"])
def test_noise_spec_reads_sigma_as_a_float(sigma):
    # as the intensity is read: the noisy outputs are those of the float sigma, and are floats
    noise = lp.NoiseSpec(sigma, 7)
    ms = lp.simulate_measurements(lp.rotation_mueller(1, 0.7), 1.0, noise)
    assert type(noise.sigma) is float and all(type(x) is float for v in ms.stokes for x in v)
    assert ms.stokes == lp.simulate_measurements(lp.rotation_mueller(1, 0.7), 1.0, lp.NoiseSpec(float(sigma), 7)).stokes


@pytest.mark.parametrize("sigma", ["0.1", None, 0.1j])
def test_noise_spec_refuses_non_real_sigma(sigma):
    with pytest.raises(TypeError) as info:
        lp.NoiseSpec(sigma)
    assert "not supported" not in str(info.value)  # the converter's error, not that of sigma >= 0.0


def test_noise_spec_checks_the_seed():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        lp.NoiseSpec(1e-3, -1)  # random.Random would seed it as 1
    with pytest.raises(TypeError):
        lp.NoiseSpec(1e-3, 1.5)
    assert lp.NoiseSpec(1e-3, np.int64(7)) == lp.NoiseSpec(1e-3, 7)
    assert type(lp.NoiseSpec(1e-3, np.int64(7)).seed) is int


def documented_stream(sigma: float, seed: int) -> list:
    """16 Box-Muller normals on random.Random(seed).random(), two uniforms per pair."""
    u = random.Random(seed).random
    draws = []
    for _ in range(8):
        u1, u2 = u(), u()
        r = sigma * math.sqrt(-2.0 * math.log(1.0 - u1))
        draws += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return draws


@pytest.mark.parametrize("sigma, seed", [(1e-4, 0), (0.01, 7), (2.5, 2**31 - 1)])
def test_simulate_noise_is_four_successive_draws(sigma, seed):
    # the 16 draws of the stream go four to an output, in F, A, B, C order
    m = lp.lorentz_from_k(lp.k_from_q([0.2 + 0.1j, -0.3j, 0.25]))
    ms = lp.simulate_measurements(m, 1.3, lp.NoiseSpec(sigma, seed))
    draws = documented_stream(sigma, seed)
    expected = [m @ p + np.array(draws[i:i + 4]) for i, p in zip((0, 4, 8, 12), lp.probe_set(1.3))]
    for got, want in zip((ms.f, ms.a, ms.b, ms.c), expected):
        assert got.tobytes() == want.tobytes()


def test_simulate_noise_is_standard_normal():
    # 2000 seeds x 16 draws through a zero element: the outputs are the draws themselves
    sigma = 0.5
    draws = np.array([lp.simulate_measurements(np.zeros((4, 4)), 1.0, lp.NoiseSpec(sigma, seed)).stokes
                      for seed in range(2000)]).ravel() / sigma
    assert abs(draws.mean()) < 0.03  # standard error 0.0056
    assert abs(draws.std() - 1.0) < 0.02  # standard error 0.004
    assert 0.0015 < np.mean(np.abs(draws) > 3.0) < 0.0040  # 0.0027 expected, standard error 0.0003
    # successive draws, within a pair and across pairs, are uncorrelated
    assert abs(np.corrcoef(draws[:-1], draws[1:])[0, 1]) < 0.03


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


GOOD = ([1, 0, 0, 0.5], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1])
STRING_SETS = {
    # float() read the list's "1" and numpy's conversion the <U1 array's, so this set was built
    "list_and_unicode_array": (["1", "0", "0", "0.5"], GOOD[1], np.array(["1", "0", "1", "0"]), GOOD[3]),
    "unicode_array": (*GOOD[:2], np.array(["1", "0", "1", "0"]), GOOD[3]),
    "str_in_tuple": (GOOD[0], (1.0, 1.0, "0", 0.0), *GOOD[2:]),
    "bytes_in_list": (*GOOD[:2], [1, 0, b"1", 0], GOOD[3]),
    "bytes_array": (*GOOD[:3], np.array([b"1", b"0", b"0", b"1"])),
    "str_in_object_array": (*GOOD[:3], np.array([1.0, "0", 0.0, 1.0], dtype=object)),
}


@pytest.mark.parametrize("name", sorted(STRING_SETS))
def test_measurement_set_refuses_string_entries(name):
    with pytest.raises(TypeError, match="must be numbers, not strings"):
        lp.MeasurementSet(1.0, *STRING_SETS[name])


COMPLEX_SETS = {
    # each entry lost its imaginary part with a ComplexWarning, and A was stored as (0, 0, 0, 0)
    "complex_in_list": (GOOD[0], [0.5j, 0, 0, 0], *GOOD[2:]),
    "complex128_in_list": (GOOD[0], [np.complex128(0.5j), 0, 0, 0], *GOOD[2:]),
    "complex64_in_list": (GOOD[0], [np.complex64(0.5j), 0, 0, 0], *GOOD[2:]),
    "complex_array": (GOOD[0], np.array([0.5j, 0, 0, 0]), *GOOD[2:]),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_SETS))
def test_measurement_set_refuses_complex_entries(name):
    with pytest.raises(TypeError, match="Stokes vector entries must be real numbers, not complex"):
        lp.MeasurementSet(1.0, *COMPLEX_SETS[name])


@pytest.mark.parametrize("call", [
    lambda: lp.MeasurementSet(10**400, [1, 0, 0, 0.5], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]),
    lambda: lp.simulate_measurements(lp.boost_mueller(3, 0.5), 10**400),
], ids=["measurement_set", "simulate"])
def test_intensity_past_the_float_range_fails_the_envelope(call):
    # an int past the float range reads as inf; it raised OverflowError
    with pytest.raises(ValueError, match="^measurements must be finite and in range"):
        call()


def test_null_entry_is_malformed_json():
    # null read as NaN and failed the envelope; it is no number
    text = ('{"intensity": 1, "outputs": {"F": [1, 0, 0, null], "A": [1, 1, 0, 0], "B": [1, 0, 1, 0],'
            ' "C": [1, 0, 0, 1]}}')
    with pytest.raises(ValueError, match="^malformed measurement JSON: Stokes vector entries must be numbers, "
                                         "not NoneType$"):
        lp.MeasurementSet.from_json(text)
    with pytest.raises(TypeError, match="^Stokes vector entries must be numbers, not NoneType$"):
        lp.MeasurementSet(1.0, [1, 0, 0, None], *GOOD[1:])
    with pytest.raises(TypeError, match="^intensity entries must be numbers, not NoneType$"):
        lp.MeasurementSet(None, *GOOD)


def test_measurement_set_reads_bools_and_numpy_scalars():
    ms = lp.MeasurementSet(True, [True, False, False, np.float64(-0.0)], (1, 1, 0, 0),
                           [np.float64(1.0), np.int64(0), np.bool_(True), 0], np.array([1, 0, 0, 1]))
    assert ms.stokes == ((1.0, 0.0, 0.0, -0.0), (1.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0))
    assert all(type(x) is float for v in ms.stokes for x in v)
    assert math.copysign(1.0, ms.stokes[0][3]) == -1.0


@pytest.mark.parametrize("intensity, text", [
    (True, '"intensity": 1,'), (10**20, '"intensity": 1e+20,'), (np.float32(0.5), '"intensity": 0.5,'),
    (np.float64(0.1), '"intensity": 0.10000000000000001,'),
])
def test_measurement_set_stores_the_intensity_as_a_float(intensity, text):
    ms = lp.MeasurementSet(intensity, *GOOD)
    assert type(ms.intensity) is float and ms.intensity == float(intensity)
    assert text in ms.to_json()
    residuals = lp.lorentz_residuals(ms)
    assert all(type(x) is float for x in (residuals.r0, residuals.r1, residuals.r2, residuals.r3))


def test_measurement_set_envelope_of_a_float32_intensity():
    # 1e50 * float32(0.1) overflowed to inf and so let any output through; as a float the limit is 1e49
    with pytest.raises(ValueError, match="must be finite and in range"):
        lp.MeasurementSet(np.float32(0.1), [1e200, 0, 0, 0], *GOOD[1:])


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
    assert (res.r0, res.r1, res.r2, res.r3) == (0.0, 0.0, 0.0, 0.0)
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


# intensities of every type MeasurementSet reads, and keeps as a float: float, an int past 2**53, a bool, np.float64
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
    assert type(ms.intensity) is float and ms.intensity == float(intensity)
    assert text == reference_dumps({"intensity": float(intensity), "outputs": {"F": f, "A": a, "B": b, "C": c}})
    back = lp.MeasurementSet.from_json(text)
    assert back.intensity == ms.intensity and back.stokes == ms.stokes
    assert back.to_json() == text  # a -0.0 output is written "-0" and read back as -0.0


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


def _measurement_text(intensity, f):
    return (f'{{"intensity": {intensity}, "outputs": {{"F": {f}, "A": [1, 1, 0, 0],'
            f' "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}}}')


HUGE_INT = "1" + "0" * 400  # past the float range
PAST_INT_LIMIT = "1" + "0" * 5000  # past int()'s 4300-digit limit for a string


def _out_of_range_message():
    # the ValueError the constructor gives for an intensity of 1e400
    with pytest.raises(ValueError, match="^measurements must be finite and in range") as envelope:
        lp.MeasurementSet(1e400, [1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1])
    return str(envelope.value)


@pytest.mark.parametrize("intensity, f, numeric", [
    ("1", '{"a": 1}', False), ("1", "[1, 0, 0, {}]", False), ("[1]", "[1, 0, 0, 0]", False),
    (HUGE_INT, "[1, 0, 0, 0]", True), ("1", f"[{HUGE_INT}, 0, 0, 0]", True),
    ('"1"', "[1, 0, 0, 0]", False), ("1", '[1, "0", 0, 0]', False),
    (PAST_INT_LIMIT, "[1, 0, 0, 0]", True), ("true", "[1, 0, 0, 0]", False), ("1", "[1, false, 0, 0]", False),
    ("1", "[1, 0, 0]", False), ("1", "1", False), ("1", "true", False), ("1", "[[1, 0, 0, 0]]", False),
], ids=["dict_vector", "dict_entry", "list_intensity", "huge_intensity", "huge_entry",
        "string_intensity", "string_entry", "past_int_limit_intensity", "true_intensity", "false_entry",
        "short_vector", "number_vector", "true_vector", "nested_vector"])
def test_json_rejects_non_numeric_entries(intensity, f, numeric):
    # the TypeError of such an entry, or a string that float() would read, or a boolean
    # that the constructor would, or an output of the wrong shape, becomes the ValueError
    # of every malformed file, and its message does not call the entry missing; an integer
    # literal past the float range is numeric, of any length: it reads as inf as 1e400 does
    # and meets the envelope's ValueError instead
    with pytest.raises(ValueError) as info:
        lp.MeasurementSet.from_json(_measurement_text(intensity, f))
    if numeric:
        assert str(info.value) == _out_of_range_message()
    else:
        assert str(info.value).startswith("malformed measurement JSON: ")
        assert "missing" not in str(info.value)


def test_json_reads_every_number_as_float_does():
    # 1e400 and a negative integer literal past int()'s limit read as +-inf and meet the envelope
    # as the over-range integers of test_json_rejects_non_numeric_entries do
    for intensity, f in [("1e400", "[1, 0, 0, 0]"), ("1", f"[1, -{PAST_INT_LIMIT}, 0, 0]")]:
        with pytest.raises(ValueError) as info:
            lp.MeasurementSet.from_json(_measurement_text(intensity, f))
        assert str(info.value) == _out_of_range_message(), (intensity, f)
    # "-0", as %.17g writes -0.0, reads as -0.0
    back = lp.MeasurementSet.from_json(_measurement_text("1", "[1, -0, 0, -0]"))
    assert [math.copysign(1.0, x) for x in back.stokes[0]] == [1.0, -1.0, 1.0, -1.0]


VALID_TEXT = _measurement_text("1", "[1, 0, 0, 0]")


@pytest.mark.parametrize("text", [VALID_TEXT.encode(), bytearray(VALID_TEXT.encode()), 5, None],
                         ids=["bytes", "bytearray", "int", "none"])
def test_from_json_takes_only_a_str(text):
    with pytest.raises(TypeError, match=f"^measurement JSON must be a str, not {type(text).__name__}$"):
        lp.MeasurementSet.from_json(text)


def test_json_rejects_deep_nesting():
    # json.loads raises RecursionError past the interpreter's recursion limit
    with pytest.raises(ValueError, match="^malformed measurement JSON: "):
        lp.MeasurementSet.from_json("[" * 100000 + "]" * 100000)

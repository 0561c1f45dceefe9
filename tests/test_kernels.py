"""The recover chain's straight-line float kernels against their comprehension forms.

Each reference below is the kernel as it was written with zip, generator
expressions and nested comprehensions.  The kernels now unpack their inputs
into local floats and spell every sum out, keeping each sum's operand order
and each max's element order, so results must agree bit for bit (signed zeros
and NaNs included, compared through struct) and errors must agree in class
and message.
"""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorentzpol as lp
from lorentzpol import jsonio, lorentz, probes, rotation
from lorentzpol.algebra import (MuellerClass, _canonical, _check_tolerance, _checked, _classify, _det4, _matrix,
                                _max_deviation, _vector)
from lorentzpol.errors import NearPiRotation, NonPositiveIntensity, NotRotation, SingularNormalization

from conftest import normalized_spinors, unit_quaternions


# --- reference forms --------------------------------------------------------------------------

def ref_deviations(rows):
    """scale, the metric deviation and the edge deviation that ref_classify tests against tol."""
    flat = rows[0] + rows[1] + rows[2] + rows[3]
    scale = max(map(abs, flat))
    c0, c1, c2, c3 = zip(*rows)
    metric_dev = max([
        abs(a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3] - g)
        for a, b, g in ((c0, c0, 1.0), (c1, c1, -1.0), (c2, c2, -1.0), (c3, c3, -1.0),
                        (c0, c1, 0.0), (c0, c2, 0.0), (c0, c3, 0.0),
                        (c1, c2, 0.0), (c1, c3, 0.0), (c2, c3, 0.0))
    ])
    edge = max(abs(flat[0] - 1.0), *map(abs, flat[1:4]), *map(abs, c0[1:]))
    return scale, metric_dev, edge


def ref_classify(rows, tol):
    _check_tolerance(tol)
    scale, metric_dev, edge = ref_deviations(rows)
    if scale == 0.0:
        return MuellerClass.NOT_LORENTZIAN
    if not (metric_dev < tol * scale * scale and _det4(rows) > 0.0 and rows[0][0] > 0.0):
        return MuellerClass.NOT_LORENTZIAN
    if edge < tol * max(1.0, scale):
        return MuellerClass.ROTATION
    return MuellerClass.LORENTZ


def ref_ortho_dev(rows):
    """max |(R^T R - 1)[i, j]| over j >= i, the diagonal first."""
    c0, c1, c2 = zip(*rows)
    return max([abs(a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - g) for a, b, g in (
        (c0, c0, 1.0), (c1, c1, 1.0), (c2, c2, 1.0), (c0, c1, 0.0), (c0, c2, 0.0), (c1, c2, 0.0))])


def ref_quaternion(rows, ortho_tol=1e-6, trace_eps=1e-8):
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    ortho_dev = ref_ortho_dev(rows)
    det = r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20) + r02 * (r10 * r21 - r11 * r20)
    if not (ortho_dev <= ortho_tol and abs(det - 1.0) <= ortho_tol):
        raise NotRotation(
            f"not a proper rotation: |R^T R - 1| = {ortho_dev:.3e}, det = {det:.6f}"
        )
    trace1 = r00 + r11 + r22 + 1.0
    if trace1 <= trace_eps:
        raise NearPiRotation(
            f"trace + 1 = {trace1:.3e}: extraction singular near pi rotations"
        )
    s = math.sqrt(trace1)
    return [s / 2.0, (r21 - r12) / (2.0 * s), (r02 - r20) / (2.0 * s), (r10 - r01) / (2.0 * s)]


def ref_max_deviation(a, b):
    return max([abs(x - y) for r, d in zip(a, b) for x, y in zip(r, d)])


def ref_mueller_rows(ms):
    i = ms.intensity
    return [[f / i, (a - f) / i, (b - f) / i, (c - f) / i] for f, a, b, c in zip(*ms.stokes)]


def ref_residuals(ms):
    i2 = ms.intensity ** 2
    r = [s0 * s0 - s1 * s1 - s2 * s2 - s3 * s3 for s0, s1, s2, s3 in ms.stokes]
    r[0] -= i2
    return r, max(map(abs, r)) / i2


def ref_extract(ms):
    trace_sum, m, n, q_im = lorentz._read(ms)
    delta = lorentz._delta(trace_sum, ms.intensity)
    scale = 4.0 * ms.intensity * delta
    q = [complex(a, 0.0 - b) / trace_sum for a, b in zip(m, q_im)]
    return trace_sum, delta, [x / scale for x in m], [x / scale for x in n], q


def ref_assemble_k(delta, mvec, nvec):
    v = [complex(n, m) for n, m in zip(nvec, mvec)]
    norm2 = delta ** 2 + (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if abs(norm2) < 1e-12:
        raise SingularNormalization(
            f"delta^2 + (N + iM).(N + iM) = {norm2!r} is singular"
        )
    root = cmath.sqrt(norm2)
    return _canonical([delta / root] + [z / root for z in v])


def ref_stokes(intensity, f, a, b, c):
    """MeasurementSet.__init__'s checks and conversion, with one generator over the four vectors."""
    if not intensity > 0.0:
        raise NonPositiveIntensity(f"intensity must be > 0, got {intensity}")
    stokes = tuple(_vector(s) or tuple(_checked(s, float, (4,), "Stokes vector").tolist())
                   for s in (f, a, b, c))
    limit = probes.MAX_OUTPUT_RATIO * intensity
    if not (probes.INTENSITY_RANGE[0] <= intensity <= probes.INTENSITY_RANGE[1]
            and all(map(limit.__ge__, map(abs, stokes[0] + stokes[1] + stokes[2] + stokes[3])))):
        raise ValueError("measurements must be finite and in range: need %g <= intensity <= %g"
                         " and max|output| <= %g * intensity" % (*probes.INTENSITY_RANGE, probes.MAX_OUTPUT_RATIO))
    return stokes


# --- comparison -------------------------------------------------------------------------------

def bits(x):
    """x with every float (and each part of a complex) as its type name and IEEE-754 bytes."""
    if isinstance(x, float):
        return type(x).__name__, struct.pack("<d", x)
    if isinstance(x, complex):
        return "complex", struct.pack("<dd", x.real, x.imag)
    if isinstance(x, (list, tuple)):
        return type(x).__name__, tuple(bits(v) for v in x)
    if isinstance(x, np.ndarray):
        return "ndarray", x.dtype.str, bits(x.tolist())
    return type(x).__name__, x


def outcome(fn, *args):
    """('ok', bits of the result) or ('raise', exception class, message)."""
    try:
        return "ok", bits(fn(*args))
    except Exception as exc:  # the class and message are what is compared
        return "raise", type(exc), str(exc)


def near(x, draw):
    """x moved by up to three ulps either way: a tolerance at which a one-ulp change in x shows."""
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
    return x


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0]
TOLS = st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e300, math.nan, 0.0, -1.0, math.inf])


@st.composite
def with_specials(draw, entries):
    """entries with a few positions replaced by NaN, +-inf, +-0.0, the least subnormal or +-1e300."""
    entries = list(entries)
    for _ in range(draw(st.integers(0, 3))):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(SPECIALS))
    return entries


@st.composite
def matrices4(draw):
    """Arbitrary 4x4 row lists, or Lorentz and rotation matrices, with specials at random positions."""
    kind = draw(st.sampled_from(["any", "lorentz", "rotation"]))
    if kind == "any":
        flat = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=16, max_size=16))
    elif kind == "lorentz":
        flat = lp.lorentz_from_k(draw(normalized_spinors())).ravel().tolist()
    else:
        flat = lp.embed_rotation(lp.quaternion_to_rotation(draw(unit_quaternions()))).ravel().tolist()
    flat = draw(with_specials(flat))
    return [flat[i:i + 4] for i in range(0, 16, 4)]


@st.composite
def matrices3(draw):
    if draw(st.booleans()):
        flat = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=9, max_size=9))
    else:
        flat = lp.quaternion_to_rotation(draw(unit_quaternions())).ravel().tolist()
    flat = draw(with_specials(flat))
    return [flat[i:i + 3] for i in range(0, 9, 3)]


# --- the matrix kernels, through the public functions that accept any matrix -------------------

@st.composite
def classify_tolerances(draw, rows):
    """A fixed tolerance, or one within ulps of where the metric or the edge test flips."""
    scale, metric_dev, edge = ref_deviations(rows)
    where = draw(st.sampled_from(["fixed", "metric", "edge"]))
    if where == "metric" and scale > 0.0:
        return near(metric_dev / scale / scale, draw)
    if where == "edge":
        return near(edge / max(1.0, scale), draw)
    return draw(TOLS)


@settings(max_examples=800)
@given(st.data(), matrices4(), st.sampled_from([list, tuple, np.array]))
def test_is_lorentzian_matches_reference(data, rows, form):
    tol = data.draw(classify_tolerances(rows))
    m = form(rows) if form is not tuple else tuple(map(tuple, rows))

    def reference():
        _check_tolerance(tol)  # before the matrix is read, as is_lorentzian does
        return ref_classify(_matrix(m), tol)

    assert outcome(lp.is_lorentzian, m, tol) == outcome(reference)
    if math.isfinite(tol) and tol > 0.0:  # the CLI's call, on rows of lists
        assert outcome(_classify, rows, tol) == outcome(ref_classify, rows, tol)


@settings(max_examples=800)
@given(st.data(), matrices3(), st.sampled_from([1e-8, 1e-3, 2.0, -1.0]))
def test_recover_quaternion_matches_reference(data, rows, trace_eps):
    if data.draw(st.booleans()):  # within ulps of where the orthogonality test flips
        ortho_tol = near(ref_ortho_dev(rows), data.draw)
    else:
        ortho_tol = data.draw(st.sampled_from([1e-6, 1e-3, 1.0, math.nan, 0.0]))
    args = (rows, ortho_tol, trace_eps)

    def reference():
        checked = _checked(rows, float, (3, 3), "rotation matrix").tolist()
        return np.array(ref_quaternion(checked, _check_tolerance(ortho_tol), _check_tolerance(trace_eps)))

    assert outcome(lp.recover_quaternion, *args) == outcome(reference)
    assert outcome(rotation._quaternion, *args) == outcome(ref_quaternion, *args)


@settings(max_examples=400)
@given(matrices4(), matrices4())
def test_max_deviation_matches_reference(a, b):
    assert bits(_max_deviation(a, b)) == bits(ref_max_deviation(a, b))


# --- the measurement kernels, on sets inside the envelope --------------------------------------

INTENSITIES = st.one_of(
    st.floats(1e-100, 1e100), st.just(1.0), st.integers(2**53 + 1, 10**100), st.just(True),
    st.floats(1e-100, 1e100).map(np.float64),
)


@st.composite
def measurement_sets(draw):
    """Sets in the envelope: simulated Lorentz elements, with or without noise, or any in-range outputs."""
    intensity = draw(INTENSITIES)
    if draw(st.booleans()):
        noise = lp.NoiseSpec(draw(st.sampled_from([0.0, 1e-6, 1e-2])) * float(intensity), draw(st.integers(0, 2**32)))
        m = lp.lorentz_from_k(draw(normalized_spinors()))
        ms = lp.simulate_measurements(m, float(intensity), noise)
        return lp.MeasurementSet(intensity, *ms.stokes)
    limit = probes.MAX_OUTPUT_RATIO * intensity
    corners = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, limit, -limit, float(intensity)])
    flat = draw(st.lists(st.one_of(corners, st.floats(-limit, limit)), min_size=16, max_size=16))
    return lp.MeasurementSet(intensity, *[flat[i:i + 4] for i in range(0, 16, 4)])


@settings(max_examples=500)
@given(measurement_sets())
def test_measurement_kernels_match_reference(ms):
    assert bits(probes._mueller_rows(ms)) == bits(ref_mueller_rows(ms))
    assert bits(probes._residuals(ms)) == bits(ref_residuals(ms))
    extracted = outcome(lorentz._extract, ms)
    assert extracted == outcome(ref_extract, ms)
    if extracted[0] == "ok":
        _, delta, mvec, nvec, _ = lorentz._extract(ms)
        assert outcome(lorentz._assemble_k, delta, mvec, nvec) == outcome(ref_assemble_k, delta, mvec, nvec)


@settings(max_examples=300)
@given(st.floats(-1.0, 1.0), st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6), st.sampled_from(SPECIALS))
def test_assemble_k_matches_reference_near_and_at_the_singular_normalization(delta, mn, special):
    mvec, nvec = mn[:3], mn[3:]
    for args in ((delta, mvec, nvec), (special, mvec, nvec), (delta, [special, *mvec[1:]], nvec),
                 (0.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), (1e-7, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])):
        assert outcome(lorentz._assemble_k, *args) == outcome(ref_assemble_k, *args)


# --- the MeasurementSet constructor ------------------------------------------------------------

ENTRIES = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SPECIALS + [1e60, -1e60]),
                    st.integers(-3, 3), st.floats(-2.0, 2.0).map(np.float64))


@st.composite
def stokes_vectors(draw):
    """A vector in one of the forms the constructor takes, or a malformed one."""
    kind = draw(st.sampled_from(["list", "tuple", "ndarray", "np.float64", "short", "long", "short ndarray",
                                 "non-numeric", "huge int", "scalar"]))
    entries = draw(st.lists(ENTRIES, min_size=4, max_size=4))
    if kind == "list":
        return entries
    if kind == "tuple":
        return tuple(entries)
    if kind == "ndarray":
        return np.array(entries, dtype=float)
    if kind == "np.float64":
        return [np.float64(x) for x in entries]
    if kind == "short":
        return entries[:3]
    if kind == "long":
        return entries + [0.0]
    if kind == "short ndarray":
        return np.array(entries[:3], dtype=float)
    if kind == "non-numeric":
        entries[draw(st.integers(0, 3))] = draw(st.sampled_from(["x", "1.5", None, [1.0], {}]))
        return entries
    if kind == "huge int":
        entries[draw(st.integers(0, 3))] = 10**400
        return entries
    return np.float64(entries[0])


def built(intensity, vectors):
    ms = lp.MeasurementSet(intensity, *vectors)
    return ms.stokes, ms.to_json()


def reference_built(intensity, vectors):
    f, a, b, c = stokes = ref_stokes(intensity, *vectors)
    return stokes, jsonio.dumps({"intensity": intensity, "outputs": {"F": f, "A": a, "B": b, "C": c}})


@settings(max_examples=600)
@given(st.one_of(INTENSITIES, st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e101])),
       st.lists(stokes_vectors(), min_size=4, max_size=4))
def test_measurement_set_constructor_matches_reference(intensity, vectors):
    assert outcome(built, intensity, vectors) == outcome(reference_built, intensity, vectors)


MIXED = ([1.0, 0.5, 0.0, 0.0], (1.0, 0.0, 0.5, 0.0), np.array([1.0, 0.0, 0.0, 0.5]),
         [np.float64(1.0), np.float64(0.1), 0, 0.0])


@pytest.mark.parametrize("vectors, message", [
    (MIXED, None),
    ((*MIXED[:3], np.zeros(3)), "Stokes vector must have shape (4,), got (3,)"),
    ((*MIXED[:3], [1.0, 0.0, 0.0, 0.0, 0.0]), "Stokes vector must have shape (4,), got (5,)"),
    ((MIXED[0], [1.0, "x", 0.0, 0.0], *MIXED[2:]), "could not convert string to float: 'x'"),
    ((MIXED[0], [1.0, {}, 0.0, 0.0], *MIXED[2:]), "float() argument must be a string or a real number, not 'dict'"),
    ((*MIXED[:3], [1.0, math.nan, 0.0, 0.0]), "must be finite and in range"),
    ((*MIXED[:3], np.array([1.0, 0.0, 2e50, 0.0])), "must be finite and in range"),
    # two bad vectors: F's shape is reported, before A's overflowing entry is read
    ((np.zeros(5), [1.0, 10**400, 0.0, 0.0], *MIXED[2:]), "Stokes vector must have shape (4,), got (5,)"),
], ids=["mixed", "short_ndarray", "long_list", "string_entry", "dict_entry", "nan", "past_envelope", "first_error"])
def test_measurement_set_constructor_paths(vectors, message):
    got = outcome(built, 1.0, vectors)
    assert got == outcome(reference_built, 1.0, vectors)
    assert got[0] == "ok" if message is None else message in got[2]

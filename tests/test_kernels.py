"""The straight-line float kernels against their comprehension and complex forms.

Each reference below is the kernel as it was written with zip, generator
expressions and nested comprehensions, or, for the rebuild from k, in complex
arithmetic.  The kernels now unpack their inputs into local floats and spell
every sum out, keeping each sum's operand order and each max's element order
(the rebuild takes the float operations of the complex products), so results
must agree bit for bit (signed zeros and NaNs included, compared through
struct) and errors must agree in class and message.  The input converter,
algebra._numbers, has numpy's conversion, np.asarray(x, dtype).tolist(), as its
reference, and each input it refuses is listed with its error.
"""

import cmath
import math
import numbers
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lorentzpol as lp
from lorentzpol import lorentz, probes, rotation
from lorentzpol.algebra import (MuellerClass, _canonical, _check_tolerance, _classify, _det4, _lorentz_entries,
                                _max_deviation, _numbers)
from lorentzpol.errors import (DegenerateTrace, NearPiRotation, NonPositiveIntensity, NonRealResult, NormViolation,
                               NotRotation, SingularNormalization)

from conftest import normalized_spinors, reference_dumps, unit_quaternions


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


def ref_quaternion(rows):
    """recover_quaternion's triad gate at its fixed 1e-6, then the extraction."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    ortho_dev = ref_ortho_dev(rows)
    det = r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20) + r02 * (r10 * r21 - r11 * r20)
    if not (ortho_dev <= 1e-6 and abs(det - 1.0) <= 1e-6):
        raise NotRotation(
            f"not a proper rotation: |R^T R - 1| = {ortho_dev:.3e}, det = {det:.6f}"
        )
    return ref_extraction(rows)


def ref_extraction(rows):
    """The quaternion from the trace and the antisymmetric part, as the CLI's kernel takes it."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    trace1 = r00 + r11 + r22 + 1.0
    if trace1 <= 1e-8:
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


def ref_extract(rows):
    trace = rows[0][0] + rows[1][1] + rows[2][2] + rows[3][3]
    if trace <= 1e-10:
        raise DegenerateTrace(f"matrix trace {trace!r} is not positive; cannot extract delta")
    delta = math.sqrt(trace) / 2.0
    m = [0.0 - (rows[j][0] + rows[0][j]) for j in (1, 2, 3)]
    n = [rows[j][i] - rows[i][j] for i, j in ((2, 3), (3, 1), (1, 2))]
    q = [complex(a, 0.0 - b) / trace for a, b in zip(m, n)]
    return delta, [x / (4.0 * delta) for x in m], [x / (4.0 * delta) for x in n], q


def ref_assemble_k(delta, mvec, nvec):
    v = [complex(n, m) for n, m in zip(nvec, mvec)]
    norm2 = delta ** 2 + (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if abs(norm2) < 1e-12:
        raise SingularNormalization(
            f"delta^2 + (N + iM).(N + iM) = {norm2!r} is singular"
        )
    root = cmath.sqrt(norm2)
    return _canonical([delta / root] + [z / root for z in v])


def ref_real(x):
    """One number by numpy's float64 conversion; an int past the float range, where numpy overflows, as the
    +-inf that _numbers reads."""
    try:
        return np.asarray(x, dtype=float).tolist()
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def ref_vector(v):
    """A Stokes vector by numpy's conversion, np.asarray(v, dtype=float).tolist(), after the refusals that
    numpy does not make, in entry order: a string (which numpy parses) and an entry that is no number, None
    included (which numpy reads as NaN), each with a TypeError that names the rule."""
    if isinstance(v, (list, tuple)) and len(v) == 4:
        for e in v:
            if isinstance(e, (str, bytes)):
                raise TypeError("Stokes vector entries must be numbers, not strings")
            if not isinstance(e, numbers.Number):
                raise TypeError(f"Stokes vector entries must be numbers, not {type(e).__name__}")
        v = [ref_real(e) for e in v]
    elif isinstance(v, np.ndarray) and v.dtype.kind in "SU":
        raise TypeError("Stokes vector entries must be numbers, not strings")
    x = np.asarray(v, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"Stokes vector must have shape (4,), got {x.shape}")
    return tuple(x.tolist())


def ref_stokes(intensity, f, a, b, c):
    """MeasurementSet.__init__'s checks and conversion: the intensity, then F, A, B and C, then the envelope."""
    i = ref_real(intensity)
    if not i > 0.0:
        raise NonPositiveIntensity(f"intensity must be > 0, got {intensity}")
    stokes = tuple(ref_vector(s) for s in (f, a, b, c))
    limit = probes.MAX_OUTPUT_RATIO * i
    if not (probes.INTENSITY_RANGE[0] <= i <= probes.INTENSITY_RANGE[1]
            and all(map(limit.__ge__, map(abs, stokes[0] + stokes[1] + stokes[2] + stokes[3])))):
        raise ValueError("measurements must be finite and in range: need %g <= intensity <= %g"
                         " and max|output| <= %g * intensity" % (*probes.INTENSITY_RANGE, probes.MAX_OUTPUT_RATIO))
    return i, stokes


def ref_lorentz_complex(k):
    """The 16 entries of lorentz_from_k(k) as complex numbers, row by row, without the checks."""
    k0, k1, k2, k3 = k
    c0, c1, c2, c3 = k0.conjugate(), k1.conjugate(), k2.conjugate(), k3.conjugate()
    a, b = k0 * c0, k1 * c1 + k2 * c2 + k3 * c3
    s1, s2, s3 = 1j * (c0 * k1 - k0 * c1), 1j * (c0 * k2 - k0 * c2), 1j * (c0 * k3 - k0 * c3)
    x1, x2, x3 = 1j * (k2 * c3 - k3 * c2), 1j * (k3 * c1 - k1 * c3), 1j * (k1 * c2 - k2 * c1)
    w1, w2, w3 = k0 * c1 + c0 * k1, k0 * c2 + c0 * k2, k0 * c3 + c0 * k3
    r12, r13, r23 = k1 * c2 + c1 * k2, k1 * c3 + c1 * k3, k2 * c3 + c2 * k3
    return [
        a + b, s1 + x1, s2 + x2, s3 + x3,
        s1 - x1, a - b + k1 * c1 + c1 * k1, r12 - w3, r13 + w2,
        s2 - x2, r12 + w3, a - b + k2 * c2 + c2 * k2, r23 - w1,
        s3 - x3, r13 - w2, r23 + w1, a - b + k3 * c3 + c3 * k3,
    ]


def ref_lorentz_entries(k):
    """_lorentz_entries as it was written: the complex entries, their imaginary parts checked, the real parts kept."""
    k0, k1, k2, k3 = k
    norm = k0 * k0 + k1 * k1 + k2 * k2 + k3 * k3
    if abs(norm - 1.0) >= 1e-9:
        raise NormViolation(f"k0^2 + kvec.kvec = {norm!r}, expected 1")
    out = ref_lorentz_complex(k)
    imag_max = max([abs(z.imag) for z in out])
    if not imag_max <= 1e-9:
        raise NonRealResult(f"matrix has imaginary residue {imag_max:.3e} (tolerance 1.0e-09)")
    return [z.real for z in out]


def ref_simulate(rows, intensity, noise=None):
    """_simulate as it was written: each output a comprehension over all 16 terms of m @ p, taken
    from +0.0, and the outputs converted again by MeasurementSet."""
    i = float(intensity)
    f, a, b, c = [[0.0 + m0 * p0 + m1 * p1 + m2 * p2 + m3 * p3 for m0, m1, m2, m3 in rows]
                  for p0, p1, p2, p3 in [(i, 0.0, 0.0, 0.0), (i, i, 0.0, 0.0), (i, 0.0, i, 0.0), (i, 0.0, 0.0, i)]]
    if noise is not None and noise.sigma > 0.0:
        u, sigma = random.Random(noise.seed).random, noise.sigma
        f, a, b, c = [probes._noisy(x, u, sigma) for x in (f, a, b, c)]
    return lp.MeasurementSet(float(intensity), f, a, b, c)


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
    """Nine floats, a rotation, or a rotation with one column scaled so that its norm deviation
    lies within rounding of recover_quaternion's fixed 1e-6 gate, on either side of it."""
    kind = draw(st.sampled_from(["floats", "rotation", "gate"]))
    if kind == "floats":
        flat = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=9, max_size=9))
    else:
        flat = lp.quaternion_to_rotation(draw(unit_quaternions())).ravel().tolist()
    if kind == "gate":
        column = draw(st.integers(0, 2))
        scale = near(math.sqrt(1.0 + draw(st.sampled_from([1e-6, -1e-6]))), draw)
        flat = [x * scale if i % 3 == column else x for i, x in enumerate(flat)]
    else:
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
        return ref_classify(np.asarray(m, dtype=float).tolist(), tol)

    assert outcome(lp.is_lorentzian, m, tol) == outcome(reference)
    if math.isfinite(tol) and tol > 0.0:  # the CLI's call, on rows of lists
        assert outcome(_classify, rows, tol) == outcome(ref_classify, rows, tol)


@settings(max_examples=800)
@given(matrices3())
@example([[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # c0.c1 = 1e-6 exactly, det = 1: passes
@example([[1.0, math.nextafter(1e-6, math.inf), 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # one ulp over
def test_recover_quaternion_matches_reference(rows):
    def reference():
        return np.array(ref_quaternion(np.asarray(rows, dtype=float).tolist()))

    assert outcome(lp.recover_quaternion, rows) == outcome(reference)
    assert outcome(rotation._quaternion, rows) == outcome(ref_extraction, rows)


@settings(max_examples=400)
@given(matrices4(), matrices4())
def test_max_deviation_matches_reference(a, b):
    assert bits(_max_deviation(a[0] + a[1] + a[2] + a[3], b)) == bits(ref_max_deviation(a, b))


# --- the measurement kernels, on sets inside the envelope --------------------------------------

INTENSITIES = st.one_of(
    st.floats(1e-100, 1e100), st.just(1.0), st.integers(2**53 + 1, 10**100), st.just(True),
    st.floats(1e-100, 1e100).map(np.float64),
)


@st.composite
def measurement_sets(draw):
    """(simulated, set): sets in the envelope, simulated Lorentz elements with or without noise
    (simulated True), or any in-range outputs."""
    intensity = draw(INTENSITIES)
    if draw(st.booleans()):
        noise = lp.NoiseSpec(draw(st.sampled_from([0.0, 1e-6, 1e-2])) * float(intensity), draw(st.integers(0, 2**32)))
        m = lp.lorentz_from_k(draw(normalized_spinors()))
        ms = lp.simulate_measurements(m, float(intensity), noise)
        return True, lp.MeasurementSet(intensity, *ms.stokes)
    limit = probes.MAX_OUTPUT_RATIO * intensity
    corners = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, limit, -limit, float(intensity)])
    flat = draw(st.lists(st.one_of(corners, st.floats(-limit, limit)), min_size=16, max_size=16))
    return False, lp.MeasurementSet(intensity, *[flat[i:i + 4] for i in range(0, 16, 4)])


@settings(max_examples=500)
@given(measurement_sets())
def test_measurement_kernels_match_reference(drawn):
    simulated, ms = drawn
    rows = probes._mueller_rows(ms)
    assert bits(rows) == bits(ref_mueller_rows(ms))
    assert bits(probes._residuals(ms)) == bits(ref_residuals(ms))
    extracted = outcome(lorentz._extract, rows)
    assert extracted == outcome(ref_extract, rows)
    assert extracted[0] == "ok" or not simulated  # a Lorentz element is far from both singular cut-offs
    if extracted[0] == "ok":
        delta, mvec, nvec, _ = lorentz._extract(rows)
        assembled = outcome(lorentz._assemble_k, delta, mvec, nvec)
        assert assembled == outcome(ref_assemble_k, delta, mvec, nvec)
        assert assembled[0] == "ok" or not simulated


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
                                 "non-numeric", "string ndarray", "huge int", "scalar"]))
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
        entries[draw(st.integers(0, 3))] = draw(st.sampled_from(["x", "1.5", b"1", None, [1.0], {}]))
        return entries
    if kind == "string ndarray":
        return np.array(entries, dtype=float).astype(str)
    if kind == "huge int":
        entries[draw(st.integers(0, 3))] = 10**400
        return entries
    return np.float64(entries[0])


def built(intensity, vectors):
    ms = lp.MeasurementSet(intensity, *vectors)
    return ms.intensity, ms.stokes, ms.to_json()


def reference_built(intensity, vectors):
    intensity, (f, a, b, c) = ref_stokes(intensity, *vectors)
    return intensity, (f, a, b, c), reference_dumps({"intensity": intensity,
                                                     "outputs": {"F": f, "A": a, "B": b, "C": c}})


@settings(max_examples=600)
@given(st.one_of(INTENSITIES, st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e101, 10**400, -10**400])),
       st.lists(stokes_vectors(), min_size=4, max_size=4))
def test_measurement_set_constructor_matches_reference(intensity, vectors):
    assert outcome(built, intensity, vectors) == outcome(reference_built, intensity, vectors)


MIXED = ([1.0, 0.5, 0.0, 0.0], (1.0, 0.0, 0.5, 0.0), np.array([1.0, 0.0, 0.0, 0.5]),
         [np.float64(1.0), np.float64(0.1), 0, 0.0])


@pytest.mark.parametrize("vectors, message", [
    (MIXED, None),
    ((*MIXED[:3], np.zeros(3)), "Stokes vector must have shape (4,), got (3,)"),
    ((*MIXED[:3], [1.0, 0.0, 0.0, 0.0, 0.0]), "Stokes vector must have shape (4,), got (5,)"),
    ((MIXED[0], [1.0, "x", 0.0, 0.0], *MIXED[2:]), "Stokes vector entries must be numbers, not strings"),
    ((MIXED[0], [1.0, {}, 0.0, 0.0], *MIXED[2:]), "Stokes vector entries must be numbers, not dict"),
    ((*MIXED[:3], [1.0, math.nan, 0.0, 0.0]), "must be finite and in range"),
    ((*MIXED[:3], np.array([1.0, 0.0, 2e50, 0.0])), "must be finite and in range"),
    # two bad vectors: F's shape is reported, before A's overflowing entry is read
    ((np.zeros(5), [1.0, 10**400, 0.0, 0.0], *MIXED[2:]), "Stokes vector must have shape (4,), got (5,)"),
], ids=["mixed", "short_ndarray", "long_list", "string_entry", "dict_entry", "nan", "past_envelope", "first_error"])
def test_measurement_set_constructor_paths(vectors, message):
    got = outcome(built, 1.0, vectors)
    assert got == outcome(reference_built, 1.0, vectors)
    assert got[0] == "ok" if message is None else message in got[2]


# --- the input converter against numpy's conversion --------------------------------------------

REALS = st.one_of(
    st.floats(), st.sampled_from(SPECIALS + [1e-310, -1e-310]), st.integers(-10**300, 10**300), st.booleans(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
COMPLEXES = st.one_of(REALS, st.complex_numbers(), st.complex_numbers().map(np.complex128),
                      st.complex_numbers(width=64).map(np.complex64))
ARRAY_DTYPES = {float: [np.float64, np.float32, np.int64, np.bool_], complex: [np.complex128, np.complex64, np.float64]}


def listed(x):
    """x with every tuple as a list, so that _numbers's tuples compare with numpy's lists."""
    return [listed(v) for v in x] if isinstance(x, (list, tuple)) else x


def ref_numbers(x, shape, what, kind):
    """numpy's conversion: np.asarray(x, dtype=kind).tolist(), or ValueError unless it has the given shape;
    numpy's TypeError for an entry that is no number, such as a dict, restated with what and the type's name."""
    try:
        y = np.asarray(x, dtype=kind)
    except TypeError as exc:  # "float() argument must be ..., not 'dict'" or "must be real number, not dict"
        name = re.search(r"not '?(\w+)'?$", str(exc)).group(1)
        raise TypeError(f"{what} entries must be numbers, not {name}") from None
    if y.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {y.shape}")
    return y.tolist()


@st.composite
def convertible(draw, kind):
    """A target shape and an input that numpy reads as numbers: a list, a tuple or nested tuples, an ndarray
    of one of ARRAY_DTYPES, a list or tuple of such ndarrays (rows, or 0-d arrays as entries), or a numpy
    scalar; of the target shape or of another one."""
    shape = draw(st.sampled_from([(3,), (4,), (3, 3), (4, 4)]))
    data = draw(st.sampled_from([shape, shape, (4,), (5,), (2, 4), (4, 3), ()]))
    form = draw(st.sampled_from(["list", "tuple", "ndarray", "arrays", "scalar"]))
    if form in ("ndarray", "arrays"):
        dtype = draw(st.sampled_from(ARRAY_DTYPES[kind]))
        entries = {np.float32: st.floats(width=32), np.int64: st.integers(-2**63, 2**63 - 1), np.bool_: st.booleans(),
                   np.complex64: st.complex_numbers(width=64)}.get(dtype, REALS if dtype is np.float64 else COMPLEXES)
        size = math.prod(data)
        array = np.array(draw(st.lists(entries, min_size=size, max_size=size)), dtype=dtype).reshape(data)
        if form == "ndarray" or not data:
            return shape, array
        return shape, draw(st.sampled_from([list, tuple]))(array[i, ...] for i in range(data[0]))
    if form == "scalar" or not data:
        return shape, draw(REALS if kind is float else COMPLEXES)
    flat = draw(st.lists(REALS if kind is float else COMPLEXES, min_size=math.prod(data), max_size=math.prod(data)))
    rows = flat if len(data) == 1 else [flat[i:i + data[1]] for i in range(0, len(flat), data[1])]
    if form == "tuple":
        rows = tuple(tuple(r) for r in rows) if len(data) == 2 else tuple(rows)
    return shape, rows


@settings(max_examples=1500)
@given(st.data(), st.sampled_from([float, complex]))
def test_numbers_match_numpy_conversion(data, kind):
    shape, x = data.draw(convertible(kind))
    got = outcome(lambda: listed(_numbers(x, shape, "input", kind)))
    assert got == outcome(ref_numbers, x, shape, "input", kind)


IDENTITY_ROW = [1.0, 0.0, 0.0, 0.0]
NOT_NONE = "input entries must be numbers, not NoneType"
REFUSED = {
    "str_entry": ([1.0, "0", 0.0, 0.0], (4,), float, TypeError, "input entries must be numbers, not strings"),
    "bytes_entry": ([1.0, b"0", 0.0, 0.0], (4,), float, TypeError, "input entries must be numbers, not strings"),
    "str_input": ("1 0 0 0", (4,), float, TypeError, "input entries must be numbers, not strings"),
    "str_for_complex": (["0.5j", 0, 0, 0], (4,), complex, TypeError, "input entries must be numbers, not strings"),
    "complex_entry": ([1.0, 0.5j, 0.0, 0.0], (4,), float, TypeError, "input entries must be real numbers, not complex"),
    "complex_ndarray": (np.eye(4) + 0.5j, (4, 4), float, TypeError, "input entries must be real numbers, not complex"),
    "complex128_entry": ([np.complex128(0.5j), 0, 0, 0], (4,), float, TypeError, "must be real numbers, not complex"),
    "complex_0d_array_entry": ([np.array(0.5j), 0, 0, 0], (4,), float, TypeError, "must be real numbers, not complex"),
    "complex64_entry": ([np.complex64(0.5j), 0, 0, 0], (4,), float, TypeError, "must be real numbers, not complex"),
    "complex_zero_imag": ([np.complex128(1.0), 0, 0, 0], (4,), float, TypeError, "must be real numbers, not complex"),
    "none_entry": ([1.0, None, 0.0, 0.0], (4,), float, TypeError, NOT_NONE),
    "none_input": (None, (4,), float, TypeError, NOT_NONE),
    "none_for_complex": ([None, 0, 0, 0], (4,), complex, TypeError, NOT_NONE),
    "dict_entry": ([1.0, {}, 0.0, 0.0], (4,), float, TypeError, "input entries must be numbers, not dict"),
    "dict_input": ({}, (4, 4), float, TypeError, "input entries must be numbers, not dict"),
    "nested_entry": ([1.0, [0.0], 0.0, 0.0], (4,), float, TypeError, "input entries must be numbers, not list"),
    "short": ([1.0, 0.0, 0.0], (4,), float, ValueError, "input must have shape (4,), got (3,)"),
    "matrix_for_vector": (np.zeros((2, 2)), (4,), float, ValueError, "input must have shape (4,), got (2, 2)"),
    "scalar": (1.0, (4,), complex, ValueError, "input must have shape (4,), got ()"),
    "three_rows": ([IDENTITY_ROW] * 3, (4, 4), float, ValueError, "input must have shape (4, 4), got (3, 4)"),
    "ragged": ([IDENTITY_ROW, IDENTITY_ROW[:3], IDENTITY_ROW, IDENTITY_ROW], (4, 4), float, ValueError,
               "input must have shape (4, 4), got (4,)"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_numbers_refusals(name):
    x, shape, kind, error, message = REFUSED[name]
    with pytest.raises(error) as info:
        _numbers(x, shape, "input", kind)
    assert message in str(info.value)
    if name.startswith("dict"):  # numpy refuses a dict too, with float()'s message, which ref_numbers restates
        assert outcome(ref_numbers, x, shape, "input", kind) == ("raise", error, message)


def test_numbers_read_lists_and_tuples_of_ndarrays():
    assert _numbers(list(np.eye(4)), (4, 4), "input") == [tuple(row) for row in np.eye(4).tolist()]
    assert _numbers(tuple(np.eye(3, dtype=np.float32)), (3, 3), "input") == [tuple(row) for row in np.eye(3).tolist()]
    assert bits(_numbers([np.array(-0.0), np.float64(0.5), np.array(2, dtype=np.int64), 1], (4,), "input")) == \
        bits((-0.0, 0.5, 2.0, 1.0))
    assert lp.is_lorentzian(list(np.eye(4))) is lp.MuellerClass.ROTATION
    assert lp.is_lorentzian(tuple(lp.boost_mueller(3, 0.5))) is lp.MuellerClass.LORENTZ


def test_numbers_keep_signed_zeros_and_read_huge_ints_as_inf():
    assert bits(_numbers([-0.0, 0, False, np.float64(-0.0)], (4,), "input")) == bits((-0.0, 0.0, 0.0, -0.0))
    assert bits(_numbers([-0.0, 0.0, -0.0j, complex(-0.0, -0.0)], (4,), "input", complex)) == \
        bits((complex(-0.0, 0.0), 0j, -0j, complex(-0.0, -0.0)))
    assert _numbers([10**400, -10**400, 2**1024, 0], (4,), "input") == (math.inf, -math.inf, math.inf, 0.0)


# --- the forward path: the rebuild from k and the probe product ---------------------------------

ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def spinors(draw):
    """k as four complex numbers: a normalized general k, a real k (a rotation), a boost's k with
    imaginary kvec, or any parts; each zero part of either sign, and a few parts put to SPECIALS."""
    kind = draw(st.sampled_from(["general", "rotation", "boost", "any"]))
    if kind == "general":
        parts = [x for z in draw(normalized_spinors()).tolist() for x in (z.real, z.imag)]
    elif kind == "rotation":
        parts = [x for n in draw(unit_quaternions()).tolist() for x in (n, draw(ZEROS))]
    elif kind == "boost":  # k = (cosh(b/2), -i sinh(b/2) e) for the boost of rapidity b along e
        half, e = draw(st.floats(-3.0, 3.0)) / 2.0, draw(unit_quaternions())[1:]
        norm = math.sqrt(sum(e * e))
        e = e / norm if norm > 0.1 else np.array([0.0, 0.0, 1.0])
        parts = [math.cosh(half), draw(ZEROS)] + [x for ej in e.tolist() for x in (draw(ZEROS), -math.sinh(half) * ej)]
    else:
        parts = draw(st.lists(st.one_of(st.floats(-2.0, 2.0), ZEROS), min_size=8, max_size=8))
    parts = [draw(ZEROS) if x == 0.0 else x for x in parts]
    if draw(st.booleans()):
        parts = draw(with_specials(parts))
    return [complex(parts[i], parts[i + 1]) for i in range(0, 8, 2)]


def expected_entries(k):
    """The reference's outcome, except that an entry that is not finite, returned by the reference
    or reported as an imaginary residue of any size, raises NonRealResult with a NaN residue."""
    try:
        out = ref_lorentz_entries(k)
    except NonRealResult:
        out = [math.nan]
    except Exception as exc:  # the class and message are what is compared
        return "raise", type(exc), str(exc)
    if not all(map(math.isfinite, out)):
        return "raise", NonRealResult, "matrix has imaginary residue nan (tolerance 1.0e-09)"
    return "ok", bits(out)


@settings(max_examples=1500)
@given(spinors())
def test_lorentz_entries_match_the_complex_form(k):
    assert outcome(_lorentz_entries, k) == expected_entries(k)


@pytest.mark.parametrize("k", [
    [1.0, 0.0, 0.0, complex(math.nan, 0.0)],
    [1.0, 0.0, 0.0, complex(0.0, math.nan)],
    [complex(math.inf, 0.0), complex(0.0, math.inf), 1.0, 0.0],       # norm inf - inf: NaN
    [complex(1e200, 1e-200), complex(1e-200, 1e200), 0.0, 0.0],        # the complex form returned inf and NaN
    [complex(1e154, 0.0), complex(0.0, 1e154), 1.0, 0.0],              # finite k: L[0,0] overflows
    [complex(9e153, 0.0), complex(0.0, 9e153), 1.0, 0.0],              # finite and huge, normalized
    [complex(1e150, 0.0), complex(0.0, 1e150), 1.0, 0.0],
], ids=["nan_real", "nan_imag", "inf", "returned_non_finite", "overflow", "huge", "large"])
def test_lorentz_entries_at_non_finite_and_huge_k(k):
    k = [complex(z) for z in k]
    assert outcome(_lorentz_entries, k) == expected_entries(k)


@settings(max_examples=800)
@given(st.one_of(spinors(), st.lists(st.builds(complex, st.floats(-1e150, 1e150), st.floats(-1e150, 1e150)),
                                     min_size=4, max_size=4)))
def test_lorentz_entries_have_exactly_zero_imaginary_parts_for_finite_k(k):
    if all([math.isfinite(x) and abs(x) <= 1e150 for z in k for x in (z.real, z.imag)]):
        assert [z.imag for z in ref_lorentz_complex(k)] == [0.0] * 16


@st.composite
def probe_rows(draw):
    """4x4 rows with specials, or rows of signed zeros, subnormals, +-1 and inf."""
    if draw(st.booleans()):
        return draw(matrices4())
    flat = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e60, math.inf]),
                         min_size=16, max_size=16))
    return [flat[i:i + 4] for i in range(0, 16, 4)]


SIMULATE_INTENSITIES = st.one_of(
    st.sampled_from([1.0, 0.5, 3.0, 1e-100, 1e100, 5e-324, 0.0, -0.0, -1.0, math.nan, math.inf, True]),
    st.floats(1e-3, 1e3), st.integers(1, 10**30),
)


def simulated(simulate, rows, intensity, noise):
    ms = simulate(rows, intensity, noise)
    return ms.intensity, ms.stokes, ms.to_json()


@settings(max_examples=1000)
@given(probe_rows(), SIMULATE_INTENSITIES,
       st.one_of(st.none(), st.builds(lp.NoiseSpec, st.sampled_from([0.0, 1e-6, 0.5]), st.integers(0, 2**32))))
def test_simulate_matches_the_comprehension_form(rows, intensity, noise):
    assert outcome(simulated, probes._simulate, rows, intensity, noise) == \
        outcome(simulated, ref_simulate, rows, intensity, noise)

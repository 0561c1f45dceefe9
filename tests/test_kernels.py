"""The float kernels against the paper's formulas in exact arithmetic (tests/exact.py), at the error bounds of
README's "Numerical envelope": a result within its bound of the exact value of the same formula on the same
float inputs, and a verdict (a classification, a gate, a cut-off) the exact one wherever each exact quantity
lies farther than its bound from its cut.  What exact arithmetic cannot see is pinned case by case: signed
zeros, NaN and infinite entries, the cut-offs themselves and the special intensities.  The input converter,
algebra._numbers, has numpy's conversion, np.asarray(x, dtype).tolist(), as its reference, and each input it
refuses is listed with its error.
"""

import math
import numbers
import re
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import exact
import lorentzpol as lp
from lorentzpol import lorentz, probes
from lorentzpol.algebra import MuellerClass, _classify, _k_from_q, _lorentz_entries, _max_deviation, _numbers
from lorentzpol.errors import (DegenerateTrace, NonPositiveIntensity, NonRealResult, NormViolation,
                               NotRotationType, SingularNormalization)

from conftest import reference_dumps, unit_quaternions

# README's envelope: each bound in units of EPS times the scale its use names; TINY, the least subnormal, for underflow
EPS, TINY = Fraction(sys.float_info.epsilon), Fraction(math.ulp(0.0))
ROWS, RESIDUALS, PROBE_PRODUCT = Fraction("1.5"), 2, Fraction("2.5")  # rows, residuals, noiseless outputs
CLOSED_FORM, SPINOR = 12, Fraction("2.5")  # delta, M, N and q; k from the noiseless set of a Lorentz element
REBUILD, QUATERNION = Fraction("3.5"), 1  # L(k) and k.k; the quaternion
METRIC, DET = Fraction("4.5"), 5  # is_lorentzian's |M^T g M - g| and det M


def floats(x):
    """The floats of x, each complex number (or exact (re, im) pair) as its two parts, lists flattened."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    return [p for v in x for p in floats(v)] if isinstance(x, (list, tuple)) else [x]


def assert_within(got, want, absolute, relative=0):
    """Each float of got within absolute + relative*|w| of its exact value w in want."""
    got, want = floats(got), floats(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(Fraction(g) - w) <= absolute + relative * abs(w), (g, float(w))


def below(x, cut, bound):
    """x < cut, or None where x lies within bound of cut, where a float may fall on either side."""
    return None if abs(x - cut) <= bound else x < cut


# --- reference forms --------------------------------------------------------------------------

SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0]


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


# --- the matrix kernels -------------------------------------------------------------------------

@st.composite
def spinors(draw):
    """A normalized k from q with parts up to 0.3 to 50 (a real q gives a boost), or a rotation's real k."""
    if draw(st.booleans()):
        return [complex(n, draw(st.sampled_from([0.0, -0.0]))) for n in draw(unit_quaternions()).tolist()]
    s = draw(st.sampled_from([0.3, 1.0, 3.0, 10.0, 50.0]))
    q = [complex(draw(st.floats(-s, s)), draw(st.floats(-s, s))) for _ in range(3)]
    assume(abs(1.0 - sum(z * z for z in q)) > 0.02)  # sum|kj|^2 < 1e6, where the absolute norm check holds
    return _k_from_q(q)


@st.composite
def matrices4(draw):
    """A Lorentz matrix L(k), a rotation among them, or 16 floats up to a drawn magnitude s, as four lists."""
    s = draw(st.sampled_from(["L(k)", 1e-3, 1.0, 1e3]))
    flat = _lorentz_entries(draw(spinors())) if s == "L(k)" else [draw(st.floats(-s, s)) for _ in range(16)]
    return [list(flat[i:i + 4]) for i in range(0, 16, 4)]


@settings(max_examples=300)
@given(st.data(), matrices4())
def test_is_lorentzian_matches_reference(data, rows):
    m = exact.exact(rows)
    scale = max(abs(x) for row in m for x in row)
    assume(scale > 0)
    dev, det = exact.metric_deviation(m), exact.det(m)
    edge = max(abs(m[0][0] - 1), *map(abs, m[0][1:]), *(abs(row[0]) for row in m[1:]))
    # a fixed tolerance, or one near where the metric or the edge test flips
    where = data.draw(st.sampled_from([Fraction(1e-9), dev / scale ** 2, edge / max(1, scale)]))
    tol = float(where * data.draw(st.sampled_from([1, Fraction(1, 2), Fraction(9, 10), Fraction(11, 10), 2])))
    assume(0.0 < tol < math.inf)
    metric_cut, edge_cut = Fraction(tol) * scale ** 2, Fraction(tol) * max(1, scale)
    checks = [below(dev, metric_cut, METRIC * EPS * (scale ** 2 + 1) + EPS * metric_cut + TINY),
              below(-det, 0, DET * EPS * scale ** 4 + TINY), m[0][0] > 0]
    rotation_type = below(edge, edge_cut, EPS * (edge + edge_cut) + TINY)
    expected = MuellerClass.NOT_LORENTZIAN if False in checks else None if None in checks else {
        True: MuellerClass.ROTATION, False: MuellerClass.LORENTZ, None: None}[rotation_type]
    got = lp.is_lorentzian(np.array(rows), tol)
    assert got is _classify(rows, tol)  # the CLI's call, on rows of lists
    assert expected is None or got is expected


def test_is_lorentzian_refuses_nan_and_inf_entries():
    for base in (np.eye(4).tolist(), lp.lorentz_from_k(lp.k_from_q([0.3 + 0.2j, -0.4j, 0.25])).tolist()):
        for x in (math.nan, math.inf, -math.inf):
            for p in range(16):
                m = [row[:] for row in base]
                m[p // 4][p % 4] = x
                assert lp.is_lorentzian(m) is _classify(m, 1e300) is MuellerClass.NOT_LORENTZIAN
            assert lp.is_lorentzian([[x] * 4] + base[1:], 1e300) is MuellerClass.NOT_LORENTZIAN
    with pytest.raises(ValueError, match="^tolerance must be finite and positive, got nan$"):
        lp.is_lorentzian("no matrix", math.nan)  # the tolerance is checked before the matrix is read


@st.composite
def triads(draw):
    """A rotation with n0 >= 0.05, or the same with one column negated (det R = -1), scaled so that
    |R^T R - 1| lies on either side of recover_quaternion's 1e-6 gate, or with one entry NaN."""
    rows = lp.quaternion_to_rotation(draw(unit_quaternions(min_n0=0.05))).tolist()
    c, s = draw(st.integers(0, 2)), draw(st.sampled_from([1.0, -1.0, math.sqrt(1.0 + 1e-6 * draw(st.floats(-2, 2)))]))
    rows = [[x * s if j == c else x for j, x in enumerate(row)] for row in rows]
    if draw(st.integers(0, 9)) == 7:  # about one draw in forty
        rows[draw(st.integers(0, 2))][c] = math.nan
    return rows


@settings(max_examples=300)
@given(triads())
def test_recover_quaternion_matches_reference(rows):
    # the gate is is_lorentzian's verdict on diag(1, R), whose bounds test_is_lorentzian_matches_reference holds
    rotation = lp.is_lorentzian(lp.embed_rotation(rows), 1e-6) is MuellerClass.ROTATION
    try:
        n = lp.recover_quaternion(rows).tolist()
    except NotRotationType as exc:
        assert str(exc).startswith("not a proper rotation: [[") and not rotation
        return
    assert rotation
    want = exact.quaternion(rows)
    assert_within(n, want, QUATERNION * EPS / want[0] ** 2)


def test_recover_quaternion_gate_is_strict_at_1e_6():
    rows = [[1.0, 9.99e-7, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # c0.c1 = 9.99e-7, det = 1: passes
    assert lp.recover_quaternion(rows).tolist() == [1.0, 0.0, 0.0, -9.99e-7 / 4]
    rows[0][1] = 1e-6  # c0.c1 = 1e-6 exactly, not below the cut 1e-6 * max(1, max|r|)^2
    message = "not a proper rotation: [[1.0, 1e-06, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] at tol 1e-06"
    with pytest.raises(NotRotationType, match=f"^{re.escape(message)}$"):
        lp.recover_quaternion(rows)


@settings(max_examples=200)
@given(matrices4(), matrices4())
def test_max_deviation_matches_reference(a, b):
    # each |a - b| is correctly rounded, so their max is the exact max, rounded
    assert _max_deviation(a[0] + a[1] + a[2] + a[3], b) == float(max(
        abs(Fraction(x) - Fraction(y)) for r, s in zip(a, b) for x, y in zip(r, s)))


# --- the measurement kernels, on sets inside the envelope --------------------------------------

INTENSITIES = st.one_of(
    st.floats(1e-100, 1e100), st.just(1.0), st.integers(2**53 + 1, 10**100), st.just(True),
    st.floats(1e-100, 1e100).map(np.float64),
)


@st.composite
def measurement_sets(draw):
    """(sigma, set): a Lorentz element's set with noise sigma (0.0 for none), or any outputs in range (None)."""
    intensity = draw(INTENSITIES)
    if draw(st.booleans()):
        noise = lp.NoiseSpec(draw(st.sampled_from([0.0, 1e-6, 1e-2])) * float(intensity), draw(st.integers(0, 2**32)))
        ms = lp.simulate_measurements(lp.lorentz_from_k(draw(spinors())), float(intensity), noise)
        return noise.sigma, lp.MeasurementSet(intensity, *ms.stokes)
    limit = probes.MAX_OUTPUT_RATIO * intensity
    corners = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, limit, -limit, float(intensity)])
    flat = draw(st.lists(st.one_of(corners, st.floats(-limit, limit)), min_size=16, max_size=16))
    return None, lp.MeasurementSet(intensity, *[flat[i:i + 4] for i in range(0, 16, 4)])


@settings(max_examples=300)
@given(measurement_sets())
@example((None, lp.MeasurementSet(  # the plain trace 1.0 of an exact trace 516191365604835329
    5.960464477539063e-08, [30767402983.0, 5.960464477539063e+42, -5.960464477539063e+42, 0.0], [0.0] * 4, [0.0] * 4,
    [0.0, 0.0, 0.0, 5.960464477539063e-08])))
def test_measurement_kernels_match_reference(drawn):
    sigma, ms = drawn
    rows, want = probes._mueller_rows(ms), exact.mueller_rows(ms.intensity, ms.stokes)
    size = max(abs(x) for row in want for x in row)
    assert_within(rows, want, ROWS * EPS * size + TINY)
    i2, outputs = Fraction(ms.intensity) ** 2, exact.exact(ms.stokes)
    scale = max(i2 + sum(v * v for v in outputs[0]), *(sum(v * v for v in x) for x in outputs[1:]))
    (r, normalized), (want_r, want_normalized) = probes._residuals(ms), exact.residuals(ms.intensity, ms.stokes)
    assert_within(r, want_r, RESIDUALS * EPS * scale + 4 * TINY)
    assert_within(normalized, want_normalized, RESIDUALS * EPS * (scale + 4 * TINY) / i2, RESIDUALS * EPS)
    trace = sum(map(Fraction, (rows[0][0], rows[1][1], rows[2][2], rows[3][3])))
    try:
        delta, mvec, nvec, q = lorentz._extract(rows)
    except DegenerateTrace as exc:  # the trace within 2 * CLOSED_FORM * EPS * max|r|, the bound delta^2 has
        assert re.fullmatch(r"matrix trace \S+ is not positive; cannot extract delta", str(exc)) and (
            trace <= Fraction(1e-10) + 2 * CLOSED_FORM * EPS * size)
        return
    assert trace > Fraction(1e-10) - 2 * CLOSED_FORM * EPS * size
    assume(trace > 0)  # a float trace past the cut-off and an exact one at or below 0 are within the bound
    closed = exact.closed_form(rows)
    assert_within([delta, mvec, nvec, q], closed, TINY, CLOSED_FORM * EPS * size / trace)
    try:
        k = lorentz._assemble_k(delta, mvec, nvec)
    except SingularNormalization as exc:  # for a Lorentz element, |delta^2 + (N + iM).(N + iM)| = 1
        assert sigma != 0.0 and str(exc).startswith("delta^2 + (N + iM).(N + iM) = ")
        return
    if sigma == 0.0:  # on other sets that denominator may cancel, and k has no bound in these terms
        want_k = exact.spinor(*closed[:3])
        if sum(Fraction(g) * w for g, w in zip(floats(k), floats(want_k))) < 0:  # -want_k is the nearer
            want_k = [(-x, -y) for x, y in want_k]
        # k is canonical, so it has want_k's sign wherever the part that decides the sign lies past the bound
        assert lp.canonical_spinor_sign(k).tolist() == k
        bound = SPINOR * EPS * sum(x * x + y * y for x, y in want_k) * max(closed[0], 1 / closed[0])
        assert_within(k, want_k, bound)


def test_assemble_k_matches_reference_near_and_at_the_singular_normalization():
    # the cut-offs, on either side: trace <= 1e-10 and |delta^2 + (N + iM).(N + iM)| < 1e-12
    rows = [[1e-10, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4, [0.0] * 4]
    with pytest.raises(DegenerateTrace, match=r"^matrix trace 1e-10 is not positive; cannot extract delta$"):
        lorentz._extract(rows)
    rows[0][0] = math.nextafter(1e-10, 1.0)
    assert lorentz._extract(rows)[0] == 5e-06
    zeros = [0.0, 0.0, 0.0]
    assert lorentz._assemble_k(1e-6, zeros, zeros) == [1.0, 0.0, 0.0, 0.0]  # delta^2 = 1e-12, not below the cut
    for delta, norm2 in ((0.0, "0j"), (math.nextafter(1e-6, 0.0), "(9.999999999999996e-13+0j)")):
        with pytest.raises(SingularNormalization) as info:
            lorentz._assemble_k(delta, zeros, zeros)
        assert str(info.value) == f"delta^2 + (N + iM).(N + iM) = {norm2} is singular"


def test_signed_zeros_reach_the_outputs_as_plus_zero():
    # 0.0 - x and 0.0 + x give +0.0 where -x or x is -0.0: the rebuild's 2*Im terms, M, Im q and F = 0.0 + m[:, 0]*I
    eye = [[float(i == j) for j in range(4)] for i in range(4)]
    assert bits(_lorentz_entries([1 + 0j, 0j, 0j, 0j])) == bits(eye[0] + eye[1] + eye[2] + eye[3])
    assert bits(lorentz._extract(eye)) == bits((1.0, [0.0] * 3, [0.0] * 3, [0j] * 3))
    ms = probes._simulate([[1.0 if i == j else -0.0 for j in range(4)] for i in range(4)], 1.0)
    assert bits(ms.stokes) == bits(((1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0),
                                    (1.0, 0.0, 0.0, 1.0)))


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

@settings(max_examples=300)
@given(st.one_of(spinors(), st.lists(st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                                     min_size=4, max_size=4)))
def test_lorentz_entries_match_the_exact_rebuild(k):
    (re_norm, im_norm), want = exact.norm(k), exact.lorentz(k)
    bound = REBUILD * EPS * want[0][0]  # L[0,0] = sum|kj|^2
    try:
        entries = _lorentz_entries(k)
    except NormViolation as exc:
        assert str(exc).startswith("k0^2 + kvec.kvec = ") and str(exc).endswith(", expected 1")
        assert (re_norm - 1) ** 2 + im_norm ** 2 >= (Fraction(1e-9) - bound) ** 2 or bound >= Fraction(1e-9)
        return
    assert (re_norm - 1) ** 2 + im_norm ** 2 <= (Fraction(1e-9) + bound) ** 2
    assert_within(entries, want, bound)


@pytest.mark.parametrize("k", [
    [1.0, 0.0, 0.0, complex(math.nan, 0.0)],
    [1.0, 0.0, 0.0, complex(0.0, math.nan)],
    [complex(math.inf, 0.0), complex(0.0, math.inf), 1.0, 0.0],       # norm inf - inf: NaN
    [complex(1e200, 1e-200), complex(1e-200, 1e200), 0.0, 0.0],        # norm NaN, the products inf and NaN
    [complex(1e154, 0.0), complex(0.0, 1e154), 1.0, 0.0],              # finite k: L[0,0] overflows
    [complex(9e153, 0.0), complex(0.0, 9e153), 1.0, 0.0],              # finite and huge, normalized
    [complex(1e150, 0.0), complex(0.0, 1e150), 1.0, 0.0],
], ids=["nan_real", "nan_imag", "inf", "returned_non_finite", "overflow", "huge", "large"])
def test_lorentz_entries_at_non_finite_and_huge_k(k):
    k = [complex(z) for z in k]
    want = exact.lorentz(k) if all(map(math.isfinite, floats(k))) else [[math.inf]]
    if want[0][0] <= sys.float_info.max:  # L[0,0] = sum|kj|^2 in the float range
        assert_within(_lorentz_entries(k), want, REBUILD * EPS * want[0][0])
    else:
        with pytest.raises(NonRealResult, match=r"^rebuild from k has a non-finite entry, L\[0,0\] = (nan|inf)$"):
            _lorentz_entries(k)


@settings(max_examples=300)
@given(matrices4(), st.one_of(st.sampled_from([1.0, 0.5, 3.0, 1e-100, 1e100, True]), st.floats(1e-3, 1e3),
                              st.integers(1, 10**30)))
def test_simulate_matches_the_exact_probe_product(rows, intensity):
    ms = lp.simulate_measurements(rows, intensity)
    assert type(ms.intensity) is float and ms.intensity == float(intensity)
    size = max(abs(x) for x in exact.exact(rows[0] + rows[1] + rows[2] + rows[3]))
    bound = PROBE_PRODUCT * EPS * Fraction(ms.intensity) * size + 2 * TINY
    assert_within(ms.stokes, exact.outputs(rows, ms.intensity), bound)


@pytest.mark.parametrize("intensity, error, message", [
    *[(x, NonPositiveIntensity, f"intensity must be > 0, got {x}") for x in (0.0, -0.0, -1.0, math.nan)],
    *[(x, ValueError, "measurements must be finite and in range") for x in (5e-324, math.inf)],
], ids=["zero", "negative_zero", "negative", "nan", "subnormal", "inf"])
def test_simulate_at_special_intensities(intensity, error, message):
    with pytest.raises(error, match=re.escape(message)):
        probes._simulate(np.eye(4).tolist(), intensity)
    with pytest.raises(ValueError, match="^measurements must be finite and in range"):  # a non-finite output
        probes._simulate([[math.inf, 0.0, 0.0, 0.0]] + np.eye(4).tolist()[1:], 1.0)

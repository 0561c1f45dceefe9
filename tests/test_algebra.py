import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lorentzpol as lp
from lorentzpol.algebra import _det4

from conftest import dense_matrices, normalized_spinors, unit_quaternions

LN2 = np.log(2.0)

# boost of rapidity ln 2 along axis 3: cosh = 1.25, sinh = 0.75
BOOST_LN2 = np.array([
    [1.25, 0.0, 0.0, 0.75],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.75, 0.0, 0.0, 1.25],
])

MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])

QUARTER_TURN = np.array([
    [0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
])


def test_boost_mueller_matches_cosh_sinh_form():
    assert_allclose(lp.boost_mueller(3, LN2), BOOST_LN2, atol=1e-15)
    with pytest.raises(ValueError):
        lp.boost_mueller(0, 1.0)


def test_quaternion_to_rotation_values():
    assert_allclose(lp.quaternion_to_rotation([1, 0, 0, 0]), np.eye(3))
    s = np.sqrt(0.5)
    assert_allclose(lp.quaternion_to_rotation([s, 0, 0, s]), QUARTER_TURN, atol=1e-15)
    assert_allclose(lp.quaternion_to_rotation([0, 0, 0, 1]), np.diag([-1.0, -1.0, 1.0]))


def test_quaternion_norm_violation():
    with pytest.raises(lp.NormViolation):
        lp.quaternion_to_rotation([1, 1, 0, 0])


@pytest.mark.parametrize("n", [[np.nan, 0, 0, 0], [np.nan] * 4, [1, 0, 0, np.inf]])
def test_quaternion_to_rotation_rejects_non_finite(n):
    with pytest.raises(lp.NormViolation):
        lp.quaternion_to_rotation(n)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_quaternion_to_rotation_rejects_bad_tolerance(tol):
    # an infinite norm_tol would turn (1, 1, 0, 0) into a non-orthogonal matrix, and a negative
    # one would refuse the unit quaternion (0.6, 0.8, 0, 0)
    for n in ([1.0, 1.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0]):
        with pytest.raises(ValueError, match="finite and positive"):
            lp.quaternion_to_rotation(n, norm_tol=tol)


@settings(max_examples=100)
@given(unit_quaternions())
def test_quaternion_rotation_is_proper(n):
    r = lp.quaternion_to_rotation(n)
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


@given(unit_quaternions())
def test_quaternion_two_to_one_exact(n):
    assert np.array_equal(lp.quaternion_to_rotation(n), lp.quaternion_to_rotation(-n))


@given(unit_quaternions())
def test_quaternion_to_rotation_matches_numpy_scalars_bitwise(n):
    # the formula on numpy float64 scalars, as earlier releases evaluated it
    n0, n1, n2, n3 = n
    expected = np.array([
        [1 - 2 * (n2 * n2 + n3 * n3), -2 * n0 * n3 + 2 * n1 * n2, 2 * n0 * n2 + 2 * n1 * n3],
        [2 * n0 * n3 + 2 * n1 * n2, 1 - 2 * (n3 * n3 + n1 * n1), -2 * n0 * n1 + 2 * n2 * n3],
        [-2 * n0 * n2 + 2 * n1 * n3, 2 * n0 * n1 + 2 * n2 * n3, 1 - 2 * (n1 * n1 + n2 * n2)],
    ])
    assert lp.quaternion_to_rotation(n).tobytes() == expected.tobytes()


def test_rotation_mueller_embedding():
    m = lp.rotation_mueller(3, np.pi / 2)
    assert_allclose(m[1:, 1:], QUARTER_TURN, atol=1e-15)
    assert_allclose(m[0], [1, 0, 0, 0])
    assert_allclose(m[:, 0], [1, 0, 0, 0])


def test_lorentz_from_k_identity():
    assert_allclose(lp.lorentz_from_k([1, 0, 0, 0]), np.eye(4))


def test_lorentz_from_k_boost_regression():
    # regression constant: the ln-2 boost along axis 3 has parameter
    # k = (cosh(ln2 / 2), 0, 0, -i sinh(ln2 / 2))
    k = np.array([np.cosh(LN2 / 2), 0, 0, -1j * np.sinh(LN2 / 2)])
    assert_allclose(lp.lorentz_from_k(k), BOOST_LN2, atol=1e-14)


def test_lorentz_from_k_real_k_is_rotation():
    for theta in (0.3, 1.2, -0.8):
        k = np.array([np.cos(theta / 2), 0, 0, np.sin(theta / 2)])
        m = lp.lorentz_from_k(k)
        assert np.abs(m[0] - [1, 0, 0, 0]).max() < 1e-12
        assert np.abs(m[:, 0] - [1, 0, 0, 0]).max() < 1e-12
        assert_allclose(m[1:, 1:], lp.quaternion_to_rotation(k.real), atol=1e-12)


@given(unit_quaternions())
def test_lorentz_from_k_agrees_with_quaternion(n):
    # the real spinor parameter IS the quaternion
    assert_allclose(
        lp.lorentz_from_k(n.astype(complex)),
        lp.embed_rotation(lp.quaternion_to_rotation(n)),
        atol=1e-12,
    )


def test_lorentz_from_k_norm_violation():
    with pytest.raises(lp.NormViolation):
        lp.lorentz_from_k([1.0, 0.5, 0.0, 0.0])


def test_lorentz_from_k_sign_invariance_exact():
    k = lp.k_from_q([0.2 + 0.1j, -0.3j, 0.25])
    assert np.array_equal(lp.lorentz_from_k(k), lp.lorentz_from_k(-k))


@settings(max_examples=150)
@given(normalized_spinors())
def test_lorentz_from_k_preserves_metric(k):
    m = lp.lorentz_from_k(k)
    g = MINKOWSKI
    assert np.abs(m.T @ g @ m - g).max() < 1e-10
    assert np.linalg.det(m) > 0.0
    assert m[0, 0] >= 1.0 - 1e-12


PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli_trace_mueller(k):
    """Independent reference: M_ij = 1/2 tr(s_i A^+ s_j A) with
    A = k0*1 + i*(k1 s1 + k2 s2 + k3 s3), s_0..s_3 the identity and Pauli matrices."""
    a = k[0] * PAULI[0] + 1j * (k[1] * PAULI[1] + k[2] * PAULI[2] + k[3] * PAULI[3])
    a_dag = a.conj().T
    return np.array([[0.5 * np.trace(si @ a_dag @ sj @ a).real for sj in PAULI] for si in PAULI])


@settings(max_examples=400)
@given(st.one_of(normalized_spinors(), unit_quaternions().map(lambda n: n.astype(complex))))
def test_lorentz_from_k_matches_pauli_trace_form(k):
    norm2 = float(np.sum(np.abs(k) ** 2))  # ||k||^2; 1 for a real (rotation) k
    bound = 4.0 * np.finfo(float).eps * max(1.0, norm2) ** 2
    assert np.abs(lp.lorentz_from_k(k) - pauli_trace_mueller(k)).max() <= bound


@given(normalized_spinors())
def test_det4_sign_on_lorentz_matrices(k):
    m = lp.lorentz_from_k(k)
    assert np.sign(_det4(m.tolist())) == np.sign(np.linalg.det(m)) == 1.0


@settings(max_examples=200)
@given(dense_matrices(), st.sampled_from([1e-6, -1e-6, 1e-9, -1e-9]))
def test_det4_sign_on_near_singular_matrices(a, smallest):
    # singular values (s0, s0/2, s0/4, smallest*s0): det is tiny but far above rounding
    u, s, vt = np.linalg.svd(a)
    assume(s[0] > 1e-3)
    m = u @ np.diag([s[0], s[0] / 2, s[0] / 4, smallest * s[0]]) @ vt
    want = np.sign(smallest) * np.sign(np.linalg.det(u)) * np.sign(np.linalg.det(vt))
    assert np.sign(_det4(m.tolist())) == np.sign(np.linalg.det(m)) == want


@given(normalized_spinors())
def test_lorentz_preserves_minkowski_norm(k):
    m = lp.lorentz_from_k(k)
    rng = np.random.default_rng(3)
    for _ in range(3):
        s = rng.uniform(-2.0, 2.0, 4)
        s[0] = abs(s[0]) + 1.0
        before = s @ MINKOWSKI @ s
        after = (m @ s) @ MINKOWSKI @ (m @ s)
        assert abs(after - before) < 1e-10 * s[0] ** 2


def test_lorentz_from_k_rejects_non_real_entries():
    # in scalar arithmetic every entry of a finite k comes out exactly real;
    # a NaN component passes the norm check (its norm is NaN) and must
    # be caught by the finiteness check instead of returning a NaN matrix
    for bad in (np.nan, complex(0.0, np.nan)):
        with pytest.raises(lp.NonRealResult, match=r"^rebuild from k has a non-finite entry, L\[0,0\] = nan$"):
            lp.lorentz_from_k([1.0, 0.0, 0.0, bad])


def test_k_from_q_trivial_and_boost():
    assert_allclose(lp.k_from_q([0, 0, 0]), [1, 0, 0, 0])
    k = lp.k_from_q([0, 0, -1.0 / 3.0])
    assert_allclose(k, [np.cosh(LN2 / 2), 0, 0, -1j * np.sinh(LN2 / 2)], atol=1e-14)
    assert_allclose(lp.lorentz_from_k(k), BOOST_LN2, atol=1e-14)


def test_k_from_q_singular():
    with pytest.raises(lp.SingularParameter):
        lp.k_from_q([1.0, 0.0, 0.0])
    with pytest.raises(lp.SingularParameter) as exc:
        lp.k_from_q([0.6, 0.8, 0.0])
    assert str(exc.value) == "1 - q.q = 0j is singular"  # a Python complex, not a numpy repr


def test_k_from_q_inverts_q():
    q = np.array([0.2 - 0.4j, 0.1 + 0.3j, -0.5 + 0.0j])
    k = lp.k_from_q(q)
    assert_allclose(k[1:] / (1j * k[0]), q, atol=1e-14)  # i*q = kvec/k0


def test_spinor_norm_is_one_for_constructed_k():
    q = np.array([0.3 + 0.2j, -0.1j, 0.4])
    assert abs(lp.spinor_norm(lp.k_from_q(q)) - 1.0) < 1e-12


def test_canonical_spinor_sign():
    k = np.array([1.0, 0.0, 0.0, 0.5j])
    assert np.array_equal(lp.canonical_spinor_sign(-k), k)
    # tie-break: Re k0 = 0, first nonzero entry in the Re/Im ladder decides
    k = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    assert np.array_equal(lp.canonical_spinor_sign(-k), k)
    k = np.array([1j, 0.0, 0.0, 0.0])
    assert np.array_equal(lp.canonical_spinor_sign(-k), k)


def test_is_lorentzian_classes():
    assert lp.is_lorentzian(np.eye(4)) is lp.MuellerClass.ROTATION
    assert lp.is_lorentzian(BOOST_LN2) is lp.MuellerClass.LORENTZ
    assert lp.is_lorentzian(np.ones((4, 4))) is lp.MuellerClass.NOT_LORENTZIAN
    assert lp.is_lorentzian(2.0 * np.eye(4)) is lp.MuellerClass.NOT_LORENTZIAN
    with pytest.raises(ValueError):
        lp.is_lorentzian(np.eye(4), tol=0.0)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_is_lorentzian_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        lp.is_lorentzian(BOOST_LN2, tol=tol)


@pytest.mark.parametrize("call", [
    lambda: lp.is_lorentzian(np.eye(4) + 0.5j),  # was ROTATION, with a ComplexWarning
    lambda: lp.is_lorentzian(np.eye(4).astype(np.complex64)),
    lambda: lp.simulate_measurements([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, np.complex128(1)]], 1.0),
    lambda: lp.quaternion_to_rotation([1, 0, 0, 0j]),
    lambda: lp.embed_rotation(np.eye(3) + 0j),
    lambda: lp.recover_quaternion(np.eye(3) * (1 + 0j)),
    lambda: lp.rotation_identity_sum([[1, 0, 0], [0, 1, 0], [0, 0, 1j]]),
], ids=["is_lorentzian", "is_lorentzian_complex64", "simulate", "quaternion_to_rotation", "embed_rotation",
        "recover_quaternion", "rotation_identity_sum"])
def test_real_inputs_refuse_complex_entries(call):
    with pytest.raises(TypeError, match="entries must be real numbers, not complex"):
        call()


NUMPY_BLOCKED = """import sys
sys.modules["numpy"] = None  # an import of numpy now fails
import lorentzpol as lp
ms = lp.MeasurementSet(1, [1, 0, 0, 0.5], (1.0, 1.0, 0.0, 0.0), [1.0, 0, 1, 0], [True, 0, 0, 1])
print(ms.stokes)
rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]]
print(lp.is_lorentzian(rows).value, lp.is_lorentzian(tuple(map(tuple, rows))).value)
try:
    lp.is_lorentzian(rows[:3])
except ValueError as exc:
    print(exc)
"""


def test_inputs_convert_without_numpy():
    out = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED], capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "((1.0, 0.0, 0.0, 0.5), (1.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0))",
        "rotation rotation",
        "Mueller matrix must have shape (4, 4), got (3, 4)",
    ]


STRING_ROWS = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]


@pytest.mark.parametrize("call", [
    lambda: lp.is_lorentzian(STRING_ROWS),  # was ROTATION
    lambda: lp.is_lorentzian(np.array(STRING_ROWS)),
    lambda: lp.simulate_measurements(STRING_ROWS, 1.0),  # wrote the identity's set
    lambda: lp.simulate_measurements([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                                      [0.0, 0.0, 0.0, b"1"]], 1.0),
    lambda: lp.embed_rotation([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    lambda: lp.quaternion_to_rotation(["1", "0", "0", "0"]),
    lambda: lp.quaternion_to_rotation(np.array([1.0, "0", 0.0, 0.0], dtype=object)),
    lambda: lp.k_from_q(["0.1", "0.2j", "0"]),
    lambda: lp.lorentz_from_k(["1", "0", "0", "0"]),
    lambda: lp.spinor_norm(np.array([b"1", b"0", b"0", b"0"])),
], ids=["is_lorentzian", "is_lorentzian_array", "simulate", "simulate_bytes", "embed_rotation",
        "quaternion_to_rotation", "quaternion_object_array", "k_from_q", "lorentz_from_k", "spinor_norm_bytes"])
def test_matrix_and_parameter_inputs_refuse_strings(call):
    with pytest.raises(TypeError, match="entries must be numbers, not strings"):
        call()

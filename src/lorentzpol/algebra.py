"""Stokes/Mueller algebra and exact forward constructions.

A Stokes vector is a real 4-vector (s0, s1, s2, s3) with s0 the total
intensity and (s1, s2, s3) = I * p the polarization vector scaled by
intensity.  Mueller matrices act on Stokes vectors by ordinary
matrix-vector multiplication.  Transformations that preserve the Minkowski
quadratic form s0^2 - s1^2 - s2^2 - s3^2 form the polarization image of the
proper orthochronous Lorentz group; this module builds them from two
equivalent compact parameterizations:

* a unit quaternion (n0, n1, n2, n3) for pure polarization rotations;
* a complex 4-vector k = (k0, kvec), normalized to k0^2 + kvec.kvec = 1 and
  defined up to an overall sign, for the general case.  Real kvec gives
  pure rotations (k then coincides with the quaternion), imaginary kvec
  gives boosts: k = (cosh(b/2), -i*sinh(b/2)*e) maps to the boost of
  rapidity b along the unit axis e.

The equivalent complex 3-vector parameter q is related by i*q = kvec/k0,
so q is finite whenever k0 != 0 and carries the same information minus the
sign ambiguity.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import NonRealResult, NormViolation, SingularParameter

MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


class MuellerClass(enum.Enum):
    """Classification of a Mueller matrix."""

    LORENTZ = "lorentz"
    ROTATION = "rotation"
    NOT_LORENTZIAN = "not-lorentzian"


def as_stokes(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (4,):
        raise ValueError(f"Stokes vector must have shape (4,), got {s.shape}")
    return s


def as_mueller(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"Mueller matrix must have shape (4, 4), got {m.shape}")
    return m


def minkowski_norm(s) -> float:
    """Quadratic invariant s0^2 - s1^2 - s2^2 - s3^2 of a Stokes vector.

    Zero for fully polarized light, s0^2 for natural light.
    """
    s0, s1, s2, s3 = as_stokes(s).tolist()
    return s0 * s0 - s1 * s1 - s2 * s2 - s3 * s3


def apply_mueller(m, s) -> np.ndarray:
    """Image of the Stokes vector s under the optical element m."""
    return as_mueller(m) @ as_stokes(s)


def quaternion_to_rotation(n, norm_tol: float = 1e-9) -> np.ndarray:
    """Rotation matrix of a unit quaternion (n0, n1, n2, n3).

    Parameters
    ----------
    n : array-like, shape (4,)
        Unit quaternion; (n0, e*sin(t/2)) with n0 = cos(t/2) rotates by the
        angle t about the unit axis e.  n and -n give the same matrix.
    norm_tol : float
        Allowed deviation of n.n from 1 before NormViolation is raised.

    Returns
    -------
    numpy.ndarray, shape (3, 3)
        Proper rotation matrix (orthogonal, determinant +1).
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (4,):
        raise ValueError(f"quaternion must have shape (4,), got {n.shape}")
    norm2 = float(np.dot(n, n))
    if abs(norm2 - 1.0) >= norm_tol:
        raise NormViolation(f"quaternion norm^2 = {norm2!r}, expected 1")
    n0, n1, n2, n3 = n
    return np.array([
        [1 - 2 * (n2 * n2 + n3 * n3), -2 * n0 * n3 + 2 * n1 * n2, 2 * n0 * n2 + 2 * n1 * n3],
        [2 * n0 * n3 + 2 * n1 * n2, 1 - 2 * (n3 * n3 + n1 * n1), -2 * n0 * n1 + 2 * n2 * n3],
        [-2 * n0 * n2 + 2 * n1 * n3, 2 * n0 * n1 + 2 * n2 * n3, 1 - 2 * (n1 * n1 + n2 * n2)],
    ])


def embed_rotation(r) -> np.ndarray:
    """Mueller matrix of a pure polarization rotation (3x3 block)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation block must have shape (3, 3), got {r.shape}")
    m = np.eye(4)
    m[1:, 1:] = r
    return m


def rotation_mueller(axis: int, theta: float) -> np.ndarray:
    """Mueller matrix rotating the polarization by theta about a Stokes axis."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    n = np.zeros(4)
    n[0] = np.cos(theta / 2.0)
    n[axis] = np.sin(theta / 2.0)
    return embed_rotation(quaternion_to_rotation(n))


def boost_mueller(axis: int, beta: float) -> np.ndarray:
    """Boost-type Mueller matrix of rapidity beta along a Stokes axis.

    Mixes intensity with the chosen polarization component through
    cosh(beta) / sinh(beta), leaving the transverse components alone.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    m = np.eye(4)
    m[0, 0] = m[axis, axis] = np.cosh(beta)
    m[0, axis] = m[axis, 0] = np.sinh(beta)
    return m


def spinor_norm(k) -> complex:
    """Bilinear invariant k0^2 + kvec.kvec; equals 1 for normalized k."""
    k0, k1, k2, k3 = np.asarray(k, dtype=complex).tolist()
    return k0 * k0 + k1 * k1 + k2 * k2 + k3 * k3


def lorentz_from_k(k, norm_tol: float = 1e-9, real_tol: float = 1e-9) -> np.ndarray:
    """Mueller matrix of the Lorentz transformation with spinor parameter k.

    The matrix is quadratic in (k, conj k):

        L[0,0]  = |k0|^2 + kvec.conj(kvec)
        L[0,j]  = 2*Im(k0*conj(kj)) + i*(kvec x conj(kvec))_j
        L[j,0]  = 2*Im(k0*conj(kj)) - i*(kvec x conj(kvec))_j
        L[i,j]  = (|k0|^2 - kvec.conj(kvec))*delta_ij + 2*Re(ki*conj(kj))
                  - eps_ijl * 2*Re(k0*conj(kl))

    k and -k give the same matrix.  The result preserves the Minkowski form
    (L^T g L = g), has determinant +1 and L[0,0] >= 1.  The entries are Python
    complex scalars from one ``k.tolist()``, asserted real; an imaginary residue
    above real_tol (or NaN) means the input was not a valid parameter.

    Raises NormViolation unless |k0^2 + kvec.kvec - 1| < norm_tol, and
    NonRealResult if the imaginary residue survives.
    """
    k = np.asarray(k, dtype=complex)
    if k.shape != (4,):
        raise ValueError(f"spinor parameter must have shape (4,), got {k.shape}")
    norm = spinor_norm(k)
    if abs(norm - 1.0) >= norm_tol:
        raise NormViolation(f"k0^2 + kvec.kvec = {norm!r}, expected 1")

    k0, k1, k2, k3 = k.tolist()
    c0, c1, c2, c3 = k0.conjugate(), k1.conjugate(), k2.conjugate(), k3.conjugate()
    a, b = k0 * c0, k1 * c1 + k2 * c2 + k3 * c3
    # 2*Im(k0*conj(kj)), i*(kvec x conj(kvec))_j, 2*Re(k0*conj(kl)), 2*Re(ki*conj(kj))
    s1, s2, s3 = 1j * (c0 * k1 - k0 * c1), 1j * (c0 * k2 - k0 * c2), 1j * (c0 * k3 - k0 * c3)
    x1, x2, x3 = 1j * (k2 * c3 - k3 * c2), 1j * (k3 * c1 - k1 * c3), 1j * (k1 * c2 - k2 * c1)
    w1, w2, w3 = k0 * c1 + c0 * k1, k0 * c2 + c0 * k2, k0 * c3 + c0 * k3
    r12, r13, r23 = k1 * c2 + c1 * k2, k1 * c3 + c1 * k3, k2 * c3 + c2 * k3
    out = (
        a + b, s1 + x1, s2 + x2, s3 + x3,
        s1 - x1, a - b + k1 * c1 + c1 * k1, r12 - w3, r13 + w2,
        s2 - x2, r12 + w3, a - b + k2 * c2 + c2 * k2, r23 - w1,
        s3 - x3, r13 - w2, r23 + w1, a - b + k3 * c3 + c3 * k3,
    )
    # a NaN anywhere in k reaches L[0,0], and max() keeps a NaN that comes first
    imag_max = max([abs(z.imag) for z in out])
    if not imag_max <= real_tol:
        raise NonRealResult(
            f"matrix has imaginary residue {imag_max:.3e} (tolerance {real_tol:.1e})"
        )
    return np.array([z.real for z in out]).reshape(4, 4)


def k_from_q(q) -> np.ndarray:
    """Normalized spinor parameter with non-negative Re(k0) from q.

    Inverts i*q = kvec/k0 under the normalization k0^2 + kvec.kvec = 1,
    which pins k0 = 1/sqrt(1 - q.q).  Raises SingularParameter when the
    normalization denominator 1 - q.q vanishes.
    """
    q = np.asarray(q, dtype=complex)
    if q.shape != (3,):
        raise ValueError(f"vector parameter must have shape (3,), got {q.shape}")
    denom = 1.0 - np.dot(q, q)
    if abs(denom) < 1e-12:
        raise SingularParameter(f"1 - q.q = {denom!r} is singular")
    k0 = 1.0 / np.sqrt(denom)  # principal branch: Re(k0) >= 0
    k = np.concatenate(([k0], 1j * q * k0))
    return canonical_spinor_sign(k)


def q_from_k(k) -> np.ndarray:
    """Vector parameter q = kvec/(i*k0); inverse of k_from_q away from k0 = 0."""
    k = np.asarray(k, dtype=complex)
    if abs(k[0]) < 1e-14:
        raise SingularParameter("k0 = 0 has no finite vector parameter")
    return -1j * k[1:] / k[0]


def canonical_spinor_sign(k) -> np.ndarray:
    """Resolve the +-k ambiguity deterministically.

    Keeps the sign making Re(k0) > 0; on a tie, the first nonzero entry of
    (Im k0, Re k1, Im k1, Re k2, Im k2, Re k3, Im k3) is made positive.
    """
    k = np.asarray(k, dtype=complex)
    for z in k.tolist():
        for x in (z.real, z.imag):
            if x > 0.0:
                return k
            if x < 0.0:
                return -k
    return k


def _det4(m) -> float:
    """Determinant of a 4x4 nested list, by 2x2 minors of the top and bottom rows."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    s0, s1, s2 = a00 * a11 - a10 * a01, a00 * a12 - a10 * a02, a00 * a13 - a10 * a03
    s3, s4, s5 = a01 * a12 - a11 * a02, a01 * a13 - a11 * a03, a02 * a13 - a12 * a03
    c5, c4, c3 = a22 * a33 - a32 * a23, a21 * a33 - a31 * a23, a21 * a32 - a31 * a22
    c2, c1, c0 = a20 * a33 - a30 * a23, a20 * a32 - a30 * a22, a20 * a31 - a30 * a21
    return s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0


def is_lorentzian(m, tol: float = 1e-9) -> MuellerClass:
    """Classify a Mueller matrix by how it treats the Minkowski form.

    LORENTZ when ||M^T g M - g||_max < tol * ||M||_max^2 together with
    det M > 0 and M[0,0] > 0; ROTATION when additionally the first row and
    column equal (1, 0, 0, 0) within tol; NOT_LORENTZIAN otherwise, also for
    NaN.  All on Python floats from one ``m.tolist()``, det M in 2x2 minors.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    rows = as_mueller(m).tolist()
    flat = rows[0] + rows[1] + rows[2] + rows[3]
    scale = max(map(abs, flat))
    if scale == 0.0:
        return MuellerClass.NOT_LORENTZIAN
    c0, c1, c2, c3 = zip(*rows)
    # (M^T g M - g)[i, j] for j >= i; the matrix is symmetric
    metric_dev = max([
        abs(a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3] - g)
        for a, b, g in ((c0, c0, 1.0), (c1, c1, -1.0), (c2, c2, -1.0), (c3, c3, -1.0),
                        (c0, c1, 0.0), (c0, c2, 0.0), (c0, c3, 0.0),
                        (c1, c2, 0.0), (c1, c3, 0.0), (c2, c3, 0.0))
    ])
    if not (metric_dev < tol * scale * scale and _det4(rows) > 0.0 and flat[0] > 0.0):
        return MuellerClass.NOT_LORENTZIAN
    edge = max(abs(flat[0] - 1.0), *map(abs, flat[1:4]), *map(abs, c0[1:]))
    if edge < tol * max(1.0, scale):
        return MuellerClass.ROTATION
    return MuellerClass.LORENTZ

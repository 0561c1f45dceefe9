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

Each construction has a kernel on Python floats and complex numbers (the
underscored functions, which the CLI calls), and a public wrapper that reads
its input through _numbers, without numpy, and returns the ndarray that _array
builds, the one place numpy is imported.
The rebuild from k builds no complex number: its kernel works on the real and
imaginary parts of k, since the matrix is real.  The results can differ from a
numpy evaluation of the same formulas by a few eps times the largest term, as
plain Python arithmetic rounds them.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator

from .errors import NonRealResult, NormViolation, NotLorentzType, NotRotationType, SingularParameter


class MuellerClass(enum.Enum):
    """Classification of a Mueller matrix."""

    LORENTZ = "lorentz"
    ROTATION = "rotation"
    NOT_LORENTZIAN = "not-lorentzian"


def _check_tolerance(tol: float) -> float:
    if not 0.0 < tol < math.inf:  # NaN included
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    return tol


def _norm2(n) -> float:
    """n.n of four numbers, without conjugation."""
    n0, n1, n2, n3 = n
    return n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3


def _max_deviation(a, b) -> float:
    """max |a[4*i + j] - b[i][j]| over a 4x4 matrix given as its 16 entries, row by row, and
    one given as four lists of floats."""
    return max(map(abs, map(operator.sub, a, b[0] + b[1] + b[2] + b[3])))


def _number(e, what: str, kind: type = float):
    """One entry as a float (kind float) or complex number (kind complex) by float(), which keeps signed zeros;
    TypeError naming what for a string (float() reads it), a complex value where reals belong (also in a numpy
    scalar or 0-d array) or None and any other non-number.  An int past the float range reads as +-inf."""
    if type(e) is not float and type(e) is not int:
        e = e.tolist() if hasattr(e, "tolist") else e  # a numpy scalar or 0-d array as a Python number
        import numbers  # not on the CLI's path, whose JSON numbers are all floats
        if isinstance(e, numbers.Complex) and not isinstance(e, numbers.Real):
            if kind is complex:
                return complex(e)
            raise TypeError(f"{what} entries must be real numbers, not complex")
        if isinstance(e, (str, bytes, bytearray)):
            raise TypeError(f"{what} entries must be numbers, not strings")
    try:
        x = float(e)
    except OverflowError:
        x = math.inf if e > 0 else -math.inf
    except TypeError:  # float()'s own message names neither the input nor the rule
        raise TypeError(f"{what} entries must be numbers, not {type(e).__name__}") from None
    return x if kind is float else complex(x)


def _shape(x) -> tuple:
    """numpy's shape of nested lists and tuples, and of the ndarrays among them, as far down as they are regular."""
    if not isinstance(x, (list, tuple)):
        return tuple(getattr(x, "shape", ()))
    inner = {_shape(e) for e in x}
    return (len(x), *inner.pop()) if len(inner) == 1 else (len(x),)


def _numbers(x, shape: tuple, what: str, kind: type = float):
    """x as a tuple of n floats (kind float) or complex numbers (kind complex) for shape (n,), or a list of m
    rows of them for shape (m, n), by _number's rules; ValueError unless x has that shape.  An ndarray or numpy
    scalar is read through one tolist(), which gives Python floats (complex numbers) for float64 (complex128)."""
    if not isinstance(x, (list, tuple)) and hasattr(x, "tolist"):
        if getattr(x, "dtype", None) == ("float64" if kind is float else "complex128") and x.shape == shape:
            return tuple(x.tolist()) if len(shape) == 1 else x.tolist()  # Python floats (complex numbers) already
        x = x.tolist()
    if len(shape) == 1 and isinstance(x, (list, tuple)) and len(x) == shape[0]:
        for e in x:
            if type(e) is not kind:
                break
        else:
            return tuple(x)  # a list of Python floats (complex numbers) as it is
    got = _shape(x)
    if got == shape:  # entries through _number, rows through _numbers
        return tuple([_number(e, what, kind) for e in x]) if len(shape) == 1 else [
            _numbers(row, shape[1:], what, kind) for row in x]
    if not got:  # a scalar that is no number gets its TypeError, as from numpy, not the shape error
        _number(x, what, kind)
    raise ValueError(f"{what} must have shape {shape}, got {got}")


def _array(x):
    """The ndarray of a kernel's float or complex result."""
    import numpy as np
    return np.array(x)


def _array_view(field: str, index: int) -> property:
    """A read-only ndarray property built on access from getattr(self, field)[index]."""
    return property(lambda self: _array(getattr(self, field)[index]))


class _Value:
    """Base of the immutable result and input types.

    A subclass names its fields in ``_fields`` and sets them in its own
    ``__init__`` with ``object.__setattr__``.  Equality (within one class),
    hash and repr go by those fields as a frozen dataclass's do, and
    assigning or deleting any attribute raises AttributeError.
    """

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _rotation_rows(n, norm_tol: float = 1e-9) -> list:
    n0, n1, n2, n3 = n
    norm2 = _norm2(n)
    if not abs(norm2 - 1.0) < norm_tol:  # NaN included
        raise NormViolation(f"quaternion norm^2 = {norm2!r}, expected 1")
    return [
        [1 - 2 * (n2 * n2 + n3 * n3), -2 * n0 * n3 + 2 * n1 * n2, 2 * n0 * n2 + 2 * n1 * n3],
        [2 * n0 * n3 + 2 * n1 * n2, 1 - 2 * (n3 * n3 + n1 * n1), -2 * n0 * n1 + 2 * n2 * n3],
        [-2 * n0 * n2 + 2 * n1 * n3, 2 * n0 * n1 + 2 * n2 * n3, 1 - 2 * (n1 * n1 + n2 * n2)],
    ]


def quaternion_to_rotation(n, norm_tol: float = 1e-9):
    """Rotation matrix of a unit quaternion (n0, n1, n2, n3).

    Parameters
    ----------
    n : array-like, shape (4,)
        Unit quaternion; (n0, e*sin(t/2)) with n0 = cos(t/2) rotates by the
        angle t about the unit axis e.  n and -n give the same matrix.
    norm_tol : float
        Allowed deviation of n.n from 1 before NormViolation is raised;
        ValueError unless it is finite and positive.

    Returns
    -------
    numpy.ndarray, shape (3, 3)
        Proper rotation matrix (orthogonal, determinant +1).
    """
    _check_tolerance(norm_tol)  # before n is read, so a bad norm_tol is the error reported
    return _array(_rotation_rows(_numbers(n, (4,), "quaternion"), norm_tol))


def _embed(r) -> list:
    return [[1.0, 0.0, 0.0, 0.0], *([0.0, *row] for row in r)]


def embed_rotation(r):
    """Mueller matrix of a pure polarization rotation (3x3 block)."""
    return _array(_embed(_numbers(r, (3, 3), "rotation block")))


def _rotation_element(axis: int, theta: float) -> list:
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    n = [0.0, 0.0, 0.0, 0.0]
    try:
        n[0], n[axis] = math.cos(theta / 2.0), math.sin(theta / 2.0)
    except ValueError:  # theta = +-inf, where numpy's cos and sin give nan
        n[0] = n[axis] = math.nan
    return _embed(_rotation_rows(n))


def rotation_mueller(axis: int, theta: float):
    """Mueller matrix rotating the polarization by theta about a Stokes axis."""
    return _array(_rotation_element(axis, theta))


def _boost_element(axis: int, beta: float) -> list:
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    try:
        ch, sh = math.cosh(beta), math.sinh(beta)
    except OverflowError:  # |beta| past about 710, where numpy's cosh/sinh give inf
        ch, sh = math.inf, math.copysign(math.inf, beta)
    m = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    m[0][0] = m[axis][axis] = ch
    m[0][axis] = m[axis][0] = sh
    return m


def boost_mueller(axis: int, beta: float):
    """Boost-type Mueller matrix of rapidity beta along a Stokes axis.

    Mixes intensity with the chosen polarization component through
    cosh(beta) / sinh(beta), leaving the transverse components alone.
    math.cosh and math.sinh may differ from numpy's by an ulp or two.
    """
    return _array(_boost_element(axis, beta))


def spinor_norm(k) -> complex:
    """Bilinear invariant k0^2 + kvec.kvec; equals 1 for normalized k."""
    return _norm2(_numbers(k, (4,), "spinor parameter", complex))


def _lorentz_entries(k) -> list:
    """The 16 entries of lorentz_from_k(k), row by row, as floats."""
    k0, k1, k2, k3 = k
    norm = k0 * k0 + k1 * k1 + k2 * k2 + k3 * k3
    if abs(norm - 1.0) >= 1e-9:
        raise NormViolation(f"k0^2 + kvec.kvec = {norm!r}, expected 1")
    # Each entry is the real part of a complex expression in k and c = conj(k), rounded as complex
    # arithmetic rounds it, so signed zeros come out as they would: with kj = xj + i*yj,
    # Re(ci*kj) = Re(ki*cj) = pij and Re(ki*ci) = sqi.  The imaginary parts are exactly zero for
    # every finite k, as L is the (real) SL(2,C) image of k.
    x0, y0, x1, y1, x2, y2, x3, y3 = k0.real, k0.imag, k1.real, k1.imag, k2.real, k2.imag, k3.real, k3.imag
    sq0, sq1, sq2, sq3 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
    p01, p02, p03 = x0 * x1 + y0 * y1, x0 * x2 + y0 * y2, x0 * x3 + y0 * y3
    p12, p13, p23 = x1 * x2 + y1 * y2, x1 * x3 + y1 * y3, x2 * x3 + y2 * y3
    b = sq1 + sq2 + sq3
    # 2*Im(k0*conj(kj)), i*(kvec x conj(kvec))_j, 2*Re(k0*conj(kl)), 2*Re(ki*conj(kj))
    # (s is kept off -0.0, so the sign of a zero v never reaches an entry s +- v)
    s1, s2, s3 = 0.0 - 2.0 * (x0 * y1 - x1 * y0), 0.0 - 2.0 * (x0 * y2 - x2 * y0), 0.0 - 2.0 * (x0 * y3 - x3 * y0)
    v1, v2, v3 = -2.0 * (x3 * y2 - x2 * y3), -2.0 * (x1 * y3 - x3 * y1), -2.0 * (x2 * y1 - x1 * y2)
    w1, w2, w3 = p01 + p01, p02 + p02, p03 + p03
    r12, r13, r23 = p12 + p12, p13 + p13, p23 + p23
    d = sq0 - b
    out = [
        sq0 + b, s1 + v1, s2 + v2, s3 + v3,
        s1 - v1, d + sq1 + sq1, r12 - w3, r13 + w2,
        s2 - v2, r12 + w3, d + sq2 + sq2, r23 - w1,
        s3 - v3, r13 - w2, r23 + w1, d + sq3 + sq3,
    ]
    # A NaN or inf in k reaches L[0,0] = sum |kj|^2, and no entry or intermediate exceeds 2*L[0,0]
    # in size, so only a huge or non-finite L[0,0] can come with a non-finite entry
    if not out[0] < 1e300 and not all(map(math.isfinite, out)):
        raise NonRealResult(f"rebuild from k has a non-finite entry, L[0,0] = {out[0]!r}")
    return out


def lorentz_from_k(k):
    """Mueller matrix of the Lorentz transformation with spinor parameter k.

    The matrix is quadratic in (k, conj k):

        L[0,0]  = |k0|^2 + kvec.conj(kvec)
        L[0,j]  = 2*Im(k0*conj(kj)) + i*(kvec x conj(kvec))_j
        L[j,0]  = 2*Im(k0*conj(kj)) - i*(kvec x conj(kvec))_j
        L[i,j]  = (|k0|^2 - kvec.conj(kvec))*delta_ij + 2*Re(ki*conj(kj))
                  - eps_ijl * 2*Re(k0*conj(kl))

    k and -k give the same matrix.  The result preserves the Minkowski form
    (L^T g L = g), has determinant +1 and L[0,0] >= 1.  Every entry is real
    for every finite k (L is the SL(2,C) image of k), so each is computed as
    the real part alone, on the real and imaginary parts of k, with the float
    operations that complex arithmetic would take.

    Raises NormViolation unless |k0^2 + kvec.kvec - 1| < 1e-9, and
    NonRealResult when an entry is not finite: k has a NaN or infinite part
    that leaves its norm NaN, which the norm check lets through, or k is so
    large that the products overflow.
    """
    return _array(_lorentz_entries(_numbers(k, (4,), "spinor parameter", complex))).reshape(4, 4)


def _k_from_q(q) -> list:
    q0, q1, q2 = q
    denom = 1.0 - (q0 * q0 + q1 * q1 + q2 * q2)  # q.q without conjugation
    if abs(denom) < 1e-12:
        raise SingularParameter(f"1 - q.q = {denom!r} is singular")
    k0 = 1.0 / cmath.sqrt(denom)  # principal branch: Re(k0) >= 0
    return _canonical([k0] + [1j * z * k0 for z in q])


def k_from_q(q):
    """Normalized spinor parameter with non-negative Re(k0) from q.

    Inverts i*q = kvec/k0 under the normalization k0^2 + kvec.kvec = 1,
    which pins k0 = 1/sqrt(1 - q.q).  Raises SingularParameter when the
    normalization denominator 1 - q.q vanishes.
    """
    return _array(_k_from_q(_numbers(q, (3,), "vector parameter", complex)))


def _canonical(k: list) -> list:
    for z in k:
        for x in (z.real, z.imag):
            if x > 0.0:
                return k
            if x < 0.0:
                return [-z for z in k]
    return k


def canonical_spinor_sign(k):
    """Resolve the +-k ambiguity deterministically.

    Keeps the sign making Re(k0) > 0; on a tie, the first nonzero entry of
    (Im k0, Re k1, Im k1, Re k2, Im k2, Re k3, Im k3) is made positive.
    """
    return _array(_canonical(_numbers(k, (4,), "spinor parameter", complex)))


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
    NaN.  All on Python floats, det M in 2x2 minors; no input goes through numpy.
    """
    _check_tolerance(tol)  # before the matrix is read, so a bad tol is the error reported
    return _classify(_numbers(m, (4, 4), "Mueller matrix"), tol)


def _classify(rows: list, tol: float) -> MuellerClass:
    """is_lorentzian on the rows of a 4x4 matrix: four lists, or four tuples, of four floats.

    tol is not checked here: its callers, is_lorentzian and the CLI's --tol, have checked it.
    """
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = rows
    scale = max(abs(m00), abs(m01), abs(m02), abs(m03), abs(m10), abs(m11), abs(m12), abs(m13),
                abs(m20), abs(m21), abs(m22), abs(m23), abs(m30), abs(m31), abs(m32), abs(m33))
    if scale == 0.0:
        return MuellerClass.NOT_LORENTZIAN
    # |(M^T g M - g)[i, j]| for j >= i, the diagonal first; the matrix is symmetric
    metric_dev = max(
        abs(m00 * m00 - m10 * m10 - m20 * m20 - m30 * m30 - 1.0),
        abs(m01 * m01 - m11 * m11 - m21 * m21 - m31 * m31 + 1.0),
        abs(m02 * m02 - m12 * m12 - m22 * m22 - m32 * m32 + 1.0),
        abs(m03 * m03 - m13 * m13 - m23 * m23 - m33 * m33 + 1.0),
        abs(m00 * m01 - m10 * m11 - m20 * m21 - m30 * m31),
        abs(m00 * m02 - m10 * m12 - m20 * m22 - m30 * m32),
        abs(m00 * m03 - m10 * m13 - m20 * m23 - m30 * m33),
        abs(m01 * m02 - m11 * m12 - m21 * m22 - m31 * m32),
        abs(m01 * m03 - m11 * m13 - m21 * m23 - m31 * m33),
        abs(m02 * m03 - m12 * m13 - m22 * m23 - m32 * m33),
    )
    if not (metric_dev < tol * scale * scale and _det4(rows) > 0.0 and m00 > 0.0):
        return MuellerClass.NOT_LORENTZIAN
    edge = max(abs(m00 - 1.0), abs(m01), abs(m02), abs(m03), abs(m10), abs(m20), abs(m30))
    if edge < tol * max(1.0, scale):
        return MuellerClass.ROTATION
    return MuellerClass.LORENTZ


def _require(classification: MuellerClass, model: str, tol: float) -> None:
    """recover's one Lorentz-type gate: model "lorentz" admits lorentz and rotation, model "rotation" rotation."""
    if classification is not MuellerClass.ROTATION and (classification, model) != (MuellerClass.LORENTZ, "lorentz"):
        raise (NotLorentzType if model == "lorentz" else NotRotationType)(
            f"measurements classify as {classification.value} at tol {tol:g}, not {model}")

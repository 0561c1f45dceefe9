"""Rotation branch: recover the unit quaternion of a rotation-type element.

For rotation-type elements the natural probe passes through unchanged and
the three polarized probes keep their full intensity, so the 3x3 block is
read off directly; the quaternion follows from its trace and antisymmetric
part.
"""

from __future__ import annotations

import math

from .algebra import _array, _check_tolerance, _numbers
from .errors import NearPiRotation, NotRotation, NotRotationType
from .probes import MeasurementSet


def _rotation_block(ms: MeasurementSet, tol: float) -> list:
    i = ms.intensity
    (f0, f1, f2, f3), (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = ms.stokes
    dev = max(abs(f0 - i), abs(f1), abs(f2), abs(f3), abs(a0 - i), abs(b0 - i), abs(c0 - i))
    if dev > tol * i:
        raise NotRotationType(
            f"measurements deviate from rotation form by {dev / i:.3e} relative"
        )
    return [[a1 / i, b1 / i, c1 / i], [a2 / i, b2 / i, c2 / i], [a3 / i, b3 / i, c3 / i]]


def rotation_from_measurements(ms: MeasurementSet, tol: float = 1e-9):
    """3x3 rotation block of a rotation-type element, columns = output triad.

    Raises NotRotationType when the natural probe acquires polarization or
    any probe intensity changes by more than tol relative to I, which
    signals boost content, and ValueError unless tol is finite and positive.
    """
    return _array(_rotation_block(ms, _check_tolerance(tol)))


def _quaternion(rows: list, ortho_tol: float = 1e-6) -> list:
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    # |(R^T R - 1)[i, j]| for j >= i, the diagonal first, and det R along the first row
    ortho_dev = max(
        abs(r00 * r00 + r10 * r10 + r20 * r20 - 1.0), abs(r01 * r01 + r11 * r11 + r21 * r21 - 1.0),
        abs(r02 * r02 + r12 * r12 + r22 * r22 - 1.0), abs(r00 * r01 + r10 * r11 + r20 * r21),
        abs(r00 * r02 + r10 * r12 + r20 * r22), abs(r01 * r02 + r11 * r12 + r21 * r22))
    det = r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20) + r02 * (r10 * r21 - r11 * r20)
    if not (ortho_dev <= ortho_tol and abs(det - 1.0) <= ortho_tol):
        raise NotRotation(
            f"not a proper rotation: |R^T R - 1| = {ortho_dev:.3e}, det = {det:.6f}"
        )
    trace1 = r00 + r11 + r22 + 1.0
    if trace1 <= 1e-8:
        raise NearPiRotation(
            f"trace + 1 = {trace1:.3e}: extraction singular near pi rotations"
        )
    s = math.sqrt(trace1)
    return [s / 2.0, (r21 - r12) / (2.0 * s), (r02 - r20) / (2.0 * s), (r10 - r01) / (2.0 * s)]


def recover_quaternion(r, ortho_tol: float = 1e-6):
    """Unit quaternion (n0 >= 0) of a proper rotation matrix.

    The NotRotation gate is the seven conditions for an orthonormal
    right-handed output triad, applied to the columns p1, p2, p3 of r, which
    are the triad that rotation_from_measurements returns: three unit norms
    (p_i . p_i = 1), three orthogonalities (p_i . p_j = 0) and the handedness
    p1 . (p2 x p3) = det r = +1, each within ortho_tol.

    n0 comes from the trace, the axis part from the antisymmetric part:

        2*n0 = sqrt(trace + 1)
        n    = (r[2,1]-r[1,2], r[0,2]-r[2,0], r[1,0]-r[0,1]) / (2*sqrt(trace+1))

    Raises ValueError unless ortho_tol is finite and positive, NotRotation
    when a triad condition fails, and NearPiRotation when trace + 1 <= 1e-8,
    where this extraction divides by zero (rotations by pi).
    """
    return _array(_quaternion(_numbers(r, (3, 3), "rotation matrix"), _check_tolerance(ortho_tol)))


def rotation_identity_sum(r) -> float:
    """Closed-form consistency check of the extraction; equals 4 for rotations.

    (trace+1) plus the squared antisymmetric differences over (trace+1) is
    exactly four times the quaternion norm, hence 4.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = _numbers(r, (3, 3), "rotation matrix")
    trace1 = r00 + r11 + r22 + 1.0
    return trace1 + ((r21 - r12) ** 2 + (r02 - r20) ** 2 + (r10 - r01) ** 2) / trace1

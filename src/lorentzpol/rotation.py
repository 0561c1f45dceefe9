"""Rotation branch: recover the unit quaternion of a rotation-type element.

For rotation-type elements the natural probe passes through unchanged and
the three polarized probes keep their full intensity, so the 3x3 block is
read off directly; the quaternion follows from its trace and antisymmetric
part.  Whether a set, or a 3x3 matrix R as diag(1, R), is rotation-type is
is_lorentzian's decision alone.
"""

from __future__ import annotations

import math

from .algebra import MuellerClass, _array, _check_tolerance, _classify, _embed, _numbers, _require
from .errors import NearPiRotation, NotRotationType
from .probes import MeasurementSet, _mueller_rows


def _rotation_block(ms: MeasurementSet) -> list:
    i = ms.intensity
    _, (_, a1, a2, a3), (_, b1, b2, b3), (_, c1, c2, c3) = ms.stokes
    return [[a1 / i, b1 / i, c1 / i], [a2 / i, b2 / i, c2 / i], [a3 / i, b3 / i, c3 / i]]


def rotation_from_measurements(ms: MeasurementSet, tol: float = 1e-9):
    """3x3 rotation block of a rotation-type element, columns = output triad A/I, B/I, C/I.

    Raises NotRotationType unless is_lorentzian(reconstruct_mueller(ms), tol)
    is ROTATION, the gate `recover --model auto` and `--model rotation` apply
    too, and ValueError unless tol is finite and positive.
    """
    tol = _check_tolerance(tol)
    _require(_classify(_mueller_rows(ms), tol), "rotation", tol)
    return _array(_rotation_block(ms))


def _quaternion(rows: list) -> list:
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    trace1 = r00 + r11 + r22 + 1.0
    if trace1 <= 1e-8:
        raise NearPiRotation(f"trace + 1 = {trace1:.3e}: extraction singular near pi rotations")
    s = math.sqrt(trace1)
    return [s / 2.0, (r21 - r12) / (2.0 * s), (r02 - r20) / (2.0 * s), (r10 - r01) / (2.0 * s)]


def recover_quaternion(r):
    """Unit quaternion (n0 >= 0) of a proper rotation matrix.

    r is a rotation exactly when is_lorentzian(embed_rotation(r), 1e-6) is
    ROTATION: its columns orthonormal within 1e-6 * max(1, max|r|)^2
    (strictly) and det r > 0.  n0 comes from the trace, the axis part from
    the antisymmetric part:

        2*n0 = sqrt(trace + 1)
        n    = (r[2,1]-r[1,2], r[0,2]-r[2,0], r[1,0]-r[0,1]) / (2*sqrt(trace+1))

    Raises NotRotationType for any other r, NaN included, and NearPiRotation
    when trace + 1 <= 1e-8, where this extraction divides by zero (rotations
    within about 1e-4 rad of pi).
    """
    rows = _numbers(r, (3, 3), "rotation matrix")
    if _classify(_embed(rows), 1e-6) is not MuellerClass.ROTATION:
        raise NotRotationType(f"not a proper rotation: {[list(row) for row in rows]} at tol 1e-06")
    return _array(_quaternion(rows))


def rotation_identity_sum(r) -> float:
    """Closed-form consistency check of the extraction; equals 4 for rotations.

    (trace+1) plus the squared antisymmetric differences over (trace+1) is
    exactly four times the quaternion norm, hence 4.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = _numbers(r, (3, 3), "rotation matrix")
    trace1 = r00 + r11 + r22 + 1.0
    return trace1 + ((r21 - r12) ** 2 + (r02 - r20) ** 2 + (r10 - r01) ** 2) / trace1

"""Rotation branch: recover the unit quaternion of a rotation-type element.

For rotation-type elements the natural probe passes through unchanged and
the three polarized probes keep their full intensity, so the 3x3 block is
read off directly; the quaternion follows from its trace and antisymmetric
part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import _array, _check_tolerance, _checked
from .errors import NearPiRotation, NotRotation, NotRotationType
from .probes import MeasurementSet


@dataclass(frozen=True)
class PolarizationTriad:
    """Output polarization vectors of the three polarized probes."""

    p1: "numpy.ndarray"
    p2: "numpy.ndarray"
    p3: "numpy.ndarray"


@dataclass(frozen=True)
class TriadCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class TriadReport:
    checks: tuple[TriadCheck, ...]
    all_passed: bool


def triad_from_measurements(ms: MeasurementSet) -> PolarizationTriad:
    i = ms.intensity
    return PolarizationTriad(ms.a[1:] / i, ms.b[1:] / i, ms.c[1:] / i)


def validate_triad(triad: PolarizationTriad, tol: float) -> TriadReport:
    """Check the seven conditions for an orthonormal right-handed triad.

    Three unit norms, three orthogonalities and one handedness condition
    (triple product +1); each is reported with its residual and a pass/fail
    flag at the given tolerance.
    """
    import numpy as np
    _check_tolerance(tol)
    p = (triad.p1, triad.p2, triad.p3)
    checks = []
    for idx, vec in enumerate(p, start=1):
        checks.append((f"norm_p{idx}", abs(float(np.linalg.norm(vec)) - 1.0)))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        checks.append((f"ortho_p{i}_p{j}", abs(float(p[i - 1] @ p[j - 1]))))
    triple = float(p[0] @ np.cross(p[1], p[2]))
    checks.append(("handedness", abs(triple - 1.0)))
    results = tuple(TriadCheck(name, res, res <= tol) for name, res in checks)
    return TriadReport(results, all(c.passed for c in results))


def _rotation_block(ms: MeasurementSet, tol: float) -> list:
    _check_tolerance(tol)
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
    signals boost content.
    """
    return _array(_rotation_block(ms, tol))


def _quaternion(rows: list, ortho_tol: float = 1e-6, trace_eps: float = 1e-8) -> list:
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    c0, c1, c2 = zip(*rows)
    # (R^T R - 1)[i, j] for j >= i, and det R along the first row, on Python floats
    ortho_dev = max([abs(a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - g) for a, b, g in (
        (c0, c0, 1.0), (c1, c1, 1.0), (c2, c2, 1.0), (c0, c1, 0.0), (c0, c2, 0.0), (c1, c2, 0.0))])
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


def recover_quaternion(r, ortho_tol: float = 1e-6, trace_eps: float = 1e-8):
    """Unit quaternion (n0 >= 0) of a proper rotation matrix.

    n0 comes from the trace, the axis part from the antisymmetric part:

        2*n0 = sqrt(trace + 1)
        n    = (r[2,1]-r[1,2], r[0,2]-r[2,0], r[1,0]-r[0,1]) / (2*sqrt(trace+1))

    Raises NotRotation if r is not orthogonal with determinant +1 within
    ortho_tol, and NearPiRotation when trace + 1 <= trace_eps, where this
    extraction divides by zero (rotations by pi).
    """
    return _array(_quaternion(_checked(r, float, (3, 3), "rotation matrix").tolist(), ortho_tol, trace_eps))


def rotation_identity_sum(r) -> float:
    """Closed-form consistency check of the extraction; equals 4 for rotations.

    (trace+1) plus the squared antisymmetric differences over (trace+1) is
    exactly four times the quaternion norm, hence 4.
    """
    import numpy as np
    r = np.asarray(r, dtype=float)
    trace1 = float(np.trace(r)) + 1.0
    return trace1 + (
        (r[2, 1] - r[1, 2]) ** 2
        + (r[0, 2] - r[2, 0]) ** 2
        + (r[1, 0] - r[0, 1]) ** 2
    ) / trace1

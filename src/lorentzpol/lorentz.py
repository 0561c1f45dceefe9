"""General branch: recover the spinor and vector parameters of a
Lorentz-type element from its reconstructed Mueller matrix r.

The trace r00 + r11 + r22 + r33 of the reconstructed matrix fixes the modulus
delta of the leading parameter component (trace = 4*delta^2).  The antisymmetric part of
Lambda, the same matrix with rows 1-3 negated, has the rigid layout

    2*delta * | 0    -M1   -M2   -M3 |
              | M1    0     N3   -N2 |
              | M2   -N3    0     N1 |
              | M3    N2   -N1    0  |

which yields two real 3-vectors: M carries the boost content, N the
rotation content.  The normalized spinor parameter is then

    k = +- (delta, N + i*M) / sqrt(delta^2 + (N + i*M).(N + i*M))

and the vector parameter q = (M - i*N)/delta follows without the sign
ambiguity.  delta = 0 (trace-free elements, e.g. pi rotations composed
with boosts) is a hard singularity of the method.

Recovery is a single pass over the rows of the reconstructed matrix, the rows that
probes._mueller_rows builds from the outputs: with r_jk its entries, the antisymmetric
part gives M_j = -(r_j0 + r_0j) / (4*delta) and N = (r32 - r23, r13 - r31, r21 - r12) / (4*delta),
and q = (m - i*n) / trace from the same numerators m and n.  Only probes.py knows the
probe layout.  delta, M, N, k and q come out as Python float and complex scalars, arrays
are built only when a caller reads them, and Lambda is never built.  The kernels
_read, _extract, _recover and _round_trip take the rows, which the CLI computes once per
set; the public functions reconstruct them and wrap the kernels' results.  tests/test_kernels.py
checks the kernels against the formulas in exact arithmetic, at the error bounds README states.
"""

from __future__ import annotations

import cmath
import math

from .algebra import _Value, _array, _array_view, _canonical, _lorentz_entries, _max_deviation
from .errors import DegenerateTrace, LorentzpolError, SingularNormalization
from .probes import LorentzResiduals, MeasurementSet, _mueller_rows, lorentz_residuals


class RecoveryResult(_Value):
    """Full parameter set recovered from one measurement set.

    ``vectors`` holds M, N, k and q as lists of Python floats and complex
    numbers; mvec, nvec, k and q are their arrays.
    """

    _fields = ("delta", "vectors", "round_trip_max_dev", "residuals")
    mvec, nvec, k, q = (_array_view("vectors", i) for i in range(4))

    def __init__(self, delta: float, vectors: tuple, round_trip_max_dev: float, residuals: LorentzResiduals):
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "round_trip_max_dev", round_trip_max_dev)
        object.__setattr__(self, "residuals", residuals)


class RoundTripReport(_Value):
    """Outcome of reconstruct -> recover -> rebuild on one measurement set.

    ``passed`` is read from the fields: no error and a rebuild deviation below 1e-9
    (a report without a deviation has not passed).
    """

    _fields = ("max_deviation", "residuals", "error")
    passed = property(lambda self: self.error is None and self.max_deviation is not None
                      and self.max_deviation < 1e-9)

    def __init__(self, max_deviation: float | None, residuals: LorentzResiduals, error: str | None = None):
        object.__setattr__(self, "max_deviation", max_deviation)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "error", error)


def _read(rows: list) -> tuple[float, list, list]:
    """The trace of the reconstructed matrix and the numerators of M and N, read off its rows."""
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = rows
    trace = r00 + r11 + r22 + r33
    if 1e-10 < trace < 2e-15 * max(abs(r00), abs(r11), abs(r22), abs(r33)):  # cancelled to its rounding error
        trace = math.fsum((r00, r11, r22, r33))
    m = [0.0 - (r10 + r01), 0.0 - (r20 + r02), 0.0 - (r30 + r03)]  # 0.0 - keeps +0.0 where both entries vanish
    n = [r32 - r23, r13 - r31, r21 - r12]
    return trace, m, n


def _delta(trace: float) -> float:
    if trace <= 1e-10:
        raise DegenerateTrace(f"matrix trace {trace!r} is not positive; cannot extract delta")
    return math.sqrt(trace) / 2.0


def delta_from_trace(ms: MeasurementSet) -> float:
    """Modulus of the leading spinor component from the matrix trace.

    trace = r00 + r11 + r22 + r33 = 4*delta^2 on the reconstructed matrix, so
    delta = sqrt(trace) / 2 with the positive root.  Raises DegenerateTrace
    when trace <= 1e-10: the rest of the extraction divides by delta.
    """
    return _delta(_read(_mueller_rows(ms))[0])


def mn_from_antisymmetric(ms: MeasurementSet, delta: float) -> tuple:
    """Boost vector M and rotation vector N from the antisymmetric part."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    _, m, n = _read(_mueller_rows(ms))
    scale = 4.0 * delta
    return _array([x / scale for x in m]), _array([x / scale for x in n])


def _extract(rows: list) -> tuple[float, list, list, list]:
    """The single pass: (delta, M, N, q) from one read of the rows; M, N, q as lists."""
    trace, (m1, m2, m3), (n1, n2, n3) = _read(rows)
    delta = _delta(trace)
    scale = 4.0 * delta
    q = [complex(m1, 0.0 - n1) / trace, complex(m2, 0.0 - n2) / trace, complex(m3, 0.0 - n3) / trace]
    return delta, [m1 / scale, m2 / scale, m3 / scale], [n1 / scale, n2 / scale, n3 / scale], q


def _assemble_k(delta: float, mvec: list, nvec: list) -> list:
    (n1, n2, n3), (m1, m2, m3) = nvec, mvec
    v1, v2, v3 = complex(n1, m1), complex(n2, m2), complex(n3, m3)
    norm2 = delta ** 2 + (v1 * v1 + v2 * v2 + v3 * v3)
    if abs(norm2) < 1e-12:
        raise SingularNormalization(
            f"delta^2 + (N + iM).(N + iM) = {norm2!r} is singular"
        )
    root = cmath.sqrt(norm2)
    return _canonical([delta / root, v1 / root, v2 / root, v3 / root])


def recover_k(ms: MeasurementSet):
    """Normalized spinor parameter of the measured element, canonical sign."""
    delta, mvec, nvec, _ = _extract(_mueller_rows(ms))
    return _array(_assemble_k(delta, mvec, nvec))


def recover_q(ms: MeasurementSet):
    """Vector parameter q from the reconstructed matrix r.

    Componentwise, with trace = r00 + r11 + r22 + r33 throughout:

        q1 = [-(r10 + r01) - i*(r32 - r23)] / trace
        q2 = [-(r20 + r02) - i*(r13 - r31)] / trace
        q3 = [-(r30 + r03) - i*(r21 - r12)] / trace

    Equal to (M - i*N)/delta, and consistent with recover_k through
    i*q = kvec/k0.  Raises DegenerateTrace as delta_from_trace does; on
    q.q = 1, where k is singular, q is still finite and is returned.
    """
    return _array(_extract(_mueller_rows(ms))[3])


def _recover(rows: list) -> tuple:
    """(delta, M, N, k, q, deviation): the recovery from rows, the reconstructed matrix,
    and the max elementwise deviation of the matrix rebuilt from k from rows."""
    delta, mvec, nvec, q = _extract(rows)
    k = _assemble_k(delta, mvec, nvec)
    return delta, mvec, nvec, k, q, _max_deviation(_lorentz_entries(k), rows)


def recover_parameters(ms: MeasurementSet) -> RecoveryResult:
    """Run the whole chain and quantify the rebuild error.

    Recovers (delta, M, N, k, q) in one pass over the reconstructed matrix, rebuilds the
    matrix from k, and reports the max elementwise deviation from the
    directly reconstructed matrix together with the Minkowski residuals of
    the raw measurements.
    """
    delta, mvec, nvec, k, q, deviation = _recover(_mueller_rows(ms))
    return RecoveryResult(delta, (mvec, nvec, k, q), deviation, lorentz_residuals(ms))


def _round_trip(rows: list) -> tuple[float | None, str | None]:
    """(deviation, None) from _recover, or (None, "ErrorName: message") where it raises."""
    try:
        return _recover(rows)[5], None
    except LorentzpolError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def verify_round_trip(ms: MeasurementSet) -> RoundTripReport:
    """Round-trip check that never raises: recovery errors go in the report."""
    deviation, error = _round_trip(_mueller_rows(ms))
    return RoundTripReport(deviation, lorentz_residuals(ms), error)

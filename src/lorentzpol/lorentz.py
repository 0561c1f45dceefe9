"""General branch: recover the spinor and vector parameters of a
Lorentz-type element directly from the four-probe measurements.

The trace of the reconstructed Mueller matrix fixes the modulus delta of the
leading parameter component (trace = 4*delta^2).  The antisymmetric part of
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

Recovery is a single pass over the 16 outputs, which a measurement set keeps as
Python floats; delta, M, N, k and q come from it as Python float and complex
scalars, arrays are built only when a caller reads them, and Lambda is never built.
The kernels are straight-line code over unpacked local floats: each sum keeps the
operand order of the formulas above and each max its element order, so results
round as they always have (tests/test_kernels.py holds the earlier comprehension
forms as references).  The kernels _recover and _round_trip take the reconstructed
matrix as rows of floats, which the CLI computes once per set; recover_parameters
and verify_round_trip reconstruct it and wrap the kernels' results in result objects.
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

    def to_json_dict(self) -> dict:
        mvec, nvec, k, q = self.vectors
        return {
            "delta": self.delta,
            "M": mvec,
            "N": nvec,
            "k": {"re": [z.real for z in k], "im": [z.imag for z in k]},
            "q": {"re": [z.real for z in q], "im": [z.imag for z in q]},
            "round_trip_max_dev": self.round_trip_max_dev,
            "lorentz_residuals": self.residuals.values(),
        }


class RoundTripReport(_Value):
    """Outcome of reconstruct -> recover -> rebuild on one measurement set."""

    _fields = ("passed", "max_deviation", "tol", "residuals", "error")

    def __init__(self, passed: bool, max_deviation: float | None, tol: float, residuals: LorentzResiduals,
                 error: str | None = None):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "max_deviation", max_deviation)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "error", error)


def _read(ms: MeasurementSet) -> tuple[float, list, list, list]:
    """The 16 outputs read once as floats: the trace sum and the numerators
    of M, N and Im q (the last grouped as in recover_q's formula)."""
    (f0, f1, f2, f3), (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = ms.stokes
    trace_sum = f0 + (a1 - f1) + (b2 - f2) + (c3 - f3)
    m = [f0 - f1 - a0, f0 - f2 - b0, f0 - f3 - c0]
    n = [f2 - f3 - c2 + b3, f3 - f1 - a3 + c1, f1 - f2 - b1 + a2]
    q_im = [(f2 - f3) - (c2 - b3), (f3 - f1) - (a3 - c1), (f1 - f2) - (b1 - a2)]
    return trace_sum, m, n, q_im


def _delta(trace_sum: float, intensity: float) -> float:
    ratio = trace_sum / intensity
    if ratio <= 1e-10:
        raise DegenerateTrace(
            f"matrix trace {ratio!r} is not positive; cannot extract delta"
        )
    return math.sqrt(ratio) / 2.0


def delta_from_trace(ms: MeasurementSet) -> float:
    """Modulus of the leading spinor component from the matrix trace.

    trace = 4*delta^2, so delta = sqrt(trace_sum / I) / 2 with the positive
    root.  Raises DegenerateTrace when trace_sum / I <= 1e-10: the rest of
    the extraction divides by delta.
    """
    return _delta(_read(ms)[0], ms.intensity)


def mn_from_antisymmetric(ms: MeasurementSet, delta: float) -> tuple:
    """Boost vector M and rotation vector N from the antisymmetric part."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    _, m, n, _ = _read(ms)
    scale = 4.0 * ms.intensity * delta
    return _array([x / scale for x in m]), _array([x / scale for x in n])


def _extract(ms: MeasurementSet) -> tuple[float, float, list, list, list]:
    """The single pass: (trace_sum, delta, M, N, q) from one read; M, N, q as lists."""
    trace_sum, (m1, m2, m3), (n1, n2, n3), (p1, p2, p3) = _read(ms)
    delta = _delta(trace_sum, ms.intensity)
    scale = 4.0 * ms.intensity * delta
    # q = (m - i*q_im) / trace_sum
    q = [complex(m1, 0.0 - p1) / trace_sum, complex(m2, 0.0 - p2) / trace_sum, complex(m3, 0.0 - p3) / trace_sum]
    return trace_sum, delta, [m1 / scale, m2 / scale, m3 / scale], [n1 / scale, n2 / scale, n3 / scale], q


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
    _, delta, mvec, nvec, _ = _extract(ms)
    return _array(_assemble_k(delta, mvec, nvec))


def recover_q(ms: MeasurementSet):
    """Vector parameter q straight from the measured Stokes vectors.

    Componentwise (trace_sum in the denominator throughout):

        q1 = [(F0 - F1 - A0) - i*((F2 - F3) - (C2 - B3))] / trace_sum
        q2 = [(F0 - F2 - B0) - i*((F3 - F1) - (A3 - C1))] / trace_sum
        q3 = [(F0 - F3 - C0) - i*((F1 - F2) - (B1 - A2))] / trace_sum

    Equal to (M - i*N)/delta, and consistent with recover_k through
    i*q = kvec/k0.  Shares the degeneracy guards of recover_k.
    """
    _, delta, mvec, nvec, q = _extract(ms)
    _assemble_k(delta, mvec, nvec)  # parity with recover_k's singularity guard
    return _array(q)


def _recover(ms: MeasurementSet, rows: list) -> tuple:
    """(delta, M, N, k, q, deviation): the recovery, and the max elementwise
    deviation of the matrix rebuilt from k from rows, the reconstructed matrix."""
    _, delta, mvec, nvec, q = _extract(ms)
    k = _assemble_k(delta, mvec, nvec)
    return delta, mvec, nvec, k, q, _max_deviation(_lorentz_entries(k), rows)


def recover_parameters(ms: MeasurementSet) -> RecoveryResult:
    """Run the whole chain and quantify the rebuild error.

    Recovers (delta, M, N, k, q) in one pass over the outputs, rebuilds the
    matrix from k, and reports the max elementwise deviation from the
    directly reconstructed matrix together with the Minkowski residuals of
    the raw measurements.
    """
    delta, mvec, nvec, k, q, deviation = _recover(ms, _mueller_rows(ms))
    return RecoveryResult(delta, (mvec, nvec, k, q), deviation, lorentz_residuals(ms))


def _round_trip(ms: MeasurementSet, rows: list) -> tuple[float | None, str | None]:
    """(deviation, None) from _recover, or (None, "ErrorName: message") where it raises."""
    try:
        return _recover(ms, rows)[5], None
    except LorentzpolError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def verify_round_trip(ms: MeasurementSet, tol: float = 1e-9) -> RoundTripReport:
    """Round-trip check that never raises: recovery errors go in the report."""
    deviation, error = _round_trip(ms, _mueller_rows(ms))
    return RoundTripReport(
        passed=error is None and deviation < tol,
        max_deviation=deviation,
        tol=tol,
        residuals=lorentz_residuals(ms),
        error=error,
    )

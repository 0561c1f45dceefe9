"""General branch: recover the spinor and vector parameters of a
Lorentz-type element directly from the four-probe measurements.

The extraction works on the row-flipped matrix Lambda.  Its trace fixes the
modulus delta of the leading parameter component (trace = 4*delta^2); the
antisymmetric part of Lambda has the rigid layout

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

Recovery is a single pass over one ``.tolist()`` of the 16 outputs; delta, M, N
and k come from it as Python float and complex scalars, and Lambda is never built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import MINKOWSKI_METRIC, as_mueller, canonical_spinor_sign, lorentz_from_k
from .errors import DegenerateTrace, LorentzpolError, SingularNormalization
from .probes import LorentzResiduals, MeasurementSet, lorentz_residuals, reconstruct_mueller


@dataclass(frozen=True)
class RecoveryIntermediates:
    """Raw pieces of the extraction: delta, M, N, Lambda and the trace sum."""

    delta: float
    mvec: np.ndarray
    nvec: np.ndarray
    lambda_matrix: np.ndarray
    trace_sum: float


@dataclass(frozen=True)
class RecoveryResult:
    """Full parameter set recovered from one measurement set."""

    delta: float
    mvec: np.ndarray
    nvec: np.ndarray
    k: np.ndarray
    q: np.ndarray
    round_trip_max_dev: float
    residuals: LorentzResiduals

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "M": self.mvec,
            "N": self.nvec,
            "k": {"re": self.k.real, "im": self.k.imag},
            "q": {"re": self.q.real, "im": self.q.imag},
            "round_trip_max_dev": self.round_trip_max_dev,
            "lorentz_residuals": self.residuals.as_array(),
        }


@dataclass(frozen=True)
class RoundTripReport:
    """Outcome of reconstruct -> recover -> rebuild on one measurement set."""

    passed: bool
    max_deviation: float | None
    tol: float
    residuals: LorentzResiduals
    error: str | None = None


def lambda_from_mueller(m) -> np.ndarray:
    """Row-flipped matrix Lambda: row 0 kept, rows 1-3 negated."""
    return MINKOWSKI_METRIC @ as_mueller(m)


def _read(ms: MeasurementSet) -> tuple[float, list, list, list]:
    """The 16 outputs read once as floats: the trace sum and the numerators
    of M, N and Im q (the last grouped as in recover_q's formula)."""
    (f0, f1, f2, f3), (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = (
        s.tolist() for s in ms.outputs()
    )
    trace_sum = f0 + (a1 - f1) + (b2 - f2) + (c3 - f3)
    m = [f0 - f1 - a0, f0 - f2 - b0, f0 - f3 - c0]
    n = [f2 - f3 - c2 + b3, f3 - f1 - a3 + c1, f1 - f2 - b1 + a2]
    q_im = [(f2 - f3) - (c2 - b3), (f3 - f1) - (a3 - c1), (f1 - f2) - (b1 - a2)]
    return trace_sum, m, n, q_im


def _delta(trace_sum: float, intensity: float, eps: float = 1e-10) -> float:
    ratio = trace_sum / intensity
    if ratio <= eps:
        raise DegenerateTrace(
            f"matrix trace {ratio!r} is not positive; cannot extract delta"
        )
    return math.sqrt(ratio) / 2.0


def delta_from_trace(ms: MeasurementSet, eps: float = 1e-10) -> float:
    """Modulus of the leading spinor component from the matrix trace.

    trace = 4*delta^2, so delta = sqrt(trace_sum / I) / 2 with the positive
    root.  Raises DegenerateTrace when trace_sum / I <= eps: the rest of
    the extraction divides by delta.
    """
    return _delta(_read(ms)[0], ms.intensity, eps)


def mn_from_antisymmetric(ms: MeasurementSet, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Boost vector M and rotation vector N from the antisymmetric part."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    _, m, n, _ = _read(ms)
    scale = 4.0 * ms.intensity * delta
    return np.array(m) / scale, np.array(n) / scale


def _extract(ms: MeasurementSet) -> tuple[float, float, list, list, np.ndarray]:
    """The single pass: (trace_sum, delta, M, N, q) from one read; M, N as float lists."""
    trace_sum, m, n, q_im = _read(ms)
    delta = _delta(trace_sum, ms.intensity)
    scale = 4.0 * ms.intensity * delta
    q = (np.array(m) - 1j * np.array(q_im)) / trace_sum
    return trace_sum, delta, [x / scale for x in m], [x / scale for x in n], q


def recovery_intermediates(ms: MeasurementSet) -> RecoveryIntermediates:
    trace_sum, delta, mvec, nvec, _ = _extract(ms)
    lambda_matrix = lambda_from_mueller(reconstruct_mueller(ms))
    return RecoveryIntermediates(delta, np.array(mvec), np.array(nvec), lambda_matrix, trace_sum)


def _assemble_k(delta: float, mvec: list, nvec: list) -> np.ndarray:
    v = [complex(n, m) for n, m in zip(nvec, mvec)]
    # np.dot rounds the norm as the BLAS kernel does, which keeps emitted k where earlier
    # releases put it (within 1 ulp); a Python sum would move it by up to 5 ulp
    norm2 = delta ** 2 + complex(np.dot(v, v))
    if abs(norm2) < 1e-12:
        raise SingularNormalization(
            f"delta^2 + (N + iM).(N + iM) = {norm2!r} is singular"
        )
    root = cmath.sqrt(norm2)
    return canonical_spinor_sign(np.array([delta / root] + [z / root for z in v]))


def recover_k(ms: MeasurementSet) -> np.ndarray:
    """Normalized spinor parameter of the measured element, canonical sign."""
    _, delta, mvec, nvec, _ = _extract(ms)
    return _assemble_k(delta, mvec, nvec)


def recover_q(ms: MeasurementSet) -> np.ndarray:
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
    return q


def recover_parameters(ms: MeasurementSet) -> RecoveryResult:
    """Run the whole chain and quantify the rebuild error.

    Recovers (delta, M, N, k, q) in one pass over the outputs, rebuilds the
    matrix from k, and reports the max elementwise deviation from the
    directly reconstructed matrix together with the Minkowski residuals of
    the raw measurements.
    """
    _, delta, mvec, nvec, q = _extract(ms)
    k = _assemble_k(delta, mvec, nvec)
    deviation = float(np.abs(lorentz_from_k(k) - reconstruct_mueller(ms)).max())
    return RecoveryResult(delta, np.array(mvec), np.array(nvec), k, q, deviation, lorentz_residuals(ms))


def verify_round_trip(ms: MeasurementSet, tol: float = 1e-9) -> RoundTripReport:
    """Round-trip check that never raises: recovery errors go in the report."""
    try:
        result = recover_parameters(ms)
    except LorentzpolError as exc:
        return RoundTripReport(
            passed=False,
            max_deviation=None,
            tol=tol,
            residuals=lorentz_residuals(ms),
            error=f"{type(exc).__name__}: {exc}",
        )
    return RoundTripReport(
        passed=result.round_trip_max_dev < tol,
        max_deviation=result.round_trip_max_dev,
        tol=tol,
        residuals=result.residuals,
    )

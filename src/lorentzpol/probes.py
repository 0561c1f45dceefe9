"""Four-probe measurement protocol.

One natural beam (I, 0, 0, 0) and three fully polarized beams (I, I, 0, 0),
(I, 0, I, 0), (I, 0, 0, I) are sent through the element; the four output
Stokes vectors F, A, B, C determine all 16 matrix elements exactly:
column 0 is F/I and column j is (X - F)/I for X in (A, B, C).

Measurement sets serialize to JSON as

    {"intensity": <number>,
     "outputs": {"F": [4 numbers], "A": [...], "B": [...], "C": [...]}}

with fixed field order and 17-significant-digit numbers, so emitted files
are byte-stable.  A measurement set keeps its 16 outputs as Python floats,
which the recovery kernels read directly; its array views are built on access.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import jsonio
from .algebra import _array, _array_view, _checked, _matrix, _vector
from .errors import NonPositiveIntensity

# Accepted: I in INTENSITY_RANGE, max|output| <= MAX_OUTPUT_RATIO * I.  Then no intermediate of the
# chain overflows (outputs^2 <= 1e300) and no divisor (I^2, trace sum, 4*I*delta) underflows to 0.
INTENSITY_RANGE = (1e-100, 1e100)
MAX_OUTPUT_RATIO = 1e50


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian detector noise: std sigma per Stokes component."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True, init=False)
class MeasurementSet:
    """Probe intensity and the four output Stokes vectors F, A, B, C.

    ``stokes`` holds the outputs as four tuples of floats; f, a, b and c are
    their arrays.
    """

    intensity: float
    stokes: tuple
    f, a, b, c = (_array_view("stokes", i) for i in range(4))

    def __init__(self, intensity: float, f, a, b, c):
        if not intensity > 0.0:
            raise NonPositiveIntensity(f"intensity must be > 0, got {intensity}")
        stokes = tuple(_vector(s) or tuple(_checked(s, float, (4,), "Stokes vector").tolist())
                       for s in (f, a, b, c))
        limit = MAX_OUTPUT_RATIO * intensity  # NaN fails every comparison below
        if not (INTENSITY_RANGE[0] <= intensity <= INTENSITY_RANGE[1]
                and all(map(limit.__ge__, map(abs, stokes[0] + stokes[1] + stokes[2] + stokes[3])))):
            raise ValueError("measurements must be finite and in range: need %g <= intensity <= %g"
                             " and max|output| <= %g * intensity" % (*INTENSITY_RANGE, MAX_OUTPUT_RATIO))
        object.__setattr__(self, "intensity", intensity)
        object.__setattr__(self, "stokes", stokes)

    def outputs(self) -> tuple:
        return self.f, self.a, self.b, self.c

    def to_json(self) -> str:
        f, a, b, c = self.stokes
        return jsonio.dumps({"intensity": self.intensity, "outputs": {"F": f, "A": a, "B": b, "C": c}})

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSet":
        """Parse a measurement JSON text; ValueError if it is malformed or out of range."""
        try:
            data = json.loads(text)
            intensity = float(data["intensity"])
            outputs = data["outputs"]
            return cls(intensity, *[outputs[name] for name in ("F", "A", "B", "C")])
        except KeyError as exc:
            raise ValueError(f"malformed measurement JSON: missing {exc}") from exc
        # a non-numeric entry, an integer past the float range, or nesting past the recursion limit
        except (TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed measurement JSON: {exc}") from exc


def _probes(intensity: float) -> list:
    if not intensity > 0.0:
        raise NonPositiveIntensity(f"intensity must be > 0, got {intensity}")
    i = float(intensity)
    return [(i, 0.0, 0.0, 0.0), (i, i, 0.0, 0.0), (i, 0.0, i, 0.0), (i, 0.0, 0.0, i)]


def probe_set(intensity: float) -> list:
    """The four probe Stokes vectors at the given intensity."""
    return [_array(p) for p in _probes(intensity)]


def _simulate(rows: list, intensity: float, noise: NoiseSpec | None = None) -> MeasurementSet:
    # m @ p with each sum taken left to right from +0.0, as numpy's matmul rounds it
    outputs = [[0.0 + a * p0 + b * p1 + c * p2 + d * p3 for a, b, c, d in rows]
               for p0, p1, p2, p3 in _probes(intensity)]
    if noise is not None and noise.sigma > 0.0:
        import numpy as np  # the PCG64 normal stream fixes the noisy bytes
        # one (4, 4) draw: the stream of four size-4 draws, one row per output
        draws = np.random.default_rng(noise.seed).normal(0.0, noise.sigma, (4, 4)).tolist()
        outputs = [[x + y for x, y in zip(out, row)] for out, row in zip(outputs, draws)]
    return MeasurementSet(float(intensity), *outputs)


def simulate_measurements(m, intensity: float, noise: NoiseSpec | None = None) -> MeasurementSet:
    """Send the four probes through the element m.

    With noise, each output component receives an independent Gaussian
    perturbation of std noise.sigma drawn from a generator seeded with
    noise.seed, so repeated calls are bitwise identical.  Large noise may
    produce negative output intensities; they are passed through unclamped
    because the reconstruction is linear and clamping would bias it.
    """
    return _simulate(_matrix(m), intensity, noise)


def _mueller_rows(ms: MeasurementSet) -> list:
    i = ms.intensity
    return [[f / i, (a - f) / i, (b - f) / i, (c - f) / i] for f, a, b, c in zip(*ms.stokes)]


def reconstruct_mueller(ms: MeasurementSet):
    """Exact linear inversion of the four-probe protocol."""
    return _array(_mueller_rows(ms))


@dataclass(frozen=True)
class LorentzResiduals:
    """Minkowski-form residuals of the four outputs.

    r0 = g(F, F) - I^2 and rk = g(X, X) for X in (A, B, C); all four vanish
    for noiseless measurements of a Lorentz-type element.  normalized_max
    is max |r| / I^2.
    """

    r0: float
    r1: float
    r2: float
    r3: float
    normalized_max: float

    def values(self) -> list:
        return [self.r0, self.r1, self.r2, self.r3]

    def as_array(self):
        return _array(self.values())


def lorentz_residuals(ms: MeasurementSet) -> LorentzResiduals:
    i2 = ms.intensity ** 2
    r = [s0 * s0 - s1 * s1 - s2 * s2 - s3 * s3 for s0, s1, s2, s3 in ms.stokes]
    r[0] -= i2
    return LorentzResiduals(*r, normalized_max=max(map(abs, r)) / i2)

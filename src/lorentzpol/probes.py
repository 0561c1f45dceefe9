"""Four-probe measurement protocol.

One natural beam (I, 0, 0, 0) and three fully polarized beams (I, I, 0, 0),
(I, 0, I, 0), (I, 0, 0, I) are sent through the element; the four output
Stokes vectors F, A, B, C determine all 16 matrix elements exactly:
column 0 is F/I and column j is (X - F)/I for X in (A, B, C).

Measurement sets serialize to JSON as

    {"intensity": <number>,
     "outputs": {"F": [4 numbers], "A": [...], "B": [...], "C": [...]}}

with fixed field order and 17-significant-digit numbers, so emitted files
are byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .algebra import as_mueller, as_stokes
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
        if not (self.sigma >= 0.0 and np.isfinite(self.sigma)):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class MeasurementSet:
    """Probe intensity and the four output Stokes vectors."""

    intensity: float
    f: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if not self.intensity > 0.0:
            raise NonPositiveIntensity(f"intensity must be > 0, got {self.intensity}")
        for name in ("f", "a", "b", "c"):
            object.__setattr__(self, name, as_stokes(getattr(self, name)))
        limit = MAX_OUTPUT_RATIO * self.intensity  # NaN fails every comparison below
        values = self.f.tolist() + self.a.tolist() + self.b.tolist() + self.c.tolist()
        if not (INTENSITY_RANGE[0] <= self.intensity <= INTENSITY_RANGE[1]
                and all(map(limit.__ge__, map(abs, values)))):
            raise ValueError("measurements must be finite and in range: need %g <= intensity <= %g"
                             " and max|output| <= %g * intensity" % (*INTENSITY_RANGE, MAX_OUTPUT_RATIO))

    def outputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.f, self.a, self.b, self.c

    def to_json(self) -> str:
        return jsonio.dumps({
            "intensity": self.intensity,
            "outputs": {
                "F": self.f,
                "A": self.a,
                "B": self.b,
                "C": self.c,
            },
        })

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSet":
        data = json.loads(text)
        try:
            intensity = float(data["intensity"])
            outputs = data["outputs"]
            return cls(intensity, *[outputs[name] for name in ("F", "A", "B", "C")])
        except KeyError as exc:
            raise ValueError(f"malformed measurement JSON: missing {exc}") from exc
        except (TypeError, OverflowError) as exc:  # a non-numeric entry, or an integer past the float range
            raise ValueError(f"malformed measurement JSON: {exc}") from exc


def probe_set(intensity: float) -> list[np.ndarray]:
    """The four probe Stokes vectors at the given intensity."""
    if not intensity > 0.0:
        raise NonPositiveIntensity(f"intensity must be > 0, got {intensity}")
    i = float(intensity)
    return [
        np.array([i, 0.0, 0.0, 0.0]),
        np.array([i, i, 0.0, 0.0]),
        np.array([i, 0.0, i, 0.0]),
        np.array([i, 0.0, 0.0, i]),
    ]


def simulate_measurements(m, intensity: float, noise: NoiseSpec | None = None) -> MeasurementSet:
    """Send the four probes through the element m.

    With noise, each output component receives an independent Gaussian
    perturbation of std noise.sigma drawn from a generator seeded with
    noise.seed, so repeated calls are bitwise identical.  Large noise may
    produce negative output intensities; they are passed through unclamped
    because the reconstruction is linear and clamping would bias it.
    """
    m = as_mueller(m)
    probes = probe_set(intensity)
    outputs = [m @ p for p in probes]
    if noise is not None and noise.sigma > 0.0:
        # one (4, 4) draw: the stream of four size-4 draws, one row per output
        rows = np.random.default_rng(noise.seed).normal(0.0, noise.sigma, (4, 4))
        outputs = [out + row for out, row in zip(outputs, rows)]
    return MeasurementSet(float(intensity), *outputs)


def _mueller_rows(ms: MeasurementSet) -> list:
    i, rows = ms.intensity, zip(*(s.tolist() for s in ms.outputs()))
    return [[f / i, (a - f) / i, (b - f) / i, (c - f) / i] for f, a, b, c in rows]


def reconstruct_mueller(ms: MeasurementSet) -> np.ndarray:
    """Exact linear inversion of the four-probe protocol."""
    return np.array(_mueller_rows(ms))


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

    def as_array(self) -> np.ndarray:
        return np.array([self.r0, self.r1, self.r2, self.r3])


def lorentz_residuals(ms: MeasurementSet) -> LorentzResiduals:
    i2 = ms.intensity ** 2
    r = [s0 * s0 - s1 * s1 - s2 * s2 - s3 * s3
         for s0, s1, s2, s3 in (s.tolist() for s in ms.outputs())]
    r[0] -= i2
    return LorentzResiduals(*r, normalized_max=max(map(abs, r)) / i2)

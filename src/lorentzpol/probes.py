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
import sys

from . import jsonio
from .algebra import _Value, _array, _array_view, _checked, _matrix, _vector
from .errors import NonPositiveIntensity

# Accepted: I in INTENSITY_RANGE, max|output| <= MAX_OUTPUT_RATIO * I.  Then no intermediate of the
# chain overflows (outputs^2 <= 1e300) and no divisor (I^2, trace sum, 4*I*delta) underflows to 0.
INTENSITY_RANGE = (1e-100, 1e100)
MAX_OUTPUT_RATIO = 1e50

# A measurement set's JSON text in one format: the bytes of jsonio.dumps on its fields.
_JSON = '{"intensity": %%s, "outputs": {"F": %s, "A": %s, "B": %s, "C": %s}}' % (
    ("[" + ", ".join([jsonio.NUMBER] * 4) + "]",) * 4)
# json's reader, except that the int literal "-0" reads as the -0.0 that %.17g writes that way
_DECODER = json.JSONDecoder(parse_int=lambda text: -0.0 if text == "-0" else int(text))


class NoiseSpec(_Value):
    """Additive Gaussian detector noise: std sigma per Stokes component."""

    _fields = ("sigma", "seed")

    def __init__(self, sigma: float = 0.0, seed: int = 0):
        if not (sigma >= 0.0 and math.isfinite(sigma)):
            raise ValueError(f"noise sigma must be finite and >= 0, got {sigma}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "seed", seed)


class MeasurementSet(_Value):
    """Probe intensity and the four output Stokes vectors F, A, B, C.

    ``stokes`` holds the outputs as four tuples of floats; f, a, b and c are
    their arrays.
    """

    _fields = ("intensity", "stokes")
    f, a, b, c = (_array_view("stokes", i) for i in range(4))

    def __init__(self, intensity: float, f, a, b, c):
        if not intensity > 0.0:
            raise NonPositiveIntensity(f"intensity must be > 0, got {intensity}")
        # numpy's conversion only for what is not a list or tuple of four numbers, in F, A, B, C order
        stokes = (_vector(f) or _stokes(f), _vector(a) or _stokes(a), _vector(b) or _stokes(b),
                  _vector(c) or _stokes(c))
        limit = MAX_OUTPUT_RATIO * intensity  # NaN fails every comparison below
        if not (INTENSITY_RANGE[0] <= intensity <= INTENSITY_RANGE[1]
                and all(map(limit.__ge__, map(abs, stokes[0] + stokes[1] + stokes[2] + stokes[3])))):
            raise ValueError("measurements must be finite and in range: need %g <= intensity <= %g"
                             " and max|output| <= %g * intensity" % (*INTENSITY_RANGE, MAX_OUTPUT_RATIO))
        object.__setattr__(self, "intensity", intensity)
        object.__setattr__(self, "stokes", stokes)

    def to_json(self) -> str:
        f, a, b, c = self.stokes  # __init__ keeps every output a finite float
        return _JSON % (jsonio.dumps(self.intensity), *f, *a, *b, *c)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSet":
        """Parse a measurement JSON text; ValueError if it is malformed or out of range."""
        try:
            data = _DECODER.decode(text)
            intensity = data["intensity"]
            if type(intensity) is str:  # float() would read it; the format holds numbers only
                raise ValueError(f"malformed measurement JSON: intensity {intensity!r} is a string, not a number")
            intensity = float(intensity)
            outputs = data["outputs"]
            vectors = outputs["F"], outputs["A"], outputs["B"], outputs["C"]
            for v in vectors:
                if type(v) is list and str in map(type, v):
                    entry = next(x for x in v if type(x) is str)
                    raise ValueError(f"malformed measurement JSON: output entry {entry!r} is a string, not a number")
            return cls(intensity, *vectors)
        except KeyError as exc:
            raise ValueError(f"malformed measurement JSON: missing {exc}") from exc
        # a non-numeric entry, an integer past the float range, or nesting past the recursion limit
        except (TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed measurement JSON: {exc}") from exc


def _stokes(v) -> tuple:
    return tuple(_checked(v, float, (4,), "Stokes vector").tolist())


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
        # numpy's PCG64 normal stream fixes the noisy bytes; one (4, 4) draw, one row per output
        if sys.modules.get("numpy") is None and isinstance(noise.seed, int):
            from ._pcg64 import normal  # the same stream, without numpy's import cost
            flat = normal(noise.seed, noise.sigma, 16)
            draws = [flat[i:i + 4] for i in range(0, 16, 4)]
        else:  # numpy's own generator is the faster one once numpy is loaded
            import numpy as np
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
    (f0, f1, f2, f3), (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = ms.stokes
    return [[f0 / i, (a0 - f0) / i, (b0 - f0) / i, (c0 - f0) / i],
            [f1 / i, (a1 - f1) / i, (b1 - f1) / i, (c1 - f1) / i],
            [f2 / i, (a2 - f2) / i, (b2 - f2) / i, (c2 - f2) / i],
            [f3 / i, (a3 - f3) / i, (b3 - f3) / i, (c3 - f3) / i]]


def reconstruct_mueller(ms: MeasurementSet):
    """Exact linear inversion of the four-probe protocol."""
    return _array(_mueller_rows(ms))


class LorentzResiduals(_Value):
    """Minkowski-form residuals of the four outputs.

    r0 = g(F, F) - I^2 and rk = g(X, X) for X in (A, B, C); all four vanish
    for noiseless measurements of a Lorentz-type element.  normalized_max
    is max |r| / I^2.
    """

    _fields = ("r0", "r1", "r2", "r3", "normalized_max")

    def __init__(self, r0: float, r1: float, r2: float, r3: float, normalized_max: float):
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)
        object.__setattr__(self, "r3", r3)
        object.__setattr__(self, "normalized_max", normalized_max)

    def values(self) -> list:
        return [self.r0, self.r1, self.r2, self.r3]


def _residuals(ms: MeasurementSet) -> tuple[list, float]:
    """The residuals r0..r3 as a list of floats, and max |r| / I^2."""
    i2 = ms.intensity ** 2
    (f0, f1, f2, f3), (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = ms.stokes
    r0, r1 = f0 * f0 - f1 * f1 - f2 * f2 - f3 * f3 - i2, a0 * a0 - a1 * a1 - a2 * a2 - a3 * a3
    r2, r3 = b0 * b0 - b1 * b1 - b2 * b2 - b3 * b3, c0 * c0 - c1 * c1 - c2 * c2 - c3 * c3
    return [r0, r1, r2, r3], max(abs(r0), abs(r1), abs(r2), abs(r3)) / i2


def lorentz_residuals(ms: MeasurementSet) -> LorentzResiduals:
    r, normalized_max = _residuals(ms)
    return LorentzResiduals(*r, normalized_max=normalized_max)

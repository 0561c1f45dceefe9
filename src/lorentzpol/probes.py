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
import operator

from . import jsonio
from .algebra import _Value, _array, _array_view, _number, _numbers
from .errors import NonPositiveIntensity

# Accepted: I in INTENSITY_RANGE, max|output| <= MAX_OUTPUT_RATIO * I.  Then no intermediate of the
# chain overflows (outputs^2 <= 1e300) and no divisor (I^2, trace sum, 4*I*delta) underflows to 0.
INTENSITY_RANGE = (1e-100, 1e100)
MAX_OUTPUT_RATIO = 1e50

# A measurement set's JSON text in one format: the bytes of jsonio.dumps on its fields.
_JSON = '{"intensity": %s, "outputs": {"F": %s, "A": %s, "B": %s, "C": %s}}' % (
    jsonio.NUMBER, *("[" + ", ".join([jsonio.NUMBER] * 4) + "]",) * 4)
# json's reader, except that an int literal reads as a float: "-0" as the -0.0 that %.17g writes that way, and
# one past the float range raises OverflowError (a malformed file) instead of reading as inf
_DECODER = json.JSONDecoder(parse_int=lambda text: -0.0 if text == "-0" else float(int(text)))


class NoiseSpec(_Value):
    """Additive Gaussian detector noise: std sigma per Stokes component."""

    _fields = ("sigma", "seed")

    def __init__(self, sigma: float = 0.0, seed: int = 0):
        if not (sigma >= 0.0 and math.isfinite(sigma)):
            raise ValueError(f"noise sigma must be finite and >= 0, got {sigma}")
        seed = operator.index(seed)  # an int or numpy integer; TypeError for a float
        if seed < 0:  # random.Random seeds with abs(seed): -7 would draw 7's stream
            raise ValueError("expected non-negative integer")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "seed", seed)


class MeasurementSet(_Value):
    """Probe intensity and the four output Stokes vectors F, A, B, C.

    ``intensity`` is a float and ``stokes`` holds the outputs as four tuples
    of floats; f, a, b and c are their arrays.  Outputs are read as _numbers
    reads a vector: a string, None or complex entry raises TypeError.
    """

    _fields = ("intensity", "stokes")
    f, a, b, c = (_array_view("stokes", i) for i in range(4))

    def __init__(self, intensity: float, f, a, b, c):
        i, what = _probe_intensity(intensity), "Stokes vector"  # a bad intensity is the error reported
        self._store(i, (_numbers(f, (4,), what), _numbers(a, (4,), what),
                        _numbers(b, (4,), what), _numbers(c, (4,), what)))

    def _store(self, intensity: float, stokes: tuple) -> None:
        """Check the envelope on a float intensity and four tuples of floats, then set the fields."""
        limit = MAX_OUTPUT_RATIO * intensity  # NaN fails every comparison below
        if not (INTENSITY_RANGE[0] <= intensity <= INTENSITY_RANGE[1]
                and all(map(limit.__ge__, map(abs, stokes[0] + stokes[1] + stokes[2] + stokes[3])))):
            raise ValueError("measurements must be finite and in range: need %g <= intensity <= %g"
                             " and max|output| <= %g * intensity" % (*INTENSITY_RANGE, MAX_OUTPUT_RATIO))
        object.__setattr__(self, "intensity", intensity)
        object.__setattr__(self, "stokes", stokes)

    def to_json(self) -> str:
        f, a, b, c = self.stokes  # _store keeps the intensity and every output a finite float
        return _JSON % (self.intensity, *f, *a, *b, *c)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSet":
        """Parse a measurement JSON text; ValueError if it is malformed or out of range."""
        try:
            data = _DECODER.decode(text)
            intensity, outputs = data["intensity"], data["outputs"]
            return cls(intensity, outputs["F"], outputs["A"], outputs["B"], outputs["C"])
        except KeyError as exc:
            raise ValueError(f"malformed measurement JSON: missing {exc}") from exc
        # a non-numeric or string entry, an integer past the float range, or nesting past the recursion limit
        except (TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed measurement JSON: {exc}") from exc


def _probe_intensity(intensity: float) -> float:
    i = _number(intensity, "intensity")  # 10**400 reads as inf, which the envelope refuses
    if not i > 0.0:
        raise NonPositiveIntensity(f"intensity must be > 0, got {intensity}")
    return i


def _probes(intensity: float) -> list:
    i = _probe_intensity(intensity)
    return [(i, 0.0, 0.0, 0.0), (i, i, 0.0, 0.0), (i, 0.0, i, 0.0), (i, 0.0, 0.0, i)]


def probe_set(intensity: float) -> list:
    """The four probe Stokes vectors at the given intensity."""
    return [_array(p) for p in _probes(intensity)]


def _noisy(out: tuple, u, sigma: float) -> tuple:
    """out plus four normals of std sigma: two Box-Muller pairs, each from two uniforms u()."""
    x0, x1, x2, x3 = out
    r, t = sigma * math.sqrt(-2.0 * math.log(1.0 - u())), math.tau * u()  # 1 - u() > 0 for log
    p, w = sigma * math.sqrt(-2.0 * math.log(1.0 - u())), math.tau * u()
    return x0 + r * math.cos(t), x1 + r * math.sin(t), x2 + p * math.cos(w), x3 + p * math.sin(w)


def _simulate(rows: list, intensity: float, noise: NoiseSpec | None = None) -> MeasurementSet:
    i = _probe_intensity(intensity)
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = rows
    # m @ p for the probes (i, 0, 0, 0), (i, i, 0, 0), (i, 0, i, 0), (i, 0, 0, i): F = 0.0 + m[:, 0]*i,
    # and A, B, C add m[:, j]*i to F.  These are the floats of numpy's matmul, which sums all four
    # terms left to right from +0.0: a term m*0.0 adds a zero, which changes neither a nonzero sum
    # nor a +0.0 one.  A non-finite entry gives a non-finite output either way, refused by _store.
    f = f0, f1, f2, f3 = 0.0 + m00 * i, 0.0 + m10 * i, 0.0 + m20 * i, 0.0 + m30 * i
    a = f0 + m01 * i, f1 + m11 * i, f2 + m21 * i, f3 + m31 * i
    b = f0 + m02 * i, f1 + m12 * i, f2 + m22 * i, f3 + m32 * i
    c = f0 + m03 * i, f1 + m13 * i, f2 + m23 * i, f3 + m33 * i
    if noise is not None and noise.sigma > 0.0:
        import random  # only a noisy simulate draws; CPython keeps random()'s sequence for an int seed
        # lorentzpol's noise stream: 16 normals from one seeded generator, four per output in F, A, B, C order
        u, sigma = random.Random(noise.seed).random, noise.sigma
        f, a, b, c = _noisy(f, u, sigma), _noisy(a, u, sigma), _noisy(b, u, sigma), _noisy(c, u, sigma)
    ms = MeasurementSet.__new__(MeasurementSet)
    ms._store(i, (f, a, b, c))  # the outputs are floats already: no conversion
    return ms


def simulate_measurements(m, intensity: float, noise: NoiseSpec | None = None) -> MeasurementSet:
    """Send the four probes through the element m.

    With noise, each output component receives an independent Gaussian
    perturbation of std noise.sigma.  The 16 draws are Box-Muller pairs
    (r cos t, r sin t), r = sigma * sqrt(-2 ln(1 - u1)), t = 2 pi u2, on
    successive uniforms of random.Random(noise.seed).random(), added to F,
    A, B and C in turn, so repeated calls are bitwise identical, with or
    without numpy.  Large noise may produce negative output intensities;
    they are passed through unclamped because the reconstruction is linear
    and clamping would bias it.
    """
    return _simulate(_numbers(m, (4, 4), "Mueller matrix"), intensity, noise)


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

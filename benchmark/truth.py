"""Seeded inputs with their generating elements, and the oracle that checks
every answer against them.

The forward model here is independent of lorentzpol: an element with spinor
parameter k maps to the Mueller matrix M_ij = 1/2 tr(s_i A^+ s_j A), with
A = k0*1 + i*(k1 s1 + k2 s2 + k3 s3) and s_0..s_3 the identity and the
Pauli matrices.  This is the SL(2,C) image that lorentzpol.lorentz_from_k
implements; self_check.py asserts that the two agree.

Two known defects are kept out of the traffic on purpose: malformed input
(NaN/Inf in the measurement JSON, which crashes `recover` and aborts a whole
`--batch`) and the beta >= 20 boost envelope, where exact boosts are
misclassified.  Both enter as their own benchmark change once the input
hardening lands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9  # the CLI's default --tol, used by every recovery in the benchmark

BLOCK = 100  # sets per block; the counts of each deck add up to it

# Categories of the recovery mix and their counts in every block.  Every
# block holds exactly these counts, so the mix does not vary by seed and
# blocks are interchangeable units of work.  The categories are the outcomes
# the `recover --model auto` chain branches on; the counts are an assumption,
# since no record of real inputs exists: half the sets take the
# recover_parameters branch (30 general, 20 boosts), a fifth the rotation
# branch (17 retarders and 3 half-wave plates, the few-percent exit-4 share),
# and 30 the not-lorentzian round-trip branch, split evenly between the two
# noise levels.  Each run records the op count and median time per category,
# so a change's effect on one branch can be read whatever the mix.
RECOVER_DECK = (
    ("general", 30),      # noiseless element from a random complex q
    ("boost", 20),        # noiseless boost, beta in [0.05, 3]
    ("rotation", 17),     # noiseless retarder, angle in [0.05, pi - 0.05]
    ("halfwave", 3),      # half-wave plate: documented NearPiRotation, exit 4
    ("noisy-1e-06", 15),  # sigma/I = 1e-6 on general/boost/rotation elements
    ("noisy-1e-04", 15),  # sigma/I = 1e-4
)
# The forward mix of lib_simulate: the three constructions in about equal
# shares, each cycling through the noise levels below so that half its sets
# carry noise at the recovery mix's two levels.  These counts are an
# assumption too.  scripts/noise_sweep.py makes its sets with the same
# simulate_measurements call, on one compound element at nine levels from
# 1e-6 to 1e-2, and writes no JSON; this mix shares its calls, not its inputs.
FORWARD_DECK = (
    ("general", 40),
    ("rotation", 30),
    ("boost", 30),
)
FORWARD_NOISE = (0.0, 0.0, 1e-6, 1e-4)  # sigma/I, cycled within each category

_PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


@dataclass(frozen=True)
class Case:
    """One input and what a correct answer to it is."""

    kind: str            # category name from a deck
    spec: tuple          # ("qparam", q) | ("boost", axis, beta) | ("quaternion", n)
    k: np.ndarray        # generating spinor parameter (complex, shape (4,))
    matrix: np.ndarray   # generating Mueller matrix
    intensity: float
    eps: float           # noise sigma / intensity
    expect: str          # "lorentz" | "rotation" | "near-pi" | "not-lorentzian"
    noise_seed: int
    text: str = ""       # measurement JSON (recovery inputs only)

    @property
    def sigma(self) -> float:
        return self.eps * self.intensity


def mueller_from_k(k: np.ndarray) -> np.ndarray:
    """Mueller matrices of spinor parameters k, shape (..., 4) -> (..., 4, 4)."""
    k = np.asarray(k, dtype=complex)
    a = k[..., 0, None, None] * _PAULI[0] + 1j * np.einsum("...j,jab->...ab", k[..., 1:], _PAULI[1:])
    a_dag = np.conj(np.swapaxes(a, -1, -2))
    return 0.5 * np.einsum("iab,...bc,jcd,...da->...ij", _PAULI, a_dag, _PAULI, a).real


def spinor_of(spec: tuple) -> np.ndarray:
    """Generating spinor parameter k of an element spec."""
    if spec[0] == "qparam":
        q = np.asarray(spec[1], dtype=complex)
        k0 = 1.0 / np.sqrt(1.0 - q @ q + 0j)
        return np.concatenate(([k0], 1j * q * k0))
    if spec[0] == "boost":
        _, axis, beta = spec
        k = np.zeros(4, dtype=complex)
        k[0] = math.cosh(beta / 2.0)
        k[axis] = -1j * math.sinh(beta / 2.0)
        return k
    return np.asarray(spec[1], dtype=complex)  # quaternion: k is real


def _unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _draw_specs(rng, kind: str, n: int) -> list[tuple]:
    if kind == "general":
        specs = []
        while len(specs) < n:
            q = rng.uniform(-0.7, 0.7, (2 * n + 8, 3)) + 1j * rng.uniform(-0.7, 0.7, (2 * n + 8, 3))
            qq = np.einsum("ij,ij->i", q, q)
            k0 = 1.0 / np.sqrt(1.0 - qq)
            m = mueller_from_k(np.column_stack([k0, 1j * q * k0[:, None]]))
            # keep away from the documented singular surfaces: 1 - q.q = 0,
            # delta -> 0 and real q (rotations belong to their own category)
            keep = ((np.abs(1.0 - qq) >= 0.3) & (np.abs(q.imag).max(axis=1) >= 0.05)
                    & (np.abs(m).max(axis=(1, 2)) <= 20.0)
                    & (np.trace(m, axis1=1, axis2=2) >= 0.2))
            specs += [("qparam", tuple(complex(x) for x in row)) for row in q[keep]]
        return specs[:n]
    if kind == "boost":
        axes = rng.integers(1, 4, n)
        betas = rng.uniform(0.05, 3.0, n)
        return [("boost", int(a), float(b)) for a, b in zip(axes, betas)]
    if kind in ("rotation", "rotation-noisy"):
        top = math.pi - 0.05 if kind == "rotation" else 2.5
        theta = rng.uniform(0.05, top, n)
        e = _unit_vectors(rng, n)
        n_vec = np.column_stack([np.cos(theta / 2), np.sin(theta / 2)[:, None] * e])
        return [("quaternion", tuple(float(x) for x in row)) for row in n_vec]
    if kind == "halfwave":
        # linear retarder of retardance pi: rotation by pi about an equatorial axis
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        return [("quaternion", (0.0, float(math.cos(p)), float(math.sin(p)), 0.0)) for p in phi]
    raise ValueError(kind)


def _expect(kind: str) -> str:
    if kind.startswith("noisy"):
        return "not-lorentzian"
    return {"general": "lorentz", "boost": "lorentz", "rotation": "rotation",
            "halfwave": "near-pi"}[kind]


def measurement_json(matrix: np.ndarray, intensity: float, noise: np.ndarray) -> str:
    """Measurement JSON of the four-probe protocol on matrix, plus noise (4, 4)."""
    col0 = matrix[:, 0] * intensity
    outs = [col0, col0 + matrix[:, 1] * intensity, col0 + matrix[:, 2] * intensity,
            col0 + matrix[:, 3] * intensity]
    outs = [o + dn for o, dn in zip(outs, noise)]
    return json.dumps({"intensity": intensity, "outputs": {
        name: o.tolist() for name, o in zip("FABC", outs)}})


def draw_block(rng, deck, with_text: bool) -> list[Case]:
    """One shuffled block holding exactly the deck's counts, all inputs distinct."""
    cases = []
    for kind, count in deck:
        if kind.startswith("noisy"):
            eps = float(kind.split("-", 1)[1])
            third = count // 3
            specs = (_draw_specs(rng, "general", count - 2 * third)
                     + _draw_specs(rng, "boost", third)
                     + _draw_specs(rng, "rotation-noisy", third))
        else:
            eps = 0.0
            specs = _draw_specs(rng, kind, count)
        for i, spec in enumerate(specs):
            if deck is FORWARD_DECK:
                eps = FORWARD_NOISE[i % len(FORWARD_NOISE)]
            k = spinor_of(spec)
            matrix = mueller_from_k(k)
            intensity = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
            noise_seed = int(rng.integers(2**31))
            text = ""
            if with_text:
                noise = rng.normal(0.0, eps * intensity, (4, 4)) if eps else np.zeros((4, 4))
                text = measurement_json(matrix, intensity, noise)
            cases.append(Case(kind, spec, k, matrix, intensity, eps, _expect(kind),
                              noise_seed, text))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


# --- oracle -----------------------------------------------------------------

def _complex_list(obj) -> list[complex]:
    return [complex(r, i) for r, i in zip(obj["re"], obj["im"])]


def _maxdiff(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def _scale(case: Case) -> float:
    return float(np.abs(case.matrix).max())


def check_recovery(case: Case, code, text: str) -> str | None:
    """None when (exit code, report text) is the documented outcome for case,
    else the reason it is not.  text is stdout for exit 0 and the stderr
    report otherwise; a crash or a traceback is never an accepted outcome.
    """
    if code is None or "Traceback" in text:
        return f"crash: {text[-200:]!r}"
    want_code = 4 if case.expect == "near-pi" else 0
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    try:
        payload = json.loads(text)
    except ValueError:
        return f"unparseable report {text[:80]!r}"
    if case.expect == "near-pi":
        if not str(payload.get("error", "")).startswith("NearPiRotation"):
            return f"wrong error {payload.get('error')!r}"
        return None
    cls = payload.get("classification")
    if cls != case.expect:
        return f"class {cls!r}, expected {case.expect!r}"
    scale = _scale(case)
    if case.expect == "rotation":
        err = _maxdiff(payload["quaternion"], case.k.real)
        if not err <= 1e-9:
            return f"quaternion off by {err:.3g}"
        if not payload["round_trip_max_dev"] <= 1e-9:
            return f"round trip {payload['round_trip_max_dev']:.3g}"
        return None
    if case.expect == "lorentz":
        q_true = -1j * case.k[1:] / case.k[0]
        err = _maxdiff(_complex_list(payload["q"]), q_true)
        if not err <= 1e-9 * scale * (1.0 + float(np.abs(q_true).max())):
            return f"q off by {err:.3g}"
        k = _complex_list(payload["k"])
        err = min(_maxdiff(k, case.k), _maxdiff(k, -case.k))
        if not err <= 1e-9 * scale:
            return f"k off by {err:.3g}"
        if not payload["round_trip_max_dev"] <= 1e-9 * scale:
            return f"round trip {payload['round_trip_max_dev']:.3g}"
        return None
    # not-lorentzian: the reconstruction carries column noise of std
    # sqrt(2)*sigma/I, so 12*sigma/I is beyond 8 standard deviations
    err = _maxdiff([x for row in payload["matrix"] for x in row], case.matrix.ravel())
    if not err <= 12.0 * case.eps:
        return f"matrix off by {err:.3g} at sigma/I {case.eps:g}"
    dev = payload.get("round_trip_max_dev")
    if dev is None or not dev <= 100.0 * case.eps * scale * scale:
        return f"round trip {dev!r} at sigma/I {case.eps:g}"
    return None


def check_measurements(case: Case, text: str) -> str | None:
    """None when text is the measurement JSON of case's element, with noise
    present exactly when sigma > 0 and within 8 sigma per component."""
    try:
        data = json.loads(text)
        outs = np.array([data["outputs"][name] for name in "FABC"], dtype=float)
    except (ValueError, KeyError, TypeError):
        return f"unparseable measurements {text[:80]!r}"
    if data.get("intensity") != case.intensity:
        return f"intensity {data.get('intensity')!r}, expected {case.intensity!r}"
    i = case.intensity
    m = case.matrix
    clean = np.array([m[:, 0], m[:, 0] + m[:, 1], m[:, 0] + m[:, 2], m[:, 0] + m[:, 3]]) * i
    err = float(np.abs(outs - clean).max())
    exact = 1e-12 * i * max(1.0, _scale(case)) ** 2
    if case.eps == 0.0:
        return None if err <= exact else f"outputs off by {err:.3g}"
    if not err <= 8.0 * case.sigma + exact:
        return f"noise {err:.3g} beyond 8 sigma ({case.sigma:g})"
    if not err >= 0.01 * case.sigma:
        return f"noise {err:.3g} missing at sigma {case.sigma:g}"
    return None

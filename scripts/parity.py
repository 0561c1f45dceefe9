#!/usr/bin/env python3
"""Differential check of two lorentzpol source trees on the same seeded inputs.

    python3 scripts/parity.py PARENT_SRC CHANGE_SRC [--sets N] [--seed S]

PARENT_SRC and CHANGE_SRC are `src` directories (or checkouts holding one).
Each `lorentzpol` package is copied into a temporary directory under its own
name, `lp_parent` and `lp_change`, so both import into one process.

Recovery sets are drawn with the parent's forward constructions over every
branch of `recover`: general elements from a complex q, boosts, rotations,
half-wave plates (near-pi, exit 4), trace-free elements (degenerate trace,
exit 4), noisy sets at sigma/I = 1e-6 and 1e-4, dense non-Lorentz matrices,
and out-of-envelope or malformed files (exit 2).  Every set goes through
`cli._recover_one` under each `--model` at `--tol 1e-9`, through `--model auto`
at `--tol 1e-3`, through `classify` and through `from_json(text).to_json()`.
N/2 forward sets build an element with each tree's own constructions and
compare the `simulate` JSON text; differing texts are counted by element kind,
with the largest distance of one number in units in the last place (ulp).

Prints the counts of differing exit codes, classifications and report bytes,
and exits 1 if any count is nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

# Categories of the recovery mix per 100 sets: the outcomes `recover --model auto`
# branches on, with a few sets of each rare branch.
RECOVER_DECK = (
    ("general", 26), ("boost", 18), ("rotation", 16), ("halfwave", 3), ("degenerate", 2),
    ("noisy-1e-06", 14), ("noisy-1e-04", 14), ("dense", 5), ("invalid", 2),
)
FORWARD_KINDS = ("general", "rotation", "boost")
FORWARD_NOISE = (0.0, 0.0, 1e-6, 1e-4)  # sigma/I, cycled over the forward sets
RUNS = (("auto", 1e-9), ("lorentz", 1e-9), ("rotation", 1e-9), ("raw", 1e-9), ("auto", 1e-3))
INVALID_TEXTS = (
    '{"intensity": 1, "outputs": {"F": [NaN, 0, 0, 0], "A": [1, 1, 0, 0], "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}',
    '{"intensity": 1, "outputs": {"F": [1e200, 0, 0, 0], "A": [1, 1, 0, 0], "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}',
    '{"intensity": 1e-300, "outputs": {"F": [1e-300, 0, 0, 0], "A": [1e-300, 1e-300, 0, 0],'
    ' "B": [1e-300, 0, 1e-300, 0], "C": [1e-300, 0, 0, 1e-300]}}',
    '{"intensity": 0, "outputs": {"F": [1, 0, 0, 0], "A": [1, 1, 0, 0], "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}',
    '{"intensity": 1, "outputs": {"F": [1, 0, 0, 0]}}',
    "not json",
)


def load(src: str, name: str, into: Path):
    """Import the lorentzpol package found under src as the package `name`."""
    root = Path(src)
    package = root / "lorentzpol" if (root / "lorentzpol").is_dir() else root / "src" / "lorentzpol"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no lorentzpol package under {src}")
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{name}.cli")
    return importlib.import_module(name)


def _quaternion(rng, top: float) -> np.ndarray:
    theta = rng.uniform(0.05, top)
    axis = rng.normal(size=3)
    return np.concatenate(([math.cos(theta / 2)], math.sin(theta / 2) * axis / np.linalg.norm(axis)))


def element(lp, rng, kind: str) -> np.ndarray:
    """A Mueller matrix of the given kind, from lorentzpol's own constructions."""
    if kind == "general":
        while True:
            q = rng.uniform(-0.7, 0.7, 3) + 1j * rng.uniform(-0.7, 0.7, 3)
            try:
                return lp.lorentz_from_k(lp.k_from_q(q))
            except lp.LorentzpolError:
                continue
    if kind == "boost":
        return lp.boost_mueller(int(rng.integers(1, 4)), rng.uniform(0.05, 3.0))
    if kind == "rotation":
        return lp.embed_rotation(lp.quaternion_to_rotation(_quaternion(rng, math.pi - 0.05)))
    if kind == "halfwave":
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return lp.embed_rotation(lp.quaternion_to_rotation([0.0, math.cos(phi), math.sin(phi), 0.0]))
    if kind == "degenerate":  # a boost after a pi rotation: trace 0
        return lp.boost_mueller(3, rng.uniform(0.05, 2.0)) @ lp.rotation_mueller(1, math.pi)
    if kind == "dense":
        return rng.uniform(-1.0, 1.0, (4, 4)) + np.diag([1.5, 0.0, 0.0, 0.0])
    raise ValueError(kind)


def recovery_texts(lp, rng, count: int) -> list[str]:
    texts = []
    while len(texts) < count:
        for kind, n in RECOVER_DECK:
            for i in range(n):
                intensity = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
                if kind == "invalid":
                    texts.append(INVALID_TEXTS[len(texts) % len(INVALID_TEXTS)])
                    continue
                eps = float(kind.split("-", 1)[1]) if kind.startswith("noisy") else 0.0
                base = FORWARD_KINDS[i % 3] if eps else kind
                noise = lp.NoiseSpec(eps * intensity, int(rng.integers(2**31)))
                texts.append(lp.simulate_measurements(element(lp, rng, base), intensity, noise).to_json())
    return texts[:count]


def _run(text: str, call):
    """call() with text on stdin; returns (exit code, stdout + stderr) or the crash."""
    stdin, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = call()
    except Exception as exc:  # a crash is an outcome to compare, not the end of the run
        return f"crash {type(exc).__name__}", str(exc)
    finally:
        sys.stdin = stdin
    if isinstance(code, tuple):  # _recover_one: (code, stdout, stderr)
        code, stdout, stderr = code
        return code, stdout + stderr
    return code, out.getvalue()


def outcomes(lp, text: str) -> dict:
    got = {f"{model}@{tol:g}": _run(text, lambda: lp.cli._recover_one("-", model, tol))
           for model, tol in RUNS}
    got["classify"] = _run(text, lambda: lp.cli.main(["classify", "-"]))
    got["to_json"] = _run(text, lambda: (0, lp.MeasurementSet.from_json(text).to_json(), ""))
    return got


def forward_text(lp, seed: int, index: int) -> str:
    rng = np.random.default_rng([seed, index])
    kind = FORWARD_KINDS[index % 3]
    eps = FORWARD_NOISE[(index // 3) % len(FORWARD_NOISE)]
    intensity = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    noise = lp.NoiseSpec(eps * intensity, int(rng.integers(2**31)))
    return lp.simulate_measurements(element(lp, rng, kind), intensity, noise).to_json()


def ulp_distance(old: str, new: str) -> int:
    """Largest distance in ulp between corresponding numbers of two measurement texts."""
    def ordered(text):  # doubles as integers in the order of their values
        data = json.loads(text)
        values = np.array([data["intensity"], *sum(data["outputs"].values(), [])], dtype=float)
        bits = values.view(np.int64).astype(object)
        return [b if b >= 0 else -(b & 0x7FFF_FFFF_FFFF_FFFF) for b in bits]
    return max(abs(a - b) for a, b in zip(ordered(old), ordered(new)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--sets", type=int, default=2000, help="recovery sets (default 2000)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    forward = args.sets // 2

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        parent = load(args.parent_src, "lp_parent", Path(tmp))
        change = load(args.change_src, "lp_change", Path(tmp))
        sys.path.remove(tmp)

    texts = recovery_texts(parent, np.random.default_rng(args.seed), args.sets)
    codes, reports, classes, seen = Counter(), Counter(), 0, Counter()
    for text in texts:
        old, new = outcomes(parent, text), outcomes(change, text)
        for run, (code, report) in old.items():
            seen[run, code] += 1
            codes[run] += code != new[run][0]
            reports[run] += report != new[run][1]
        classes += old["classify"][1].split(" ", 1)[0] != new["classify"][1].split(" ", 1)[0]
    moved, ulps = Counter(), 0
    for i in range(forward):
        old, new = forward_text(parent, args.seed, i), forward_text(change, args.seed, i)
        if old != new:
            moved[FORWARD_KINDS[i % 3]] += 1
            ulps = max(ulps, ulp_distance(old, new))
    forward_diff = sum(moved.values())

    print(f"recovery sets: {len(texts)} (seed {args.seed})")
    for run in [f"{model}@{tol:g}" for model, tol in RUNS] + ["classify", "to_json"]:
        spread = ", ".join(f"{code}: {n}" for code, n in sorted(
            ((code, n) for (r, code), n in seen.items() if r == run), key=str))
        print(f"  {run:14s} exit codes differing {codes[run]:6d}   report bytes differing "
              f"{reports[run]:6d}   parent exit codes {{{spread}}}")
    print(f"  classifications differing {classes}")
    kinds = ", ".join(f"{kind} {n}" for kind, n in sorted(moved.items()))
    print(f"forward sets: {forward}, simulate texts differing {forward_diff}"
          + (f" ({kinds}; numbers moved by at most {ulps} ulp)" if forward_diff else ""))
    total = sum(codes.values()) + sum(reports.values()) + classes + forward_diff
    print(f"total differences: {total}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())

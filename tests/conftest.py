import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lorentzpol as lp

settings.register_profile("numeric", deadline=None)
settings.load_profile("numeric")

# The CLI tests start `python -m lorentzpol` subprocesses; they import the tree
# under test, as this process does through pyproject's pytest `pythonpath`.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# stdout block-buffered on a pipe, as by default: a byte that entry() fails to flush is lost
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
GOLDEN = Path(__file__).parent / "golden"
LN2_TEXT = "0.6931471805599453"


def run_process(*argv, stdin=b"", allow=()):
    """(exit code, stdout, stderr) of `python -m lorentzpol *argv` with numpy, dataclasses, inspect and pathlib
    blocked but for those in allow: an import of one ends in exit 1 with `ModuleNotFoundError` on stderr."""
    blocked = [name for name in ("dataclasses", "inspect", "numpy", "pathlib") if name not in allow]
    code = f"import sys; sys.modules.update(dict.fromkeys({blocked})); from lorentzpol.cli import entry; entry()"
    result = subprocess.run([sys.executable, "-c", code, *argv], input=stdin, capture_output=True, env=BUFFERED,
                            timeout=60)
    return result.returncode, result.stdout, result.stderr


# One process per row: argv (a .json argument names a golden), the golden read on stdin, the exit code, and the
# goldens of stdout and stderr (None: no stdin, or an empty stream).  Every file in tests/golden/ is the output of
# exactly one row; the first two are acceptance criterion 7.
GOLDEN_RUNS = [
    (("simulate", "--boost", "3", "--beta", LN2_TEXT), None, 0, "simulate_boost3_ln2.json", None),
    (("recover", "--model", "lorentz", "simulate_boost3_ln2.json"), None, 0, "recover_boost3_ln2.json", None),
    (("simulate", "--rotation", "1", "--theta", "0.7"), None, 0, "simulate_rotation1.json", None),
    (("recover", "--model", "auto"), "simulate_rotation1.json", 0, "recover_rotation1_auto.json", None),
    # the README's noisy example: lorentzpol's own noise stream, drawn without numpy
    (("simulate", "--rotation", "1", "--theta", "0.7", "--noise", "0.01", "--seed", "7"), None, 0,
     "simulate_rotation1_noise.json", None),
    (("recover", "--model", "auto"), "simulate_rotation1_noise.json", 0, "recover_rotation1_noise_auto.json", None),
    (("recover", "--model", "lorentz", "simulate_rotation1_noise.json"), None, 5, None,
     "recover_rotation1_noise_lorentz.stderr"),
    (("classify", "simulate_rotation1_noise.json"), None, 5, "classify_rotation1_noise.txt", None),
    # the general element from q, then k, q and the rebuild of the general branch
    (("simulate", "--qparam", "0.3+0.2j", "-0.1+0.4j", "0.25-0.3j"), None, 0, "simulate_qparam.json", None),
    (("recover", "--model", "auto"), "simulate_qparam.json", 0, "recover_qparam_auto.json", None),
    # a half-wave plate: the partial report of NearPiRotation
    (("simulate", "--quaternion", "0", "1", "0", "0"), None, 0, "simulate_halfwave.json", None),
    (("recover", "--model", "auto"), "simulate_halfwave.json", 4, None, "recover_halfwave_auto.stderr"),
]


def golden_run(row):
    """The run of a GOLDEN_RUNS row and its goldens, each as (exit code, stdout, stderr)."""
    argv, stdin, code, out, err = row
    argv = [str(GOLDEN / arg) if arg.endswith(".json") else arg for arg in argv]
    stdin, out, err = ((GOLDEN / name).read_bytes() if name else b"" for name in (stdin, out, err))
    return run_process(*argv, stdin=stdin), (code, out, err)


def reference_dumps(obj) -> str:
    """The JSON text of dicts, lists, strings and floats, every float in "%.17g": the reference for the bytes the
    package's report and measurement formats write, spelled here apart from its jsonio.NUMBER."""
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{json.dumps(key)}: {reference_dumps(value)}" for key, value in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(reference_dumps, obj)) + "]"
    return json.dumps(obj) if isinstance(obj, str) else "%.17g" % obj


@st.composite
def unit_quaternions(draw, min_n0=0.0):
    parts = draw(arrays(np.float64, (4,), elements=st.floats(-1.0, 1.0)))
    norm = float(np.linalg.norm(parts))
    if norm < 1e-2:
        parts = np.array([1.0, 0.0, 0.0, 0.0])
        norm = 1.0
    n = parts / norm
    if n[0] < 0.0:
        n = -n
    if n[0] < min_n0:
        # rotate probability mass away from the singular equator
        n = np.array([np.sqrt(1.0 - 0.5 * (1.0 - n[0] ** 2)), *(n[1:] * np.sqrt(0.5))])
        n /= np.linalg.norm(n)
    return n


@st.composite
def vector_parameters(draw):
    """Complex q with components in the 0.6-disk, away from q.q = 1."""
    re = draw(arrays(np.float64, (3,), elements=st.floats(-0.6, 0.6)))
    im = draw(arrays(np.float64, (3,), elements=st.floats(-0.6, 0.6)))
    q = re + 1j * im
    if abs(1.0 - np.dot(q, q)) < 1e-2:
        q = 0.5 * q
    return q


@st.composite
def normalized_spinors(draw):
    return lp.k_from_q(draw(vector_parameters()))


@st.composite
def dense_matrices(draw):
    return draw(arrays(np.float64, (4, 4), elements=st.floats(-2.0, 2.0)))

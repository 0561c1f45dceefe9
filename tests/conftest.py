import os
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

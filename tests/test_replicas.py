"""Float kernels that give the bytes of the numpy expressions they replace.

The probe matmul and cos/sin keep numpy's bits, which the golden files fix:
those tests compare the bytes of the kernel's result with those of the numpy
expression on the same inputs; math.cosh/math.sinh stay within two ulp of
numpy's.  The noise stream is lorentzpol's own, and a process that cannot
import numpy draws the same bytes as one that has it loaded.
"""

import math
import subprocess
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentzpol.probes import NoiseSpec, _simulate, probe_set


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


@settings(max_examples=500)
@given(st.floats(-1e4, 1e4))
def test_cos_sin_match_numpy(theta):
    assert bits(math.cos(theta / 2.0)) == bits(np.cos(theta / 2.0))
    assert bits(math.sin(theta / 2.0)) == bits(np.sin(theta / 2.0))


@settings(max_examples=500)
@given(st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16), st.floats(1e-3, 1e3))
@example([0.0] * 12 + [-0.0] * 4, 1.0)  # a sum of -0.0 products is +0.0
def test_probe_outputs_match_matmul(entries, intensity):
    m = np.array(entries).reshape(4, 4)
    expected = [m @ p for p in probe_set(intensity)]
    assert bits(_simulate(m.tolist(), intensity).stokes) == bits(expected)


@given(st.floats(0.0, 30.0))
def test_math_cosh_sinh_stay_within_two_ulp_of_numpy(beta):
    # boost_mueller uses math.cosh/math.sinh, which may differ from numpy's in the last bits
    for ours, theirs in ((math.cosh(beta), np.cosh(beta)), (math.sinh(beta), np.sinh(beta))):
        assert abs(ours - theirs) <= 2 * math.ulp(float(theirs))


SIMULATE_CASES = [(0, 1e-4, 1.0), (7, 0.01, 0.5), (2**64 + 5, 0.3, 2.0), (2**31 - 1, 1e-9, 1e-3)]
SIMULATE_ROWS = [[1.0, 0.1, -0.2, 0.05], [0.3, 0.9, 0.0, -0.1], [0.0, -0.4, 0.8, 0.2], [0.1, 0.0, 0.3, 1.1]]
SIMULATE_SCRIPT = f"""import sys
sys.modules["numpy"] = None  # an import of numpy now fails
from lorentzpol.probes import NoiseSpec, _simulate
for seed, sigma, intensity in {SIMULATE_CASES!r}:
    print(_simulate({SIMULATE_ROWS!r}, intensity, NoiseSpec(sigma, seed)).stokes)
"""


def test_simulate_noise_without_numpy_matches_numpy():
    with_numpy = [_simulate(SIMULATE_ROWS, intensity, NoiseSpec(sigma, seed)).stokes
                  for seed, sigma, intensity in SIMULATE_CASES]
    without = subprocess.run([sys.executable, "-c", SIMULATE_SCRIPT], capture_output=True, text=True,
                             check=True, timeout=60).stdout
    assert without == "".join(f"{stokes}\n" for stokes in with_numpy)  # float repr round-trips exactly

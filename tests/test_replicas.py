"""Float kernels that give the bytes of the numpy expressions they replace.

The probe matmul, cos/sin and the noise stream keep numpy's bits, which the
golden files fix: those tests compare the bytes of the kernel's result with
those of the numpy expression on the same inputs; math.cosh/math.sinh stay
within two ulp of numpy's.  The noise stream of ``_pcg64`` is compared with
``np.random.default_rng(seed)`` draws.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentzpol import _pcg64
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


def numpy_normal(seed: int, sigma: float, count: int):
    return np.random.default_rng(seed).normal(0.0, sigma, count)


@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**32, 2**64, 2**128 + 1])  # 2**128 + 1: five entropy words
@pytest.mark.parametrize("sigma", [5e-300, 1e-4, 1e300])
def test_pcg64_normal_matches_numpy(seed, sigma):
    assert bits(_pcg64.normal(seed, sigma, 16)) == bits(numpy_normal(seed, sigma, 16))


@settings(max_examples=300)
@given(st.integers(0, 2**300 - 1))
def test_pcg64_normal_matches_numpy_on_any_seed(seed):
    assert bits(_pcg64.normal(seed, 1.0, 16)) == bits(numpy_normal(seed, 1.0, 16))


def test_pcg64_normal_stream_takes_tail_and_wedge():
    # A draw that reads more than one uint64 left the fast path: it ends in the tail of strip 0,
    # beyond r, or passed the wedge test of strips 1-255, inside r.
    read = 0

    def counted(words):
        nonlocal read
        for word in words:
            read += 1
            yield word

    stream = counted(_pcg64._uint64s(*_pcg64._seed_state(2024)))
    draws, tail, wedge = [], 0, 0
    for _ in range(200_000):
        before = read
        draws.append(_pcg64._standard_normal(stream))
        if read - before > 1:
            tail += abs(draws[-1]) > _pcg64._NOR_R
            wedge += abs(draws[-1]) <= _pcg64._NOR_R
    assert tail > 10 and wedge > 1000
    assert bits(draws) == bits(np.random.default_rng(2024).standard_normal(200_000))


def test_pcg64_negative_seed_raises_numpy_error():
    for draw in (lambda: _pcg64.normal(-1, 1.0, 16), lambda: numpy_normal(-1, 1.0, 16)):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            draw()


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

"""The float kernels against the numpy expressions they replace, bit for bit.

The kernels compute without numpy; where numpy rounds with a fused multiply-add
(BLAS dots, SIMD complex products) they round the same way through ``_fma``.
Each test compares the bytes of the kernel's result with those of the numpy
expression that earlier releases evaluated on the same inputs.  The noise
stream of ``_pcg64`` is compared with ``np.random.default_rng(seed)`` draws.
"""

import cmath
import math
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentzpol import _pcg64
from lorentzpol.algebra import _cdiv, _cmul, _fma, _norm2, _sqrt, _square
from lorentzpol.probes import NoiseSpec, _simulate, probe_set

finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(-1e3, 1e3, allow_nan=False)
complexes = st.builds(complex, moderate, moderate)


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


def reference_fma(a: float, b: float, c: float) -> float:
    """a*b + c in exact rational arithmetic, rounded once to the nearest double."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:  # an exact zero keeps IEEE's sign: that of a*b + c when both are zeros
        return a * b + c if a * b == 0.0 and c == 0.0 else 0.0
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def double_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=2000)
@given(finite, finite, finite)
@example(1e308, 10.0, -1.7976931348623157e308)  # the product overflows, the sum does not
@example(1e-300, 1e-300, 0.0)                   # the product underflows
@example(-0.0, 5.0, -0.0)                       # signed zeros
@example(3e-160, 3e-160, -9e-320)               # the product error is subnormal
def test_fma_matches_fraction_reference(a, b, c):
    assert double_bits(_fma(a, b, c)) == double_bits(reference_fma(a, b, c))


@given(st.sampled_from([math.inf, -math.inf, math.nan]), finite, finite)
def test_fma_non_finite_follows_ieee(bad, b, c):
    for args in ((bad, b, c), (b, bad, c), (b, c, bad)):
        expected = args[0] * args[1] + args[2]
        got = _fma(*args)
        assert math.isnan(got) if math.isnan(expected) else got == expected


@settings(max_examples=500)
@given(st.lists(complexes, min_size=3, max_size=3))
@example([complex(0.0, -0.0)] * 3)
@example([0j, 0j, complex(2.2250738585e-313, -3.36085386909507e-28)])  # a product underflows to -0.0
def test_complex_dot_matches_numpy(q):
    v = np.array(q)
    assert bits(_square(q)) == bits(np.dot(v, v))


@settings(max_examples=500)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_real_dot_matches_numpy(n):
    v = np.array(n)
    assert bits(_norm2(n)) == bits(np.dot(v, v))


@settings(max_examples=500)
@given(st.lists(complexes, min_size=3, max_size=3), complexes)
def test_array_complex_product_matches_numpy(q, k0):
    # 1j*q*k0 as k_from_q evaluated it on a (3,) array and a complex128 scalar
    expected = 1j * np.array(q) * np.complex128(k0)
    assert bits([_cmul(1j * z, k0) for z in q]) == bits(expected)


@settings(max_examples=500)
@given(complexes, complexes)
def test_complex_division_matches_numpy(a, b):
    if b == 0:
        b = 1.0
    with np.errstate(all="ignore"):  # a subnormal divisor overflows, in both forms
        assert bits(_cdiv(a, b)) == bits(np.complex128(a) / np.complex128(b))
        assert bits(_cdiv(1.0, b)) == bits(1.0 / np.complex128(b))


@settings(max_examples=500)
@given(complexes)
@example(1j)
@example(complex(-0.0, -4.0))
def test_complex_sqrt_matches_numpy(z):
    # k_from_q takes no root below its singularity cut, and subnormal parts round differently
    z = complex(*[x if abs(x) >= 1e-300 else 0.0 for x in (z.real, z.imag)])
    if abs(z) < 1e-12:
        z += 1.0
    assert bits(_sqrt(z)) == bits(np.sqrt(np.complex128(z)))
    if z.real != 0.0:
        assert bits(cmath.sqrt(z)) == bits(np.sqrt(np.complex128(z)))


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

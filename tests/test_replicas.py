"""The float kernels against the numpy expressions they replace, bit for bit.

The kernels compute without numpy; where numpy rounds with a fused multiply-add
(BLAS dots, SIMD complex products) they round the same way through ``_fma``.
Each test compares the bytes of the kernel's result with those of the numpy
expression that earlier releases evaluated on the same inputs.
"""

import cmath
import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentzpol.algebra import _cdiv, _cmul, _fma, _norm2, _sqrt, _square
from lorentzpol.probes import _simulate, probe_set

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

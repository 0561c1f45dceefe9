import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lorentzpol import jsonio

EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
    1.0, -2.0, 3.0, 1e16, 2.0**53,                 # integral floats
    0.1, 1.0 / 3.0, 2.0 / 3.0, np.pi, -np.e, 1e-5,  # 17 significant digits
]


def elementwise(value) -> str:
    """dumps on the same numbers as Python floats in nested lists."""
    return jsonio.dumps(np.asarray(value, dtype=float).tolist())


def test_array_fast_path_matches_elementwise_edge_values():
    values = np.array(EDGE_VALUES)
    assert jsonio.dumps(values) == elementwise(values)
    for x in EDGE_VALUES:
        assert jsonio.dumps(np.array(x)) == jsonio.format_number(x)
    matrix = np.array(EDGE_VALUES[:16]).reshape(4, 4)
    assert jsonio.dumps(matrix) == elementwise(matrix)
    assert jsonio.dumps(matrix.T) == elementwise(matrix.T)  # non-contiguous view
    assert jsonio.dumps(np.array([-0.0, 5e-324])) == "[-0, 4.9406564584124654e-324]"
    assert jsonio.dumps(np.array([[1.0, 0.1]])) == "[[1, 0.10000000000000001]]"


@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_array_fast_path_matches_elementwise(values):
    assert jsonio.dumps(values) == elementwise(values)
    assert jsonio.dumps({"x": values}) == '{"x": ' + elementwise(values) + "}"


def test_complex_parts_and_float32():
    k = np.array([0.1 + 0.2j, -0.0 - 1j / 3.0])
    assert jsonio.dumps(k.real) == elementwise(k.real)
    assert jsonio.dumps(k.imag) == elementwise(k.imag)
    single = np.array([0.1, -2.5], dtype=np.float32)
    assert jsonio.dumps(single) == elementwise(single)


def test_non_float_arrays_keep_elementwise_path():
    assert jsonio.dumps(np.array([1, -2])) == "[1, -2]"
    assert jsonio.dumps(np.array([True, False])) == "[true, false]"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_non_finite_raises_format_number_message(bad, shape):
    with pytest.raises(ValueError) as expected:
        jsonio.format_number(bad)
    values = np.ones(shape)
    values[(-1,) * len(shape)] = bad
    with pytest.raises(ValueError) as got:
        jsonio.dumps({"payload": values})
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("x", EDGE_VALUES)
def test_scalars_and_nested_dicts_match_format_number(x):
    text = jsonio.format_number(x)
    for value in (float(x), np.float64(x)):
        assert jsonio.dumps(value) == text
        nested = {"a": {"b": value, "c": [value, {"d": value}]}, "e": value}
        assert jsonio.dumps(nested) == '{"a": {"b": %s, "c": [%s, {"d": %s}]}, "e": %s}' % ((text,) * 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scalars_raise_format_number_message(bad):
    with pytest.raises(ValueError) as expected:
        jsonio.format_number(bad)
    for value in (bad, np.float64(bad), {"a": {"b": bad}}, {"a": [np.float64(bad)]}):
        with pytest.raises(ValueError) as got:
            jsonio.dumps(value)
        assert str(got.value) == str(expected.value)

import math

import numpy as np
import pytest

from lorentzpol import jsonio

EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
    1.0, -2.0, 3.0, 1e16, 2.0**53,                 # integral floats
    0.1, 1.0 / 3.0, 2.0 / 3.0, np.pi, -np.e, 1e-5,  # 17 significant digits
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_non_finite_raises_format_number_message(bad, shape):
    with pytest.raises(ValueError) as expected:
        jsonio.format_number(bad)
    values = np.ones(shape)
    values[(-1,) * len(shape)] = bad
    values = values.tolist()  # nested lists of floats, the last one bad
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

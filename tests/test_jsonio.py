import json
import math

import numpy as np
import pytest

from lorentzpol import jsonio

EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
    1.0, -2.0, 3.0, 1e16, 2.0**53,                 # integral floats
    0.1, 1.0 / 3.0, 2.0 / 3.0, np.pi, -np.e, 1e-5,  # 17 significant digits
]


@pytest.mark.parametrize("x", EDGE_VALUES)
def test_floats_are_written_in_17_digits(x):
    for value in (float(x), np.float64(x)):
        text = jsonio.dumps(value)
        assert text == "%.17g" % x
        assert float(text) == x and math.copysign(1.0, float(text)) == math.copysign(1.0, x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise(bad):
    for value in (bad, np.float64(bad)):
        with pytest.raises(ValueError) as got:
            jsonio.dumps(value)
        assert str(got.value) == f"non-finite number in JSON output: {bad!r}"


@pytest.mark.parametrize("text", ["", "NearPiRotation: trace + 1 = 0.0", 'a "quoted" word', "back\\slash",
                                  "two\nlines", '\\"\n\\\\"'])
def test_strings_read_back_unchanged(text):
    quoted = jsonio.dumps(text)
    assert quoted.startswith('"') and json.loads(quoted) == text

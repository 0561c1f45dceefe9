"""Fuzz of the CLI's measurement reader: every generated file ends in a documented exit code.

The files start from simulated sets on each `recover --model auto` branch and are
damaged: entries replaced by NaN/Infinity tokens, values past the envelope (1e200,
5e-324, 10**400), strings, dicts or null; vectors of 3 or 5 entries, dicts or strings
in a vector's place, missing keys; or the text cut short.
"""

import contextlib
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorentzpol as lp
from lorentzpol.cli import main

# the README's exit-code table, for the two commands that read measurements
CODES = {"recover": {0, 2, 4, 5}, "classify": {0, 1, 2, 5}}
COMMANDS = [("recover", "-", "--model", model) for model in ("auto", "lorentz", "rotation", "raw")]
COMMANDS.append(("classify", "-"))

BASES = [
    json.loads(lp.simulate_measurements(matrix, intensity).to_json())
    for matrix, intensity in [
        (np.eye(4), 1.0),                                                # rotation
        (lp.boost_mueller(3, 0.7), 1.3),                                  # lorentz
        (lp.rotation_mueller(1, np.pi), 1.0),                             # near-pi rotation: exit 4
        (lp.boost_mueller(3, 0.5) @ lp.rotation_mueller(1, np.pi), 0.7),  # degenerate trace: exit 4
        (2.0 * np.eye(4), 1.0),                                           # not-lorentzian
    ]
]
# entries as JSON source text
NUMBERS = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e200", "-1e200", "5e-324", "1" + "0" * 400,
                     "-1" + "0" * 400, "0", "-0.0"]),
)
ENTRIES = st.one_of(NUMBERS, st.sampled_from(['"1"', '"abc"', '{"a": 1}', "{}", "[1, 2]", "null", "true"]))
SHAPES = st.sampled_from(["missing", "3 entries", "5 entries", "dict", "string"])


@st.composite
def measurement_texts(draw):
    base = draw(st.sampled_from(BASES))
    fields = {"intensity": repr(float(base["intensity"]))}
    fields.update({name: [repr(float(x)) for x in base["outputs"][name]] for name in "FABC"})
    slots = [("intensity", None)] + [(name, i) for name in "FABC" for i in range(4)]
    for k in draw(st.sets(st.integers(0, len(slots) - 1), max_size=4)):
        name, i = slots[k]
        if i is None:
            fields[name] = draw(ENTRIES)
        else:
            fields[name][i] = draw(ENTRIES)
    for name, shape in draw(st.dictionaries(st.sampled_from("FABC"), SHAPES, max_size=2)).items():
        if shape == "missing":
            del fields[name]
        elif shape == "3 entries":
            fields[name] = fields[name][:3]
        elif shape == "5 entries":
            fields[name] = fields[name] + ["0"]
        else:
            fields[name] = '{"a": 1}' if shape == "dict" else '"1 0 0 0"'
    outputs = ", ".join(f'"{name}": ' + (value if isinstance(value, str) else f"[{', '.join(value)}]")
                        for name, value in fields.items() if name in "FABC")
    parts = {"intensity": f'"intensity": {fields["intensity"]}', "outputs": f'"outputs": {{{outputs}}}'}
    parts.pop(draw(st.sampled_from([None] * 8 + ["intensity", "outputs"])), None)  # a missing key
    text = "{" + ", ".join(parts.values()) + "}"
    if draw(st.integers(0, 9)) == 0:  # malformed JSON: the text cut short
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def run(argv, text):
    """main(argv) with text on stdin; returns (exit code, stdout, stderr)."""
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))  # an exception escaping here would be a traceback
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def finite_json(text):
    return json.loads(text, parse_constant=pytest.fail)


@settings(max_examples=300)
@given(measurement_texts())
def test_cli_ends_every_file_in_a_documented_code(text):
    for argv in COMMANDS:
        code, out, err = run(argv, text)
        assert code in CODES[argv[0]], (argv, code, err)
        assert "Traceback" not in err
        if err:  # one error line, or one JSON report with an "error" key
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert err.startswith("error: ") or "error" in finite_json(err), err
        if code == 2:
            assert (out, err[:7]) == ("", "error: ")
        elif argv[0] == "recover":
            assert (out == "") == (code != 0) and (err == "") == (code == 0)
            finite_json(out or err)
        else:
            assert err == "" and out.count("\n") == 1
            assert out.split(" ", 1)[0] == {0: "lorentz", 1: "rotation", 5: "not-lorentzian"}[code]

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lorentzpol as lp
from lorentzpol import cli, lorentz, rotation
from lorentzpol.cli import main
from lorentzpol.errors import NotLorentzType

from conftest import (BUFFERED, GOLDEN, GOLDEN_RUNS, LN2_TEXT, dense_matrices, golden_run, reference_dumps,
                      run_process, unit_quaternions, vector_parameters)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_measurements(tmp_path, matrix, name="meas.json", intensity=1.0):
    ms = lp.simulate_measurements(matrix, intensity)
    path = tmp_path / name
    path.write_text(ms.to_json() + "\n")
    return path


def test_simulate_boost_values(capsys):
    code, out, err = run_cli(capsys, "simulate", "--boost", "3", "--beta", LN2_TEXT,
                             "--intensity", "1")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert_allclose(data["outputs"]["F"], [1.25, 0, 0, 0.75], atol=1e-12)
    assert_allclose(data["outputs"]["C"], [2, 0, 0, 2], atol=1e-12)


def test_simulate_identity_echoes_probes(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--matrix", "identity")
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["A"] == [1, 1, 0, 0]


def test_simulate_deterministic_bytes(capsys):
    argv = ("simulate", "--boost", "3", "--beta", "0.9", "--noise", "0.01", "--seed", "7")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("argv, code", [
    (("simulate", "--intensity", "0", "--matrix", "identity"), 3),
    (("simulate", "--intensity", "-2", "--matrix", "identity"), 3),
    (("simulate", "--boost", "5", "--beta", "1"), 2),
    (("simulate", "--boost", "3"), 2),                       # missing --beta
    (("simulate",), 2),                                      # no element
    (("simulate", "--boost", "3", "--beta", "1", "--matrix", "identity"), 2),
    (("simulate", "--quaternion", "1", "1", "0", "0"), 2),   # not unit norm
    (("simulate", "--matrix", "1", "2", "3"), 2),            # wrong count
    (("simulate", "--matrix", "identity", "--noise", "-1"), 2),
    (("simulate", "--matrix", "identity", "--noise", "nan"), 2),
    (("simulate", "--matrix", "identity", "--noise", "inf"), 2),
    (("simulate", "--qparam", "nan", "0", "0"), 2),           # NaN k: NonRealResult
    (("simulate", "--quaternion", "nan", "nan", "nan", "nan"), 2),  # NaN norm: NormViolation
])
def test_simulate_error_exit_codes(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""


def test_simulate_singular_qparam_message(capsys):
    code, out, err = run_cli(capsys, "simulate", "--qparam", "1", "0", "0")
    assert (code, out, err) == (2, "", "error: 1 - q.q = 0j is singular\n")


@pytest.mark.parametrize("command", ["recover", "classify"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-400", "abc"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    path = write_measurements(tmp_path, lp.boost_mueller(3, 0.5))
    code, out, err = run_cli(capsys, command, str(path), "--tol", tol)
    assert code == 2 and out == "" and "Traceback" not in err
    # argparse's usage, then one error line
    assert [line for line in err.splitlines() if "error" in line] == [
        f"lorentzpol {command}: error: argument --tol: must be a finite positive number, got {tol!r}"
    ]


def test_simulate_qparam_round_trip(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--qparam", "0", "0", "-0.3333333333333333")
    assert code == 0
    data = json.loads(out)
    assert_allclose(data["outputs"]["F"], [1.25, 0, 0, 0.75], atol=1e-12)


def test_recover_raw(tmp_path, capsys):
    path = write_measurements(tmp_path, lp.boost_mueller(3, np.log(2.0)))
    code, out, _ = run_cli(capsys, "recover", str(path), "--model", "raw")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["matrix"]
    assert_allclose(data["matrix"], lp.boost_mueller(3, np.log(2.0)), atol=1e-12)


def test_recover_rotation_identity(tmp_path, capsys):
    path = write_measurements(tmp_path, np.eye(4))
    code, out, _ = run_cli(capsys, "recover", str(path), "--model", "rotation")
    assert code == 0
    data = json.loads(out)
    assert data["quaternion"] == [1, 0, 0, 0]
    assert data["lorentz_residuals"] == [0, 0, 0, 0]


def test_recover_lorentz_schema_and_values(tmp_path, capsys):
    path = write_measurements(tmp_path, lp.boost_mueller(3, np.log(2.0)))
    code, out, _ = run_cli(capsys, "recover", str(path), "--model", "lorentz")
    assert code == 0
    data = json.loads(out)
    assert list(data) == [
        "delta", "M", "N", "k", "q", "round_trip_max_dev", "lorentz_residuals",
    ]
    assert_allclose(data["q"]["re"], [0, 0, -1.0 / 3.0], atol=1e-12)
    assert_allclose(data["q"]["im"], [0, 0, 0], atol=1e-12)
    assert data["round_trip_max_dev"] < 1e-10


def test_recover_auto_classifies(tmp_path, capsys):
    path = write_measurements(tmp_path, np.eye(4))
    code, out, _ = run_cli(capsys, "recover", str(path), "--model", "auto")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "rotation"
    assert data["quaternion"] == [1, 0, 0, 0]

    path = write_measurements(tmp_path, lp.boost_mueller(3, 0.7), name="boost.json")
    code, out, _ = run_cli(capsys, "recover", str(path), "--model", "auto")
    assert code == 0
    assert json.loads(out)["classification"] == "lorentz"

    path = write_measurements(tmp_path, 2.0 * np.eye(4), name="scaled.json")
    code, out, _ = run_cli(capsys, "recover", str(path), "--model", "auto")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "not-lorentzian"
    assert "quaternion" not in data and "delta" not in data
    assert data["round_trip_max_dev"] == 1  # rebuild cannot represent the scaling


def test_recover_lorentz_rejects_non_lorentzian(tmp_path, capsys):
    path = write_measurements(tmp_path, 2.0 * np.eye(4))
    code, out, err = run_cli(capsys, "recover", str(path), "--model", "lorentz")
    assert code == 5
    assert out == ""
    report = json.loads(err)
    assert report["lorentz_residuals"] == [3, 0, 0, 0]


def test_recover_rotation_rejects_boost(tmp_path, capsys):
    path = write_measurements(tmp_path, lp.boost_mueller(3, 0.7))
    code, out, err = run_cli(capsys, "recover", str(path), "--model", "rotation")
    assert code == 5
    assert "NotRotationType" in json.loads(err)["error"]


def test_recover_degenerate_trace_partial_report(tmp_path, capsys):
    path = write_measurements(tmp_path, np.diag([1.0, -1.0, -1.0, 1.0]))
    code, out, err = run_cli(capsys, "recover", str(path), "--model", "lorentz")
    assert code == 4
    assert out == ""
    assert "nan" not in err.lower()
    report = json.loads(err)
    assert "DegenerateTrace" in report["error"]
    assert_allclose(report["matrix"], np.diag([1.0, -1.0, -1.0, 1.0]))


def test_recover_noisy_rotation_with_loose_tol(tmp_path, capsys):
    ms = lp.simulate_measurements(lp.rotation_mueller(2, 0.8), 1.0, lp.NoiseSpec(1e-3, 42))
    path = tmp_path / "noisy.json"
    path.write_text(ms.to_json() + "\n")
    # strict tolerance refuses the noisy block
    code, _, _ = run_cli(capsys, "recover", str(path), "--model", "rotation")
    assert code == 5
    # an explicit loose tolerance lets the extraction run and reports the damage
    code, out, err = run_cli(capsys, "recover", str(path), "--model", "auto", "--tol", "0.05")
    assert code == 0, err
    data = json.loads(out)
    assert data["classification"] == "rotation"
    assert_allclose(data["quaternion"], [np.cos(0.4), 0, np.sin(0.4), 0], atol=5e-3)
    assert 1e-5 < data["round_trip_max_dev"] < 1e-2


def test_recover_near_pi_rotation_exit_code(tmp_path, capsys):
    path = write_measurements(tmp_path, lp.rotation_mueller(1, np.pi))
    code, _, err = run_cli(capsys, "recover", str(path), "--model", "rotation")
    assert code == 4
    assert "NearPiRotation" in json.loads(err)["error"]


def test_recover_rebuild_failure_exit_code(tmp_path, capsys):
    # at beta = 17.5 the classifier still calls the set lorentz at the default tol,
    # and the rebuild from k then fails its norm check after cancellation
    path = tmp_path / "boost17.json"
    path.write_text(lp.simulate_measurements(lp.boost_mueller(3, 17.5), 1.0).to_json())
    code, out, err = run_cli(capsys, "recover", str(path), "--model", "lorentz")
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"].startswith(("NormViolation", "NonRealResult"))


def test_recover_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "recover", str(bad))[0] == 2
    assert run_cli(capsys, "recover", str(tmp_path / "missing.json"))[0] == 2
    empty = tmp_path / "empty.json"
    empty.write_text('{"intensity": 1.0}')
    assert run_cli(capsys, "recover", str(empty))[0] == 2


NON_FINITE_INPUTS = {
    "nan_in_f": '{"intensity": 1, "outputs": {"F": [NaN, 0, 0, 0], "A": [1, 1, 0, 0],'
                ' "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}',
    "infinite_intensity": '{"intensity": Infinity, "outputs": {"F": [1, 0, 0, 0],'
                          ' "A": [1, 1, 0, 0], "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}',
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
@pytest.mark.parametrize("command", [("recover", "--model", "auto"), ("recover", "--model", "lorentz"),
                                     ("classify",)])
def test_non_finite_input_exits_2(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(NON_FINITE_INPUTS[name])
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


NOT_AN_OBJECT = ('expected an object with "intensity" and "outputs", and "outputs" an object holding'
                 ' "F", "A", "B" and "C"')
# each malformed file and the reason its one-line error gives after "malformed measurement JSON: "
MALFORMED_INPUTS = {
    "dict_entry": ('{"intensity": 1, "outputs": {"F": {"a": 1}, "A": [1, 1, 0, 0],'
                   ' "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}', "Stokes vector entries must be numbers, not dict"),
    "dict_in_vector": ('{"intensity": 1, "outputs": {"F": [1, 0, 0, {}], "A": [1, 1, 0, 0],'
                       ' "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}', "Stokes vector entries must be numbers, not dict"),
    "deep_nesting": ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    "string_intensity": ('{"intensity": "1", "outputs": {"F": [1, 0, 0, 0], "A": [1, 1, 0, 0],'
                         ' "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}', "intensity entries must be numbers, not strings"),
    "string_entry": ('{"intensity": 1, "outputs": {"F": ["1", "0", "0", "0"], "A": [1, 1, 0, 0],'
                     ' "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}', "Stokes vector entries must be numbers, not strings"),
    # a file or an "outputs" that is no object: each once gave a Python subscript error
    "list_file": ("[1, 2]", NOT_AN_OBJECT),
    "null_file": ("null", NOT_AN_OBJECT),
    "number_file": ("3", NOT_AN_OBJECT),
    "string_outputs": ('{"intensity": 1, "outputs": "FABC"}', NOT_AN_OBJECT),
    "list_outputs": ('{"intensity": 1, "outputs": [1, 2]}', NOT_AN_OBJECT),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
@pytest.mark.parametrize("command", [("recover", "--model", "auto"), ("classify",)])
def test_malformed_input_exits_2(tmp_path, capsys, name, command):
    text, reason = MALFORMED_INPUTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read measurements from ") and len(err.splitlines()) == 1
    assert "malformed measurement JSON: " + reason in err


def test_batch_reports_malformed_file_and_continues(tmp_path, capsys):
    write_measurements(tmp_path, lp.boost_mueller(3, 0.5), name="a_good.json")
    (tmp_path / "b_bad.json").write_text(MALFORMED_INPUTS["dict_in_vector"][0])
    write_measurements(tmp_path, np.eye(4), name="c_good.json")
    code, out, err = run_cli(capsys, "recover", "--batch", str(tmp_path))
    assert code == 2
    assert out.splitlines() == ["a_good.json: ok", "b_bad.json: failed (exit 2)", "c_good.json: ok"]
    assert "malformed measurement JSON" in err and len(err.splitlines()) == 1
    assert (tmp_path / "c_good.recovery.json").exists()


@pytest.mark.parametrize("given", ["missing.json", "-"])
def test_recover_refuses_an_input_file_with_batch(tmp_path, capsys, given):
    write_measurements(tmp_path, np.eye(4), name="a.json")
    code, out, err = run_cli(capsys, "recover", given, "--batch", str(tmp_path))
    assert (code, out, err) == (2, "", "error: give an input file or --batch DIR, not both\n")
    assert not (tmp_path / "a.recovery.json").exists()


def test_batch_reports_unwritable_report_and_continues(tmp_path, capsys):
    write_measurements(tmp_path, lp.boost_mueller(3, 0.5), name="a_good.json")
    write_measurements(tmp_path, np.eye(4), name="b_blocked.json")
    (tmp_path / "b_blocked.recovery.json").mkdir()  # a directory where the report goes
    write_measurements(tmp_path, np.eye(4), name="c_good.json")
    code, out, err = run_cli(capsys, "recover", "--batch", str(tmp_path))
    assert code == 2
    assert out.splitlines() == ["a_good.json: ok", "b_blocked.json: failed (exit 2)", "c_good.json: ok"]
    assert err.startswith("error: cannot write ") and len(err.splitlines()) == 1
    assert "b_blocked.recovery.json" in err
    assert (tmp_path / "c_good.recovery.json").exists()


def test_simulate_overflowing_boost_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "lorentzpol", "simulate", "--boost", "3", "--beta", "800"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "error: measurements must be finite" in result.stderr
    assert len(result.stderr.splitlines()) == 1  # no numpy RuntimeWarnings before it


def _identity_outputs(scale):
    return (f'"F": [{scale}, 0, 0, 0], "A": [{scale}, {scale}, 0, 0], '
            f'"B": [{scale}, 0, {scale}, 0], "C": [{scale}, 0, 0, {scale}]')


# outside the envelope the chain would overflow or divide by zero: infinite
# residuals in the JSON writer, OverflowError from I**2, and I**2 == 0
OUT_OF_RANGE_INPUTS = {
    "huge_outputs": '{"intensity": 1, "outputs": {' + _identity_outputs("1e200") + '}}',
    "huge_intensity": '{"intensity": 1e200, "outputs": {' + _identity_outputs("1e200") + '}}',
    "tiny_intensity": '{"intensity": 1e-300, "outputs": {' + _identity_outputs("1e-300") + '}}',
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_INPUTS))
@pytest.mark.parametrize("command", [("recover", "--model", "auto"), ("recover", "--model", "lorentz"),
                                     ("recover", "--model", "rotation"), ("classify",)])
def test_out_of_range_input_exits_2(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(OUT_OF_RANGE_INPUTS[name])
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "in range" in err
    assert len(err.splitlines()) == 1


def test_batch_reports_out_of_range_files(tmp_path, capsys):
    write_measurements(tmp_path, np.eye(4), name="a_good.json")
    for name, text in OUT_OF_RANGE_INPUTS.items():
        (tmp_path / f"b_{name}.json").write_text(text)
    code, out, err = run_cli(capsys, "recover", "--batch", str(tmp_path))
    assert code == 2
    assert out.splitlines() == ["a_good.json: ok"] + [
        f"b_{name}.json: failed (exit 2)" for name in sorted(OUT_OF_RANGE_INPUTS)]
    assert len(err.splitlines()) == 3 and all("in range" in line for line in err.splitlines())


@pytest.mark.parametrize("intensity", [1e-100, 1e100])
@pytest.mark.parametrize("seed", range(4))
def test_envelope_corners_end_in_documented_codes(tmp_path, capsys, intensity, seed):
    # outputs up to the largest allowed max|output| = 1e50 * I, at both
    # intensity bounds: every model ends in a documented code with finite JSON
    rng = np.random.default_rng(seed)
    outputs = 1e50 * intensity * rng.uniform(-1.0, 1.0, (4, 4))
    outputs[:, 0] = np.abs(outputs[:, 0])
    ms = lp.MeasurementSet(intensity, *outputs)
    path = tmp_path / "corner.json"
    path.write_text(ms.to_json())
    for tol in ("1e-9", "1e300"):  # 1e300 lets every gate pass, down to the rebuild
        for model in ("auto", "lorentz", "rotation", "raw"):
            code, out, err = run_cli(capsys, "recover", str(path), "--model", model, "--tol", tol)
            assert code in (0, 4, 5)
            json.loads(out or err, parse_constant=pytest.fail)
        assert run_cli(capsys, "classify", str(path), "--tol", tol)[0] in (0, 1, 5)


def test_batch_reports_non_finite_file_and_continues(tmp_path, capsys):
    write_measurements(tmp_path, lp.boost_mueller(3, 0.5), name="a_good.json")
    (tmp_path / "b_nan.json").write_text(NON_FINITE_INPUTS["nan_in_f"])
    write_measurements(tmp_path, np.eye(4), name="c_good.json")
    code, out, err = run_cli(capsys, "recover", "--batch", str(tmp_path))
    assert code == 2
    assert out.splitlines() == ["a_good.json: ok", "b_nan.json: failed (exit 2)", "c_good.json: ok"]
    assert "finite" in err
    assert (tmp_path / "c_good.recovery.json").exists()
    assert not (tmp_path / "b_nan.recovery.json").exists()


@pytest.mark.parametrize("element, noise, code, classification", [
    (lp.lorentz_from_k(lp.k_from_q([0.2 + 0.1j, -0.3j, 0.25])), None, 0, "lorentz"),
    (lp.rotation_mueller(2, 0.8), None, 0, "rotation"),
    (lp.boost_mueller(3, 0.5), lp.NoiseSpec(1e-4, 3), 0, "not-lorentzian"),
    (lp.rotation_mueller(1, np.pi), None, 4, None),
], ids=["lorentz", "rotation", "not-lorentzian", "near-pi"])
def test_noisy_recover_computes_residuals_once(tmp_path, capsys, monkeypatch, element, noise, code,
                                               classification):
    # the matrix and the residuals of a set are computed once, by the CLI's names or the library's
    calls = {"reconstruct_mueller": 0, "lorentz_residuals": 0}

    def counted(name, fn):
        def call(ms):
            calls[name] += 1
            return fn(ms)
        return call

    for module, attr, name in ((cli, "reconstruct_mueller", "reconstruct_mueller"),
                               (lorentz, "_mueller_rows", "reconstruct_mueller"),
                               (cli, "lorentz_residuals", "lorentz_residuals"),
                               (lorentz, "lorentz_residuals", "lorentz_residuals")):
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    path = tmp_path / "set.json"
    path.write_text(lp.simulate_measurements(element, 1.0, noise).to_json())
    got, out, err = run_cli(capsys, "recover", str(path))
    assert got == code
    if classification:
        assert json.loads(out)["classification"] == classification
    else:
        assert "NearPiRotation" in json.loads(err)["error"]
    assert calls == {"reconstruct_mueller": 1, "lorentz_residuals": 1}


def _reference_recover(ms, model, tol):
    """(exit code, report) of `recover` on ms, built as a dict from the library's public results
    and written by reference_dumps: the reference for the CLI's one-format report writer."""
    matrix = lp.reconstruct_mueller(ms).tolist()
    residuals = lp.lorentz_residuals(ms)
    values = [residuals.r0, residuals.r1, residuals.r2, residuals.r3]

    def rotation_payload():
        # rotation_from_measurements applies the one rotation gate, is_lorentzian's at tol.  The CLI does not
        # apply recover_quaternion's fixed 1e-6 one, so the quaternion is recover_quaternion's extraction without it
        block = lp.rotation_from_measurements(ms, tol)
        quaternion = rotation._quaternion(block.tolist())
        n0, n1, n2, n3 = quaternion
        norm = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3)
        rebuilt = lp.embed_rotation(lp.quaternion_to_rotation([x / norm for x in quaternion]))
        deviation = max([abs(x - y) for r, d in zip(rebuilt.tolist(), matrix) for x, y in zip(r, d)])
        return {"quaternion": quaternion, "round_trip_max_dev": deviation, "lorentz_residuals": values}

    def lorentz_payload():
        result = lp.recover_parameters(ms)
        mvec, nvec, k, q = result.vectors
        return {"delta": result.delta, "M": mvec, "N": nvec,
                "k": {"re": [z.real for z in k], "im": [z.imag for z in k]},
                "q": {"re": [z.real for z in q], "im": [z.imag for z in q]},
                "round_trip_max_dev": result.round_trip_max_dev, "lorentz_residuals": values}

    try:
        if model == "raw":
            payload = {"matrix": matrix}
        elif model == "rotation":
            payload = rotation_payload()
        elif model == "lorentz":  # the general branch takes every Lorentz-type set, rotations included
            classification = lp.is_lorentzian(matrix, tol)
            if classification is lp.MuellerClass.NOT_LORENTZIAN:
                raise NotLorentzType(f"measurements classify as not-lorentzian at tol {tol:g}, not lorentz")
            payload = lorentz_payload()
        else:
            classification = lp.is_lorentzian(matrix, tol)
            payload = {"classification": classification.value, "tolerance": tol}
            if classification is lp.MuellerClass.ROTATION:
                payload.update(rotation_payload())
            elif classification is lp.MuellerClass.LORENTZ:
                payload.update(lorentz_payload())
            else:
                trip = lp.verify_round_trip(ms)
                payload.update({"matrix": matrix, "lorentz_residuals": values,
                                "max_normalized_residual": trip.residuals.normalized_max})
                if trip.max_deviation is not None:
                    payload["round_trip_max_dev"] = trip.max_deviation
                else:
                    payload["round_trip_error"] = trip.error
    except lp.LorentzpolError as exc:
        return exc.exit_code, reference_dumps({"error": f"{type(exc).__name__}: {exc}", "matrix": matrix,
                                               "lorentz_residuals": values})
    return 0, reference_dumps(payload)


@st.composite
def recover_inputs(draw):
    """A measurement set of every kind the recover chain branches on."""
    kind = draw(st.sampled_from(["lorentz", "rotation", "noisy", "trace-free", "dense"]))
    if kind == "dense":
        element = draw(dense_matrices())
    elif kind == "trace-free":  # a boost after a pi rotation; scaled, it is also not Lorentz-type
        beta, scale = draw(st.floats(0.05, 2.0)), draw(st.sampled_from([1.0, 2.0]))
        element = scale * lp.boost_mueller(3, beta) @ lp.rotation_mueller(1, np.pi)
    elif kind == "rotation" or kind == "noisy" and draw(st.booleans()):
        element = lp.embed_rotation(lp.quaternion_to_rotation(draw(unit_quaternions())))
    else:
        element = lp.lorentz_from_k(lp.k_from_q(draw(vector_parameters())))
    intensity = draw(st.floats(0.5, 2.0))
    sigma = draw(st.sampled_from([1e-6, 1e-4])) if kind == "noisy" else 0.0
    noise = lp.NoiseSpec(sigma * intensity, draw(st.integers(0, 2**31 - 1)))
    return lp.MeasurementSet.from_json(lp.simulate_measurements(element, intensity, noise).to_json())


def _read_back(element, noise=None):
    """A simulated set as recover reads it: through its JSON text."""
    return lp.MeasurementSet.from_json(lp.simulate_measurements(element, 1.0, noise).to_json())


# an input of each stderr report kind, which a run of random draws may miss
@settings(max_examples=300)
@given(recover_inputs(), st.sampled_from(["auto", "lorentz", "rotation", "raw"]),
       st.sampled_from([1e-9, 1e-3]))
@example(_read_back(lp.embed_rotation(lp.quaternion_to_rotation([0, 1, 0, 0]))), "auto", 1e-9)  # NearPiRotation
@example(_read_back(lp.boost_mueller(3, 0.5) @ lp.rotation_mueller(1, np.pi)), "lorentz", 1e-9)  # DegenerateTrace
@example(_read_back(lp.rotation_mueller(2, 0.8), lp.NoiseSpec(1e-4, 3)), "lorentz", 1e-9)  # NotLorentzType
@example(_read_back(lp.boost_mueller(3, 0.7)), "rotation", 1e-9)  # NotRotationType
def test_report_writer_gives_the_bytes_of_the_reference(ms, model, tol):
    with mock.patch("sys.stdin", io.StringIO(ms.to_json())):
        code, out, err = cli._recover_one("-", model, tol)
    assert (code, out or err) == _reference_recover(ms, model, tol)
    assert (out == "") == (code != 0)


@st.composite
def noisy_rotations(draw):
    """A rotation measured with noise up to sigma/I = 4e-4, read back through its JSON text."""
    element = lp.embed_rotation(lp.quaternion_to_rotation(draw(unit_quaternions())))
    intensity = draw(st.floats(0.5, 2.0))
    noise = lp.NoiseSpec(draw(st.floats(0.0, 4e-4)) * intensity, draw(st.integers(0, 2**31 - 1)))
    return lp.MeasurementSet.from_json(lp.simulate_measurements(element, intensity, noise).to_json())


@settings(max_examples=300)
@given(noisy_rotations())
# `simulate --rotation 1 --theta 0.4 --noise 0.0002 --seed 3`: classify said rotation, and the three
# recover runs exited 5 when the rotation branch had gates of its own and --model lorentz its residual test
@example(_read_back(lp.rotation_mueller(1, 0.4), lp.NoiseSpec(2e-4, 3)))
# the mirror diag(1, 1, 1, -1): not Lorentz-type (det -1), and --model lorentz exited 0 on its zero residuals
@example(_read_back(np.diag([1.0, 1.0, 1.0, -1.0])))
def test_classify_auto_and_rotation_share_one_rotation_gate(ms):
    text = ms.to_json()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(io.StringIO()):
        classified = cli.main(["classify", "-", "--tol", "1e-3"])
    with mock.patch("sys.stdin", io.StringIO(text)):
        code, out, err = cli._recover_one("-", "auto", 1e-3)
    auto = (code == 0 and json.loads(out)["classification"] == "rotation"
            or code == 4 and json.loads(err)["error"].startswith("NearPiRotation: "))
    with mock.patch("sys.stdin", io.StringIO(text)):
        code, _, err = cli._recover_one("-", "rotation", 1e-3)
    assert code in (0, 4, 5), err
    assert (classified == 1) == auto == (code in (0, 4))
    # --model lorentz passes the same gate: 5 exactly on the sets classify calls not-lorentzian
    with mock.patch("sys.stdin", io.StringIO(text)):
        code, _, err = cli._recover_one("-", "lorentz", 1e-3)
    assert code in (0, 4, 5), err
    assert (code == 5) == (classified == 5)


# README's rapidity envelope of a simulated boost: past beta = 18 the simulated element itself leaves the group
# in floats (cosh^2 - sinh^2 is -3.0 at beta = 19 and 0.0 at 20), and at 25 the rebuild's norm check fails too
@pytest.mark.parametrize("beta, classification, round_trip_error", [
    ("15", "lorentz", None), ("17", "lorentz", None), ("18", "lorentz", None),
    ("19", "not-lorentzian", None), ("20", "not-lorentzian", None),
    ("25", "not-lorentzian", "NormViolation: "), ("30", "not-lorentzian", None),
])
def test_simulated_boost_rapidity_envelope(capsys, beta, classification, round_trip_error):
    _, text, _ = run_cli(capsys, "simulate", "--boost", "3", "--beta", beta)
    with mock.patch("sys.stdin", io.StringIO(text)):
        code, out, err = cli._recover_one("-", "auto", 1e-9)
    report = json.loads(out)
    assert (code, err, report["classification"]) == (0, "", classification)
    error = report.get("round_trip_error")
    assert error is None if round_trip_error is None else error.startswith(round_trip_error)


@pytest.mark.parametrize("model", ["auto", "lorentz", "rotation", "raw"])
def test_report_writer_raises_the_dumps_error_on_nan(model):
    ms = lp.simulate_measurements(np.eye(4), 1.0)
    rows = cli.reconstruct_mueller(ms)
    r, normalized_max = cli.lorentz_residuals(ms)
    if model == "raw":
        rows[2][1] = math.nan  # the only numbers of a raw report
    else:
        r[2] = math.nan
    with pytest.raises(ValueError, match=r"^non-finite number in JSON output: nan$"):
        cli._report(ms, model, 1e-9, rows, (r, normalized_max))


def test_classify_exit_codes(tmp_path, capsys):
    path = write_measurements(tmp_path, np.eye(4))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 1 and out.startswith("rotation ")

    path = write_measurements(tmp_path, lp.boost_mueller(2, 0.4), name="b.json")
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0 and out.startswith("lorentz ")

    path = write_measurements(tmp_path, 2.0 * np.eye(4), name="s.json")
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 5 and out.startswith("not-lorentzian ")


def test_batch_recovery(tmp_path, capsys):
    write_measurements(tmp_path, lp.boost_mueller(3, 0.5), name="one.json")
    write_measurements(tmp_path, np.eye(4), name="two.json")
    code, out, err = run_cli(capsys, "recover", "--batch", str(tmp_path), "--model", "auto")
    assert code == 0, err
    assert "one.json: ok" in out and "two.json: ok" in out
    for name in ("one", "two"):
        data = json.loads((tmp_path / f"{name}.recovery.json").read_text())
        assert "classification" in data
    # outputs are not reprocessed on a second run
    code, out, _ = run_cli(capsys, "recover", "--batch", str(tmp_path), "--model", "auto")
    assert code == 0
    assert "recovery.json: ok" not in out


def test_batch_propagates_worst_exit_code(tmp_path, capsys):
    write_measurements(tmp_path, lp.boost_mueller(3, 0.5), name="good.json")
    write_measurements(tmp_path, np.diag([1.0, -1.0, -1.0, 1.0]), name="degenerate.json")
    code, out, err = run_cli(capsys, "recover", "--batch", str(tmp_path), "--model", "lorentz")
    assert code == 4
    assert "degenerate.json: failed (exit 4)" in out


@pytest.mark.parametrize("argv, attached", [
    (("--boost", "3", "--beta", "-1e-3"), ("--boost", "3", "--beta=-1e-3")),
    (("--quaternion", "1", "0", "0", "-1e-9"), None),
    (("--qparam", "0.1", "-0.3+0.1j", "0.2"), None),
], ids=["exponent", "quaternion_exponent", "complex"])
def test_simulate_takes_negative_numbers_with_exponent_or_imaginary_part(capsys, argv, attached):
    # argparse's own pattern for negative numbers knows neither form
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert (code, err) == (0, ""), err
    assert json.loads(out)["intensity"] == 1
    if attached:
        assert run_cli(capsys, "simulate", *attached)[1] == out


def test_simulate_into_closed_pipe_exits_141_without_traceback():
    # the reader has gone before the first write, as `simulate ... | head -c 80` can leave it
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "lorentzpol", "simulate", "--boost", "3", "--beta", LN2_TEXT],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=BUFFERED, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")


def test_recover_error_into_closed_stderr_exits_141():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "lorentzpol", "recover", "/nonexistent.json"],
                                stdout=subprocess.PIPE, stderr=write_end, env=BUFFERED, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stdout) == (141, b"")


def test_entry_ends_the_process_without_atexit_hooks():
    # entry() flushes and calls os._exit: interpreter teardown, and atexit with it, never runs
    code = ("import atexit, sys; atexit.register(lambda: print('atexit ran', file=sys.stderr)); "
            "from lorentzpol.cli import entry; sys.argv[1:] = ['simulate', '--boost', '3', '--beta', "
            f"'{LN2_TEXT}']; entry()")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=BUFFERED, timeout=60)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (GOLDEN / "simulate_boost3_ln2.json").read_bytes()


def test_batch_into_pipe_flushes_every_status_line(tmp_path):
    # 500 status lines (8.5 kB) fill stdout's 8 KiB buffer once; the rest leaves in entry()'s flush
    text = lp.simulate_measurements(lp.boost_mueller(3, 0.5), 1.0).to_json()
    names = [f"set_{i:03d}.json" for i in range(500)]
    for name in names:
        (tmp_path / name).write_text(text)
    result = subprocess.run([sys.executable, "-m", "lorentzpol", "recover", "--batch", str(tmp_path)],
                            capture_output=True, text=True, env=BUFFERED, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == [f"{name}: ok" for name in names]


@pytest.mark.parametrize("row", GOLDEN_RUNS, ids=[out or err for *_, out, err in GOLDEN_RUNS])
def test_golden_run(row):
    actual, expected = golden_run(row)
    assert actual == expected


def test_every_golden_is_the_output_of_one_run():
    outputs = [name for *_, out, err in GOLDEN_RUNS for name in (out, err) if name]
    assert sorted(outputs) == sorted(path.name for path in GOLDEN.iterdir())


def test_golden_noisy_recover_bytes():
    # the README pipe, with the process boundary: recover reads stdin until simulate exits
    simulate = subprocess.Popen(
        [sys.executable, "-m", "lorentzpol", "simulate", "--rotation", "1", "--theta", "0.7",
         "--noise", "0.01", "--seed", "7"], stdout=subprocess.PIPE, env=BUFFERED)
    try:
        recover = subprocess.run([sys.executable, "-m", "lorentzpol", "recover", "--model", "auto"],
                                 stdin=simulate.stdout, capture_output=True, env=BUFFERED, timeout=60)
    finally:
        simulate.stdout.close()
        simulate.wait(timeout=60)
    assert (simulate.returncode, recover.returncode, recover.stderr) == (0, 0, b"")
    assert recover.stdout == (GOLDEN / "recover_rotation1_noise_auto.json").read_bytes()


def test_import_loads_no_numpy():
    # import and build the parser, run no command: (exit code, stderr) is (0, b"") unless a blocked import ran
    assert run_process("--help")[::2] == (0, b"")


@pytest.mark.parametrize("element, model, code", [
    ("general", "auto", 0), ("rotation", "auto", 0), ("noisy", "auto", 0),
    ("general", "lorentz", 0), ("rotation", "rotation", 0), ("general", "raw", 0),
    ("general", "batch", 0), ("general", "classify", 0), ("rotation", "classify", 1),
])
def test_recover_and_classify_load_no_numpy(tmp_path, element, model, code):
    matrix = {
        "general": lp.lorentz_from_k(lp.k_from_q([0.2 + 0.1j, -0.3j, 0.25])),
        "rotation": lp.rotation_mueller(2, 0.8),
        "noisy": lp.boost_mueller(3, 0.5),
    }[element]
    noise = lp.NoiseSpec(1e-4, 3) if element == "noisy" else None
    path = tmp_path / "set.json"
    path.write_text(lp.simulate_measurements(matrix, 1.3, noise).to_json())
    if model == "batch":
        argv = ("recover", "--batch", str(tmp_path))
    elif model == "classify":
        argv = ("classify", str(path))
    else:
        argv = ("recover", str(path), "--model", model)
    assert run_process(*argv, allow=("pathlib",) if model == "batch" else ())[::2] == (code, b"")


SIMULATE_SPECS = pytest.mark.parametrize("spec", [
    ("--boost", "3", "--beta", LN2_TEXT), ("--rotation", "1", "--theta", "0.7"),
    ("--quaternion", "0.8", "0.2", "-0.4", "0.4"), ("--qparam", "0.1+0.2j", "-0.3", "0.2j"),
    ("--matrix", "identity"), ("--matrix", *map(str, range(16))),
], ids=["boost", "rotation", "quaternion", "qparam", "identity", "matrix"])


@SIMULATE_SPECS
def test_noiseless_simulate_loads_no_numpy(spec):
    assert run_process("simulate", *spec)[::2] == (0, b"")


@SIMULATE_SPECS
def test_noisy_simulate_loads_no_numpy(spec):
    # the noise is lorentzpol's own stream, Box-Muller on random.Random(seed).random()
    assert run_process("simulate", *spec, "--noise", "1e-3")[::2] == (0, b"")


def test_noisy_simulate_negative_seed_keeps_numpy_error():
    result = subprocess.run([sys.executable, "-m", "lorentzpol", "simulate", "--rotation", "1", "--theta",
                             "0.7", "--noise", "1e-3", "--seed", "-1"], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: expected non-negative integer\n")

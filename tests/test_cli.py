import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lorentzpol as lp
from lorentzpol.cli import main

GOLDEN = Path(__file__).parent / "golden"
LN2_TEXT = "0.6931471805599453"


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
    # at beta = 25, F0 and F3 round to the same double: the residuals are
    # exactly (-I^2, 0, 0, 0), so tol 1 admits the set, and the rebuild from
    # k then fails its norm check after cancellation
    path = tmp_path / "boost25.json"
    path.write_text(lp.simulate_measurements(lp.boost_mueller(3, 25.0), 1.0).to_json())
    code, out, err = run_cli(capsys, "recover", str(path), "--model", "lorentz", "--tol", "1")
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


MALFORMED_INPUTS = {
    "dict_entry": '{"intensity": 1, "outputs": {"F": {"a": 1}, "A": [1, 1, 0, 0],'
                  ' "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}',
    "dict_in_vector": '{"intensity": 1, "outputs": {"F": [1, 0, 0, {}], "A": [1, 1, 0, 0],'
                      ' "B": [1, 0, 1, 0], "C": [1, 0, 0, 1]}}',
    "deep_nesting": "[" * 100000 + "]" * 100000,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
@pytest.mark.parametrize("command", [("recover", "--model", "auto"), ("classify",)])
def test_malformed_input_exits_2(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(MALFORMED_INPUTS[name])
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read measurements from ") and len(err.splitlines()) == 1


def test_batch_reports_malformed_file_and_continues(tmp_path, capsys):
    write_measurements(tmp_path, lp.boost_mueller(3, 0.5), name="a_good.json")
    (tmp_path / "b_bad.json").write_text(MALFORMED_INPUTS["dict_in_vector"])
    write_measurements(tmp_path, np.eye(4), name="c_good.json")
    code, out, err = run_cli(capsys, "recover", "--batch", str(tmp_path))
    assert code == 2
    assert out.splitlines() == ["a_good.json: ok", "b_bad.json: failed (exit 2)", "c_good.json: ok"]
    assert "malformed measurement JSON" in err and len(err.splitlines()) == 1
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


def test_noisy_recover_computes_residuals_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(ms):
        calls.append(ms)
        return lp.lorentz_residuals(ms)

    monkeypatch.setattr("lorentzpol.cli.lorentz_residuals", counted)
    monkeypatch.setattr("lorentzpol.lorentz.lorentz_residuals", counted)
    ms = lp.simulate_measurements(lp.boost_mueller(3, 0.5), 1.0, lp.NoiseSpec(1e-4, 3))
    path = tmp_path / "noisy.json"
    path.write_text(ms.to_json())
    code, out, _ = run_cli(capsys, "recover", str(path))
    assert code == 0 and json.loads(out)["classification"] == "not-lorentzian"
    assert len(calls) == 1


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


def test_pipe_composability():
    simulate = subprocess.run(
        [sys.executable, "-m", "lorentzpol", "simulate", "--boost", "3", "--beta", LN2_TEXT],
        capture_output=True, check=True,
    )
    recover = subprocess.run(
        [sys.executable, "-m", "lorentzpol", "recover", "--model", "auto"],
        input=simulate.stdout, capture_output=True,
    )
    assert recover.returncode == 0, recover.stderr
    data = json.loads(recover.stdout)
    assert data["classification"] == "lorentz"
    assert_allclose(data["q"]["re"], [0, 0, -1.0 / 3.0], atol=1e-12)


def test_golden_simulate_bytes():
    result = subprocess.run(
        [sys.executable, "-m", "lorentzpol", "simulate", "--boost", "3", "--beta", LN2_TEXT],
        capture_output=True, check=True,
    )
    assert result.stdout == (GOLDEN / "simulate_boost3_ln2.json").read_bytes()


def test_golden_recover_bytes():
    result = subprocess.run(
        [sys.executable, "-m", "lorentzpol", "recover", "--model", "lorentz",
         str(GOLDEN / "simulate_boost3_ln2.json")],
        capture_output=True, check=True,
    )
    assert result.stdout == (GOLDEN / "recover_boost3_ln2.json").read_bytes()


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
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")


# runs the CLI in a fresh interpreter, then reports on stderr whether numpy was loaded
NUMPY_PROBE = ("import sys; from lorentzpol.cli import main; code = main(sys.argv[1:]); "
               "print('numpy loaded' if 'numpy' in sys.modules else 'numpy not loaded', file=sys.stderr); "
               "sys.exit(code)")


def _numpy_probe(*argv):
    return subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True, text=True,
                          timeout=60)


def test_import_loads_no_numpy():
    result = subprocess.run([sys.executable, "-c", "import sys, lorentzpol.cli; print('numpy' in sys.modules)"],
                            capture_output=True, text=True, timeout=60)
    assert result.stdout == "False\n", result.stderr


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
    result = _numpy_probe(*argv)
    assert result.returncode == code, result.stderr
    assert result.stderr.splitlines()[-1] == "numpy not loaded"


@pytest.mark.parametrize("spec", [
    ("--boost", "3", "--beta", LN2_TEXT), ("--rotation", "1", "--theta", "0.7"),
    ("--quaternion", "0.8", "0.2", "-0.4", "0.4"), ("--qparam", "0.1+0.2j", "-0.3", "0.2j"),
    ("--matrix", "identity"), ("--matrix", *map(str, range(16))),
], ids=["boost", "rotation", "quaternion", "qparam", "identity", "matrix"])
def test_noiseless_simulate_loads_no_numpy(spec):
    result = _numpy_probe("simulate", *spec)
    assert result.returncode == 0, result.stderr
    assert result.stderr == "numpy not loaded\n"
    noisy = _numpy_probe("simulate", *spec, "--noise", "1e-3")
    assert noisy.returncode == 0 and noisy.stderr == "numpy loaded\n"  # the PCG64 stream needs it

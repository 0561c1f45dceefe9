"""Command-line front end.

Subcommands:
  simulate   run the four-probe protocol on a catalogued or explicit element
  recover    reconstruct the matrix / recover parameters from measurements
  classify   one-line Lorentz-type classification of a measurement file

Exit codes:
  0  success (classify: lorentz-type)
  1  classify only: rotation-type
  2  invalid element spec, bad arguments, unparseable input, or measurements
     outside the envelope (non-finite, or magnitudes out of range; see README)
  3  simulate only: non-positive intensity
  4  recovery singular (degenerate trace, near-pi rotation, singular
     normalization, rebuild off the group); a partial report goes to stderr
  5  measurements incompatible with the requested model (not lorentzian /
     not rotation-type)
  141  stdout or stderr closed by its reader before the output was written

Codes 3-5 are the ``exit_code`` of the LorentzpolError raised; any error
raised while reading input or building the element exits 2.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import jsonio
from .algebra import (MuellerClass, _boost_element, _check_tolerance, _k_from_q, _lorentz_rows, _max_deviation,
                      _norm2, _rotation_element)
from .errors import LorentzpolError
from .probes import MeasurementSet, NoiseSpec, _simulate

# The chain calls its stages by the names of the public functions whose work they do, the
# names benchmark/run.py traces on this module.  Each is bound to that function's float kernel,
# straight-line code over unpacked floats: reconstruct_mueller and lorentz_residuals run once per
# set, and the classification, recovery and round-trip kernels take the rows they made, so that
# nothing is computed twice and no array or result object is built.  Each name stays one call per
# set, so that a traced run times every stage on its own.
from .algebra import _classify as is_lorentzian, _embed as embed_rotation, _rotation_rows as quaternion_to_rotation
from .lorentz import _recover as recover_parameters, _round_trip as verify_round_trip
from .probes import _mueller_rows as reconstruct_mueller, _residuals as lorentz_residuals
from .rotation import _quaternion as recover_quaternion, _rotation_block as rotation_from_measurements

# argparse takes "-1e-3" or "-0.3+0.1j" for an option unless its negative-number pattern matches
NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def build_element(args) -> list:
    """Turn the element flags into the rows of a 4x4 Mueller matrix."""
    given = [
        name for name in ("boost", "rotation", "quaternion", "qparam", "matrix")
        if getattr(args, name) is not None
    ]
    if len(given) != 1:
        raise ValueError(
            "exactly one of --boost/--rotation/--quaternion/--qparam/--matrix is required"
        )
    kind = given[0]
    if kind == "boost":
        if args.beta is None:
            raise ValueError("--boost requires --beta")
        return _boost_element(args.boost, args.beta)
    if kind == "rotation":
        if args.theta is None:
            raise ValueError("--rotation requires --theta")
        return _rotation_element(args.rotation, args.theta)
    if kind == "quaternion":
        return embed_rotation(quaternion_to_rotation(args.quaternion, norm_tol=1e-6))
    if kind == "qparam":
        return _lorentz_rows(_k_from_q(args.qparam))
    tokens = args.matrix
    if tokens == ["identity"]:
        return [[float(i == j) for j in range(4)] for i in range(4)]
    if len(tokens) != 16:
        raise ValueError(f"--matrix needs 'identity' or 16 numbers, got {len(tokens)}")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"bad matrix entry: {exc}") from exc
    return [values[i:i + 4] for i in range(0, 16, 4)]


def cmd_simulate(args) -> int:
    try:
        element = build_element(args)
        noise = NoiseSpec(args.noise, args.seed)
    except (ValueError, LorentzpolError) as exc:
        return _fail(str(exc), 2)
    try:
        ms = _simulate(element, args.intensity, noise)
    except (ValueError, LorentzpolError) as exc:  # ValueError: non-finite or out-of-range outputs
        return _fail(str(exc), getattr(exc, "exit_code", 2))
    print(ms.to_json())
    return 0


def _load_measurements(path: str) -> MeasurementSet:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as file:
            text = file.read()
    return MeasurementSet.from_json(text)


class NotLorentzianInput(LorentzpolError):
    """Residuals rule out a Lorentz-type element under --model lorentz; exit 5, own report."""

    exit_code = 5

    def __init__(self, residuals: tuple[list, float], tol: float):
        r, normalized_max = residuals
        super().__init__(f"normalized residual {normalized_max:.6g} exceeds tol {tol:g}")
        self.report = {
            "error": str(self),
            "lorentz_residuals": r,
            "max_normalized_residual": normalized_max,
            "tolerance": tol,
        }


# Each exit-0 report kind in one format, which gives the bytes of jsonio.dumps on its dict:
# every number slot is jsonio.NUMBER, and a %s slot takes the dumps text of the tolerance or
# of an error message.
def _list(n: int) -> str:
    return "[" + ", ".join([jsonio.NUMBER] * n) + "]"


_MATRIX = "[" + ", ".join([_list(4)] * 4) + "]"
_LORENTZ = (f'"delta": {jsonio.NUMBER}, "M": {_list(3)}, "N": {_list(3)}, '
            f'"k": {{"re": {_list(4)}, "im": {_list(4)}}}, "q": {{"re": {_list(3)}, "im": {_list(3)}}}, '
            f'"round_trip_max_dev": {jsonio.NUMBER}, "lorentz_residuals": {_list(4)}}}')
_ROTATION = f'"quaternion": {_list(4)}, "round_trip_max_dev": {jsonio.NUMBER}, "lorentz_residuals": {_list(4)}}}'
_AUTO = '{"classification": "%s", "tolerance": %%s, '  # then the body of the classification's report
_NOT_LORENTZIAN = (_AUTO % "not-lorentzian" + f'"matrix": {_MATRIX}, "lorentz_residuals": {_list(4)}, '
                   f'"max_normalized_residual": {jsonio.NUMBER}, ')
RAW_REPORT = f'{{"matrix": {_MATRIX}}}'
LORENTZ_REPORT, AUTO_LORENTZ_REPORT = "{" + _LORENTZ, _AUTO % "lorentz" + _LORENTZ
ROTATION_REPORT, AUTO_ROTATION_REPORT = "{" + _ROTATION, _AUTO % "rotation" + _ROTATION
NOT_LORENTZIAN_REPORT = _NOT_LORENTZIAN + f'"round_trip_max_dev": {jsonio.NUMBER}}}'
NOT_LORENTZIAN_ERROR_REPORT = _NOT_LORENTZIAN + '"round_trip_error": %s}'


def _write(template: str, head: tuple, numbers: list, tail: tuple = ()) -> str:
    """template % (*head, *numbers, *tail); a non-finite number raises jsonio's ValueError,
    as jsonio.dumps does on the report's dict."""
    if not all(map(math.isfinite, numbers)):
        jsonio.dumps(numbers)  # raises ValueError: non-finite number in JSON output
    return template % (*head, *numbers, *tail)


def _lorentz_numbers(ms: MeasurementSet, rows: list, r: list) -> list:
    delta, mvec, nvec, (k0, k1, k2, k3), (q1, q2, q3), deviation = recover_parameters(ms, rows)
    return [delta, *mvec, *nvec, k0.real, k1.real, k2.real, k3.real, k0.imag, k1.imag, k2.imag, k3.imag,
            q1.real, q2.real, q3.real, q1.imag, q2.imag, q3.imag, deviation, *r]


def _rotation_numbers(ms: MeasurementSet, rows: list, r: list, tol: float) -> list:
    block = rotation_from_measurements(ms, tol)
    # a loose --tol admits noisy data, so loosen the extraction gate with it
    quaternion = recover_quaternion(block, ortho_tol=max(1e-6, tol))
    norm = math.sqrt(_norm2(quaternion))
    rebuilt = embed_rotation(quaternion_to_rotation([x / norm for x in quaternion]))
    return [*quaternion, _max_deviation(rebuilt, rows), *r]


def _report(ms: MeasurementSet, model: str, tol: float, rows: list, residuals: tuple[list, float]) -> str:
    """The exit-0 report of one measurement set, from its reconstructed rows and its
    residuals; raises LorentzpolError on failure."""
    r, normalized_max = residuals
    if model == "raw":
        return _write(RAW_REPORT, (), [*rows[0], *rows[1], *rows[2], *rows[3]])
    if model == "rotation":
        return _write(ROTATION_REPORT, (), _rotation_numbers(ms, rows, r, tol))
    if model == "lorentz":
        if normalized_max > tol:
            raise NotLorentzianInput(residuals, tol)
        return _write(LORENTZ_REPORT, (), _lorentz_numbers(ms, rows, r))
    # auto
    classification = is_lorentzian(rows, tol)
    head = (jsonio.dumps(tol),)
    if classification is MuellerClass.LORENTZ:
        return _write(AUTO_LORENTZ_REPORT, head, _lorentz_numbers(ms, rows, r))
    if classification is MuellerClass.ROTATION:
        return _write(AUTO_ROTATION_REPORT, head, _rotation_numbers(ms, rows, r, tol))
    deviation, error = verify_round_trip(ms, rows)
    numbers = [*rows[0], *rows[1], *rows[2], *rows[3], *r, normalized_max]
    if error is None:
        return _write(NOT_LORENTZIAN_REPORT, head, numbers + [deviation])
    return _write(NOT_LORENTZIAN_ERROR_REPORT, head, numbers, (jsonio.dumps(error),))


def _recover_one(path: str, model: str, tol: float) -> tuple[int, str, str]:
    """Returns (exit_code, stdout_text, stderr_text) for one input."""
    try:
        ms = _load_measurements(path)
    except Exception as exc:  # whatever stops the read, the input is unusable: exit 2
        return 2, "", f"error: cannot read measurements from {path!r}: {exc}"
    rows, residuals = reconstruct_mueller(ms), lorentz_residuals(ms)
    try:
        return 0, _report(ms, model, tol, rows, residuals), ""
    except LorentzpolError as exc:
        report = exc.report if isinstance(exc, NotLorentzianInput) else {
            "error": f"{type(exc).__name__}: {exc}",
            "matrix": rows,
            "lorentz_residuals": residuals[0],
        }
        return exc.exit_code, "", jsonio.dumps(report)


def cmd_recover(args) -> int:
    if args.batch is not None:
        return _recover_batch(args)
    code, out, err = _recover_one(args.input, args.model, args.tol)
    if out:
        print(out)
    if err:
        print(err, file=sys.stderr)
    return code


def _recover_batch(args) -> int:
    from pathlib import Path  # only a batch walks a directory; one-file processes skip the import

    directory = Path(args.batch)
    if not directory.is_dir():
        return _fail(f"--batch target {directory} is not a directory", 2)
    inputs = sorted(
        p for p in directory.glob("*.json") if not p.name.endswith(".recovery.json")
    )
    if not inputs:
        return _fail(f"no .json files in {directory}", 2)

    worst = 0
    for path in inputs:
        code, out, err = _recover_one(str(path), args.model, args.tol)
        if code == 0:
            target = path.with_name(path.stem + ".recovery.json")
            try:
                target.write_text(out + "\n")
            except OSError as exc:  # e.g. a directory in the report's place: exit 2, go on
                code, err = 2, f"error: cannot write {str(target)!r}: {exc.strerror or exc}"
        if code == 0:
            print(f"{path.name}: ok")
        else:
            print(f"{path.name}: failed (exit {code})")
            if err:
                print(err, file=sys.stderr)
        worst = max(worst, code)
    return worst


def cmd_classify(args) -> int:
    try:
        ms = _load_measurements(args.input)
    except Exception as exc:  # as in _recover_one
        return _fail(f"cannot read measurements from {args.input!r}: {exc}", 2)
    classification = is_lorentzian(reconstruct_mueller(ms), args.tol)
    r, normalized_max = lorentz_residuals(ms)
    values = ", ".join(jsonio.format_number(x) for x in r)
    print(
        f"{classification.value} residuals=[{values}] "
        f"max_normalized={jsonio.format_number(normalized_max)} tol={args.tol:g}"
    )
    return {
        MuellerClass.LORENTZ: 0,
        MuellerClass.ROTATION: 1,
        MuellerClass.NOT_LORENTZIAN: 5,
    }[classification]


def _tolerance(text: str) -> float:
    try:
        return _check_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzpol",
        description="Four-probe Mueller matrix reconstruction and "
                    "Lorentz-type parameter recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate the four-probe protocol")
    sim.add_argument("--intensity", type=float, default=1.0, help="probe intensity (default 1)")
    sim.add_argument("--noise", type=float, default=0.0, help="Gaussian noise std per component")
    sim.add_argument("--seed", type=int, default=0, help="noise generator seed")
    sim.add_argument("--boost", type=int, metavar="AXIS", help="boost element along Stokes axis 1-3")
    sim.add_argument("--beta", type=float, help="boost rapidity")
    sim.add_argument("--rotation", type=int, metavar="AXIS", help="rotation element about Stokes axis 1-3")
    sim.add_argument("--theta", type=float, help="rotation angle in radians")
    sim.add_argument("--quaternion", type=float, nargs=4, metavar="N", help="unit quaternion element")
    sim.add_argument("--qparam", type=complex, nargs=3, metavar="Q", help="complex vector parameter element")
    sim.add_argument("--matrix", nargs="+", metavar="M", help="'identity' or 16 row-major entries")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("recover", help="recover matrix and parameters from measurements")
    rec.add_argument("input", nargs="?", default="-", help="measurement JSON file, '-' for stdin")
    rec.add_argument("--model", choices=("auto", "rotation", "lorentz", "raw"), default="auto")
    rec.add_argument("--tol", type=_tolerance, default=1e-9, help="classification tolerance (default 1e-9)")
    rec.add_argument("--batch", metavar="DIR", help="recover every .json file in DIR, one after another")
    rec.set_defaults(func=cmd_recover)

    cls = sub.add_parser("classify", help="classify measurements by Lorentz type")
    cls.add_argument("input", nargs="?", default="-", help="measurement JSON file, '-' for stdin")
    cls.add_argument("--tol", type=_tolerance, default=1e-9, help="classification tolerance (default 1e-9)")
    cls.set_defaults(func=cmd_classify)
    for sub_parser in (sim, rec, cls):
        sub_parser._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def entry() -> None:
    """Run main() as a process: flush stdout and stderr, then end with os._exit.

    Skipping interpreter teardown saves 10-15 ms per process, on both ends of a
    `simulate | recover` pipe; atexit handlers do not run.  In-process callers use main().
    """
    try:
        code = main()
        sys.stdout.flush()  # a reader that went away shows here, not at interpreter exit
        sys.stderr.flush()
    except BrokenPipeError:  # e.g. `lorentzpol simulate ... | head -c 80`
        code = 141  # 128 + SIGPIPE, as a shell reports a writer killed by the closed pipe
    os._exit(code)


if __name__ == "__main__":
    entry()

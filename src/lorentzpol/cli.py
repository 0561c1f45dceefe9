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
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .algebra import (
    MuellerClass,
    boost_mueller,
    embed_rotation,
    is_lorentzian,
    k_from_q,
    lorentz_from_k,
    quaternion_to_rotation,
    rotation_mueller,
)
from .errors import (
    DegenerateTrace,
    NearPiRotation,
    NonPositiveIntensity,
    NonRealResult,
    NormViolation,
    NotRotation,
    NotRotationType,
    SingularNormalization,
    SingularParameter,
)
from .lorentz import recover_parameters, verify_round_trip
from .probes import MeasurementSet, NoiseSpec, lorentz_residuals, reconstruct_mueller, simulate_measurements
from .rotation import recover_quaternion, rotation_from_measurements


class SpecError(Exception):
    """Invalid element specification (exit 2)."""


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def build_element(args) -> np.ndarray:
    """Turn the element flags into a 4x4 Mueller matrix."""
    given = [
        name for name in ("boost", "rotation", "quaternion", "qparam", "matrix")
        if getattr(args, name) is not None
    ]
    if len(given) != 1:
        raise SpecError(
            "exactly one of --boost/--rotation/--quaternion/--qparam/--matrix is required"
        )
    kind = given[0]
    try:
        if kind == "boost":
            if args.beta is None:
                raise SpecError("--boost requires --beta")
            return boost_mueller(args.boost, args.beta)
        if kind == "rotation":
            if args.theta is None:
                raise SpecError("--rotation requires --theta")
            return rotation_mueller(args.rotation, args.theta)
        if kind == "quaternion":
            return embed_rotation(quaternion_to_rotation(np.array(args.quaternion), norm_tol=1e-6))
        if kind == "qparam":
            return lorentz_from_k(k_from_q(np.array(args.qparam)))
        tokens = args.matrix
        if tokens == ["identity"]:
            return np.eye(4)
        if len(tokens) != 16:
            raise SpecError(f"--matrix needs 'identity' or 16 numbers, got {len(tokens)}")
        try:
            values = [float(t) for t in tokens]
        except ValueError as exc:
            raise SpecError(f"bad matrix entry: {exc}") from exc
        return np.array(values).reshape(4, 4)
    except (ValueError, NormViolation, NonRealResult, SingularParameter) as exc:
        raise SpecError(str(exc)) from exc


def cmd_simulate(args) -> int:
    # an overflowing element (a large --beta) ends in one error line, no RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            element = build_element(args)
            noise = NoiseSpec(args.noise, args.seed)
        except (SpecError, ValueError) as exc:
            return _fail(str(exc), 2)
        try:
            ms = simulate_measurements(element, args.intensity, noise)
        except NonPositiveIntensity as exc:
            return _fail(str(exc), 3)
        except ValueError as exc:  # non-finite or out-of-range outputs
            return _fail(str(exc), 2)
    print(ms.to_json())
    return 0


def _load_measurements(path: str) -> MeasurementSet:
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text()
    return MeasurementSet.from_json(text)


class NotLorentzianInput(Exception):
    """Residuals rule out a Lorentz-type element under --model lorentz."""

    def __init__(self, normalized_max: float, tol: float):
        super().__init__(f"normalized residual {normalized_max:.6g} exceeds tol {tol:g}")
        self.normalized_max = normalized_max
        self.tol = tol


def _rotation_payload(ms: MeasurementSet, tol: float) -> dict:
    block = rotation_from_measurements(ms, tol)
    # a loose --tol admits noisy data, so loosen the extraction gate with it
    quaternion = recover_quaternion(block, ortho_tol=max(1e-6, tol))
    unit = quaternion / np.linalg.norm(quaternion)
    rebuilt = embed_rotation(quaternion_to_rotation(unit))
    deviation = float(np.abs(rebuilt - reconstruct_mueller(ms)).max())
    return {
        "quaternion": quaternion,
        "round_trip_max_dev": deviation,
        "lorentz_residuals": lorentz_residuals(ms).as_array(),
    }


def _recover_payload(ms: MeasurementSet, model: str, tol: float) -> dict:
    """Build the report dict for one measurement set; raises on failure."""
    if model == "raw":
        return {"matrix": reconstruct_mueller(ms)}
    if model == "rotation":
        return _rotation_payload(ms, tol)
    if model == "lorentz":
        residuals = lorentz_residuals(ms)
        if residuals.normalized_max > tol:
            raise NotLorentzianInput(residuals.normalized_max, tol)
        return recover_parameters(ms).to_json_dict()
    # auto
    matrix = reconstruct_mueller(ms)
    classification = is_lorentzian(matrix, tol)
    payload = {"classification": classification.value, "tolerance": tol}
    if classification is MuellerClass.ROTATION:
        payload.update(_rotation_payload(ms, tol))
    elif classification is MuellerClass.LORENTZ:
        payload.update(recover_parameters(ms).to_json_dict())
    else:
        trip = verify_round_trip(ms, tol)
        payload.update({
            "matrix": matrix,
            "lorentz_residuals": trip.residuals.as_array(),
            "max_normalized_residual": trip.residuals.normalized_max,
        })
        if trip.max_deviation is not None:
            payload["round_trip_max_dev"] = trip.max_deviation
        else:
            payload["round_trip_error"] = trip.error
    return payload


def _partial_report(ms: MeasurementSet, message: str) -> str:
    return jsonio.dumps({
        "error": message,
        "matrix": reconstruct_mueller(ms),
        "lorentz_residuals": lorentz_residuals(ms).as_array(),
    })


def _recover_one(path: str, model: str, tol: float) -> tuple[int, str, str]:
    """Returns (exit_code, stdout_text, stderr_text) for one input."""
    try:
        ms = _load_measurements(path)
    except (OSError, ValueError, NonPositiveIntensity) as exc:
        return 2, "", f"error: cannot read measurements from {path!r}: {exc}"
    try:
        payload = _recover_payload(ms, model, tol)
    except NotLorentzianInput as exc:
        report = jsonio.dumps({
            "error": str(exc),
            "lorentz_residuals": lorentz_residuals(ms).as_array(),
            "max_normalized_residual": exc.normalized_max,
            "tolerance": exc.tol,
        })
        return 5, "", report
    except (NotRotationType, NotRotation) as exc:
        return 5, "", _partial_report(ms, f"{type(exc).__name__}: {exc}")
    except (DegenerateTrace, NearPiRotation, SingularNormalization, NormViolation, NonRealResult) as exc:
        return 4, "", _partial_report(ms, f"{type(exc).__name__}: {exc}")
    return 0, jsonio.dumps(payload), ""


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
            path.with_name(path.stem + ".recovery.json").write_text(out + "\n")
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
    except (OSError, ValueError, NonPositiveIntensity) as exc:
        return _fail(f"cannot read measurements from {args.input!r}: {exc}", 2)
    classification = is_lorentzian(reconstruct_mueller(ms), args.tol)
    residuals = lorentz_residuals(ms)
    values = ", ".join(jsonio.format_number(x) for x in residuals.as_array())
    print(
        f"{classification.value} residuals=[{values}] "
        f"max_normalized={jsonio.format_number(residuals.normalized_max)} tol={args.tol:g}"
    )
    return {
        MuellerClass.LORENTZ: 0,
        MuellerClass.ROTATION: 1,
        MuellerClass.NOT_LORENTZIAN: 5,
    }[classification]


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
    rec.add_argument("--tol", type=float, default=1e-9, help="classification tolerance (default 1e-9)")
    rec.add_argument("--batch", metavar="DIR", help="recover every .json file in DIR, one after another")
    rec.set_defaults(func=cmd_recover)

    cls = sub.add_parser("classify", help="classify measurements by Lorentz type")
    cls.add_argument("input", nargs="?", default="-", help="measurement JSON file, '-' for stdin")
    cls.add_argument("--tol", type=float, default=1e-9, help="classification tolerance (default 1e-9)")
    cls.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

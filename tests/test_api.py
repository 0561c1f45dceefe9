"""The public surface: every callable in lorentzpol.__all__ with its parameters and defaults.

A new parameter, a changed default or a new public function fails here, so a tolerance or
any other knob is added only by editing this table.  Exception classes and MuellerClass are
left out: their signatures are Python's own.
"""

import enum
import inspect

import lorentzpol as lp

SIGNATURES = {
    "boost_mueller": ["axis", "beta"],
    "canonical_spinor_sign": ["k"],
    "embed_rotation": ["r"],
    "is_lorentzian": ["m", "tol=1e-09"],
    "k_from_q": ["q"],
    "lorentz_from_k": ["k"],
    "quaternion_to_rotation": ["n", "norm_tol=1e-09"],
    "rotation_mueller": ["axis", "theta"],
    "spinor_norm": ["k"],
    "RecoveryResult": ["delta", "vectors", "round_trip_max_dev", "residuals"],
    "RoundTripReport": ["max_deviation", "residuals", "error=None"],
    "delta_from_trace": ["ms"],
    "mn_from_antisymmetric": ["ms", "delta"],
    "recover_k": ["ms"],
    "recover_parameters": ["ms"],
    "recover_q": ["ms"],
    "verify_round_trip": ["ms"],
    "LorentzResiduals": ["r0", "r1", "r2", "r3", "normalized_max"],
    "MeasurementSet": ["intensity", "f", "a", "b", "c"],
    "NoiseSpec": ["sigma=0.0", "seed=0"],
    "lorentz_residuals": ["ms"],
    "probe_set": ["intensity"],
    "reconstruct_mueller": ["ms"],
    "simulate_measurements": ["m", "intensity", "noise=None"],
    "recover_quaternion": ["r"],
    "rotation_from_measurements": ["ms", "tol=1e-09"],
    "rotation_identity_sum": ["r"],
}


# The public attributes of the value classes: fields, array views, properties and methods.  A method added to or
# removed from one of them fails here.
ATTRIBUTES = {
    "LorentzResiduals": ["normalized_max", "r0", "r1", "r2", "r3"],
    "MeasurementSet": ["a", "b", "c", "f", "from_json", "intensity", "stokes", "to_json"],
    "NoiseSpec": ["seed", "sigma"],
    "RecoveryResult": ["delta", "k", "mvec", "nvec", "q", "residuals", "round_trip_max_dev", "vectors"],
    "RoundTripReport": ["error", "max_deviation", "passed", "residuals"],
}


def parameters(obj) -> list:
    return [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in inspect.signature(obj).parameters.values()]


def test_public_signatures():
    public = {name: getattr(lp, name) for name in lp.__all__}
    got = {name: parameters(obj) for name, obj in public.items()
           if not (isinstance(obj, type) and issubclass(obj, (Exception, enum.Enum)))}
    assert got == SIGNATURES


def public_attributes(cls) -> list:
    return sorted({*cls._fields, *[name for name in dir(cls) if not name.startswith("_")]})


def test_value_class_attributes():
    assert {name: public_attributes(getattr(lp, name)) for name in ATTRIBUTES} == ATTRIBUTES

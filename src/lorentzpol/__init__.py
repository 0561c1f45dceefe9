"""Mueller matrix reconstruction from four polarization probes, with
Lorentz-type classification and compact parameter recovery (unit
quaternions for rotation elements, complex spinor/vector parameters in
general), plus exact inverse constructions for round-trip verification.
"""

from .algebra import (
    MuellerClass,
    boost_mueller,
    canonical_spinor_sign,
    embed_rotation,
    is_lorentzian,
    k_from_q,
    lorentz_from_k,
    quaternion_to_rotation,
    rotation_mueller,
    spinor_norm,
)
from .errors import (
    DegenerateTrace,
    LorentzpolError,
    NearPiRotation,
    NonPositiveIntensity,
    NonRealResult,
    NormViolation,
    NotRotation,
    NotRotationType,
    SingularNormalization,
    SingularParameter,
)
from .lorentz import (
    RecoveryResult,
    RoundTripReport,
    delta_from_trace,
    mn_from_antisymmetric,
    recover_k,
    recover_parameters,
    recover_q,
    verify_round_trip,
)
from .probes import (
    LorentzResiduals,
    MeasurementSet,
    NoiseSpec,
    lorentz_residuals,
    probe_set,
    reconstruct_mueller,
    simulate_measurements,
)
from .rotation import (
    recover_quaternion,
    rotation_from_measurements,
    rotation_identity_sum,
)

__version__ = "0.1.0"

__all__ = [
    "MuellerClass",
    "boost_mueller",
    "canonical_spinor_sign",
    "embed_rotation",
    "is_lorentzian",
    "k_from_q",
    "lorentz_from_k",
    "quaternion_to_rotation",
    "rotation_mueller",
    "spinor_norm",
    "DegenerateTrace",
    "LorentzpolError",
    "NearPiRotation",
    "NonPositiveIntensity",
    "NonRealResult",
    "NormViolation",
    "NotRotation",
    "NotRotationType",
    "SingularNormalization",
    "SingularParameter",
    "RecoveryResult",
    "RoundTripReport",
    "delta_from_trace",
    "mn_from_antisymmetric",
    "recover_k",
    "recover_parameters",
    "recover_q",
    "verify_round_trip",
    "LorentzResiduals",
    "MeasurementSet",
    "NoiseSpec",
    "lorentz_residuals",
    "probe_set",
    "reconstruct_mueller",
    "simulate_measurements",
    "recover_quaternion",
    "rotation_from_measurements",
    "rotation_identity_sum",
]

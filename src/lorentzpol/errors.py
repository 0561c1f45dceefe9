"""Exception types raised by the recovery pipelines; ``exit_code`` is the CLI exit code of each."""


class LorentzpolError(Exception):
    """Base class for all package errors; exit 4 (recovery singular)."""

    exit_code = 4


class NormViolation(LorentzpolError):
    """A parameter that must be normalized is not (quaternion or spinor); exit 4."""


class NonRealResult(LorentzpolError):
    """The rebuild from k has a non-finite entry: k has a NaN or infinite part, or overflows; exit 4.

    Every finite k gives a real matrix, so an imaginary residue shows only as NaN.
    """


class SingularParameter(LorentzpolError):
    """The vector parameter q lies on the singular surface q.q = 1; exit 4."""


class NonPositiveIntensity(LorentzpolError):
    """Probe intensity must be strictly positive; exit 3 (simulate only)."""

    exit_code = 3


class NotRotationType(LorentzpolError):
    """Measurements do not classify as rotation-type; the rotation branch does not apply; exit 5."""

    exit_code = 5


class NotLorentzType(LorentzpolError):
    """Measurements do not classify as Lorentz-type; the general branch does not apply; exit 5."""

    exit_code = 5


class NotRotation(LorentzpolError):
    """A 3x3 matrix is not orthogonal with determinant +1; exit 5."""

    exit_code = 5


class NearPiRotation(LorentzpolError):
    """Quaternion extraction is singular for rotations by (almost) pi; exit 4."""


class DegenerateTrace(LorentzpolError):
    """The matrix trace vanishes; the parameter modulus cannot be extracted; exit 4."""


class SingularNormalization(LorentzpolError):
    """The spinor normalization denominator vanishes for these measurements; exit 4."""

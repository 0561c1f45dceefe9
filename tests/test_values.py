"""The value-type API of the result and input classes: immutable objects that
compare, hash and print by their fields, built positionally or by keyword.
(NoiseSpec's sigma checks are in test_probes.)"""

import copy
import pickle
from types import SimpleNamespace

import pytest

import lorentzpol as lp

STOKES = ((1.3, 0.1, -0.2, 0.3), (1.4, 1.2, 0.0, 0.1), (1.2, 0.0, 1.1, -0.1), (1.5, 0.2, 0.1, 1.3))
RESIDUALS = lp.LorentzResiduals(1e-16, -2e-16, 0.0, 3e-16, 2e-16)

# (class, constructor arguments in positional order, the fields they set in order)
CASES = [
    (lp.NoiseSpec, {"sigma": 1e-3, "seed": 7}, None),
    (lp.MeasurementSet, {"intensity": 1.3, "f": list(STOKES[0]), "a": STOKES[1], "b": STOKES[2],
                         "c": STOKES[3]}, {"intensity": 1.3, "stokes": STOKES}),
    (lp.LorentzResiduals, {"r0": 1e-16, "r1": -2e-16, "r2": 0.0, "r3": 3e-16, "normalized_max": 2e-16},
     None),
    (lp.RecoveryResult, {"delta": 0.9, "vectors": ([0.1, 0.0, -0.2], [0.0, 0.3, 0.0],
                                                   [0.9 + 0j, 0.1j, 0.2 + 0.1j, 0j], [0.1 + 0.2j, 0j, 0.3j]),
                         "round_trip_max_dev": 4e-16, "residuals": RESIDUALS}, None),
    (lp.RoundTripReport, {"max_deviation": None, "residuals": RESIDUALS,
                          "error": "DegenerateTrace: matrix trace 0.0 is not positive"}, None),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _fields(kwargs, fields):
    return kwargs if fields is None else fields


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_fields_are_read_only(cls, kwargs, fields):
    obj = cls(**kwargs)
    for name in [*_fields(kwargs, fields), "extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
    for name in _fields(kwargs, fields):
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert {name: getattr(obj, name) for name in _fields(kwargs, fields)} == _fields(kwargs, fields)


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_equal_fields_compare_and_hash_equal(cls, kwargs, fields):
    one, two = cls(**kwargs), cls(*kwargs.values())  # keyword and positional construction agree
    assert one == two and not one != two
    values = _fields(kwargs, fields).values()
    if _hashable(values):
        assert hash(one) == hash(two) == hash(tuple(values))
    else:
        with pytest.raises(TypeError):
            hash(one)
    for other in (pickle.loads(pickle.dumps(one)), copy.copy(one), copy.deepcopy(one)):
        assert type(other) is cls and other == one


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_same_fields_on_another_class_compare_unequal(cls, kwargs, fields):
    obj = cls(**kwargs)
    subclass = type("Sub", (cls,), {})
    for other in (SimpleNamespace(**_fields(kwargs, fields)), tuple(_fields(kwargs, fields).values()),
                  subclass(**kwargs)):
        assert obj.__eq__(other) is NotImplemented
        assert obj != other and not obj == other


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_repr_names_each_field(cls, kwargs, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in _fields(kwargs, fields).items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({shown})"


def test_defaults():
    assert lp.NoiseSpec() == lp.NoiseSpec(sigma=0.0, seed=0) == lp.NoiseSpec(0.0, 0)
    assert (lp.NoiseSpec().sigma, lp.NoiseSpec().seed) == (0.0, 0)
    report = lp.RoundTripReport(3e-16, RESIDUALS)
    assert report.error is None
    assert report == lp.RoundTripReport(max_deviation=3e-16, residuals=RESIDUALS, error=None)


@pytest.mark.parametrize("deviation, error, passed", [
    (3e-16, None, True),
    (0.0, None, True),
    (1e-9, None, False),  # the bound is strict
    (5.0, None, False),
    (float("nan"), None, False),
    (None, "DegenerateTrace: matrix trace 0.0 is not positive", False),
    (None, None, False),  # no deviation, no error: nothing was rebuilt
])
def test_round_trip_report_passed_is_read_from_its_fields(deviation, error, passed):
    report = lp.RoundTripReport(deviation, RESIDUALS, error)
    assert report.passed is passed
    with pytest.raises(AttributeError):
        report.passed = not passed

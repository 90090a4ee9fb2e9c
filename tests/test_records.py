"""Value semantics of the package's record classes.

Each class keeps the equality, hash, repr and immutability it had as a
frozen standard-library data class; the repr strings below are the ones
those data classes printed.
"""

import argparse
import copy
import pickle

import pytest

from cyclezeta.bound_engine import CountingSystemSpec, ExplicitConstant
from cyclezeta.commands import _params
from cyclezeta.cycle_oracle import ClosedPoint, FormClass, ZeroCycle
from cyclezeta.errors import DomainError
from cyclezeta.field_census import ClosedPointCensus
from cyclezeta.fs_norms import (
    ArithDivisorCensus,
    CheckRecord,
    NormSampleSpec,
)
from cyclezeta.height_lab import FunctionFieldPoint, RationalFunctionPoint, ShSetCensus
from cyclezeta.multipoly import IntegerForm
from cyclezeta.quadrature import QuadratureConfig
from cyclezeta.spaces import P1Power, PrimePower, Product, ProjSpace
from cyclezeta.zeta_series import AbscissaReport, SparseSeries

P1, F2 = ProjSpace(1), PrimePower(2)
POINT = ClosedPoint(P1, F2, 1, ((0, 1),))
FORM = IntegerForm(1, (1,), (((0,), 1), ((1,), 2)))

_P1 = "ProjSpace(n=1)"
_F2 = "PrimePower(p=2, e=1)"
_POINT = f"ClosedPoint(space={_P1}, q={_F2}, degree=1, orbit_key=((0, 1),))"
_FORM = "IntegerForm(n=1, multidegree=(1,), coeffs=(((0,), 1), ((1,), 2)))"
_SPEC = "NormSampleSpec(samples=5, seed=7, nvars=2, max_degree=3, coeff_bound=10)"

# (class, constructor arguments, repr)
CASES = [
    (PrimePower, (3, 2), "PrimePower(p=3, e=2)"),
    (ProjSpace, (2,), "ProjSpace(n=2)"),
    (P1Power, (2,), "P1Power(n=2)"),
    (Product, (P1, P1Power(2)), f"Product(left={_P1}, right=P1Power(n=2))"),
    (ClosedPointCensus, (P1, F2, (3, 2)),
     f"ClosedPointCensus(space={_P1}, q={_F2}, b=(3, 2))"),
    (ClosedPoint, (P1, F2, 1, ((0, 1),)), _POINT),
    (ZeroCycle, (P1, F2, ((POINT, 2),)),
     f"ZeroCycle(space={_P1}, q={_F2}, terms=(({_POINT}, 2),))"),
    (FormClass, (P1, F2, (1,), (1, 0)),
     f"FormClass(space={_P1}, q={_F2}, multidegree=(1,), coefficients=(1, 0))"),
    (SparseSeries, (P1, F2, 0, 2, (1, 3, 7)),
     f"SparseSeries(space={_P1}, q={_F2}, l=0, kmax=2, coefficients=(1, 3, 7))"),
    (AbscissaReport, (P1, F2, 0, (1.5, 1.25), 1.0),
     f"AbscissaReport(space={_P1}, q={_F2}, l=0, values=(1.5, 1.25), "
     "predicted_limit=1.0)"),
    (CountingSystemSpec, (0, 1, abs, max, 0.5, "note"),
     "CountingSystemSpec(n0=0, n=1, log_B=<built-in function abs>, "
     "log_A=<built-in function max>, t0=0.5, note='note')"),
    # the derivation is compared but not printed
    (ExplicitConstant, (2, 1, 7, ("a", "b")), "ExplicitConstant(n=2, l=1, value=7)"),
    (IntegerForm, (1, (1,), (((0,), 1), ((1,), 2))), _FORM),
    (QuadratureConfig, (),
     "QuadratureConfig(scheme='tensor_gauss', nodes_per_dim=64, "
     "sample_count=1000000, seed=None)"),
    (ArithDivisorCensus, (1, 1.0, 2.0, 3, 4.5, (FORM,), 2),
     "ArithDivisorCensus(n=1, lam=1.0, h=2.0, count=3, log_certified_bound=4.5, "
     f"borderline=({_FORM},), max_inf_norm=2)"),
    (NormSampleSpec, (5, 7), _SPEC),
    (CheckRecord, (0, "triangle", 1.0, 2.0, 0.5),
     "CheckRecord(sample=0, name='triangle', lhs=1.0, rhs=2.0, error=0.5)"),
    (FunctionFieldPoint, (F2, ((1,), (1, 0, 1))),
     f"FunctionFieldPoint(q={_F2}, coords=((1,), (1, 0, 1)))"),
    (RationalFunctionPoint, (1, ()), "RationalFunctionPoint(d=1, coords=())"),
    (ShSetCensus, (1, 0.25, 4.0, 10, True, 3.9, 2.0, 3, 2, 1e-4),
     "ShSetCensus(d=1, a=0.25, h=4.0, count=10, all_heights_ok=True, "
     "max_height=3.9, analytic_lower_bound=2.0, coeff_box=3, degree_cap=2, "
     "max_height_error=0.0001)"),
]


def _ids(case):
    return case[0].__name__


def _fields(value):
    return tuple(getattr(value, name) for name in value._fields)


@pytest.mark.parametrize("cls, args, text", CASES, ids=map(_ids, CASES))
def test_equal_fields_make_equal_values(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a == cls(**dict(zip(cls._fields, args)))  # fields name the arguments
    assert _fields(a)[:len(args)] == args
    assert hash(a) == hash(b) == hash(_fields(a))  # as data classes hashed
    assert copy.copy(a) == a and copy.deepcopy(a) == a


@pytest.mark.parametrize("cls, args, text", CASES, ids=map(_ids, CASES))
def test_other_classes_are_never_equal(cls, args, text):
    twin = type(cls.__name__, (cls,), {"__slots__": ()})
    assert cls(*args) != twin(*args)
    assert cls(*args) != _fields(cls(*args))


@pytest.mark.parametrize("cls, args, text", CASES, ids=map(_ids, CASES))
def test_repr_is_the_data_class_repr(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=map(_ids, CASES))
def test_frozen_fields_refuse_assignment(cls, args, text):
    value = cls(*args)
    for name in cls._fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.no_such_field = 1


def test_unequal_fields_and_classes():
    assert ProjSpace(1) != P1Power(1)
    assert ProjSpace(1) != ProjSpace(2)
    assert PrimePower(2) == PrimePower(2, 1) != PrimePower(2, 2)
    assert ExplicitConstant(2, 1, 7, ("a",)) != ExplicitConstant(2, 1, 7, ("b",))
    assert {ProjSpace(1): "P1"}[ProjSpace(1)] == "P1"


@pytest.mark.parametrize("build", [
    lambda: PrimePower(4),
    lambda: PrimePower(2, 0),
    lambda: ProjSpace(-1),
    lambda: P1Power(-1),
    lambda: QuadratureConfig(scheme="x"),
    lambda: QuadratureConfig(nodes_per_dim=4),
    lambda: QuadratureConfig(scheme="monte_carlo"),
    lambda: QuadratureConfig(scheme="monte_carlo", seed=1, sample_count=0),
    lambda: NormSampleSpec(0, 7),
    lambda: CountingSystemSpec(2, 1, abs, max),
], ids=["prime-power", "exponent", "proj-space", "p1-power", "scheme", "nodes",
        "mc-seed", "mc-samples", "sample-spec", "counting-system"])
def test_construction_checks_still_raise(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("cls, args, text", CASES, ids=map(_ids, CASES))
def test_pickle_round_trip(cls, args, text):
    value = cls(*args)
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is cls and again == value and repr(again) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=map(_ids, CASES))
def test_records_are_not_ordered(cls, args, text):
    a, b = cls(*args), cls(*args)
    with pytest.raises(TypeError):
        sorted([a, b])
    # not even against the plain tuple of the fields
    with pytest.raises(TypeError):
        a < _fields(a)
    with pytest.raises(TypeError):
        _fields(a) <= a


@pytest.mark.parametrize("cls, args, text", CASES, ids=map(_ids, CASES))
def test_only_frozen_records_are_tuples(cls, args, text):
    assert isinstance(cls(*args), tuple)


def test_params_echo_a_prime_power_as_text():
    # a PrimePower is a tuple, but is echoed as the text of its order
    args = argparse.Namespace(command="count", q=PrimePower(2, 2), multidegree=(1, 1))
    assert _params(args) == {"q": "2^2", "multidegree": [1, 1]}

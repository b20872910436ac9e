"""The package's immutable records: equality, hashing, repr, immutability,
defaults, keyword construction and validation texts, for every record
class. Error messages may carry a record's repr, so its text is part of
the command line contract."""

import numpy as np
import pytest

from staged_orders.family import CoCEPreorder, IsomorphismReport, SetFamily
from staged_orders.jump import EnumerationSchedule, WitnessReport
from staged_orders.kernel import (
    AxiomCheck,
    ConfigError,
    Kind,
    MonotoneReport,
    PosetReport,
    Snapshot,
)
from staged_orders.sigma2 import MemberIndex, NonmemberIndex, SyntheticSigma2Predicate
from staged_orders.solvers import CondensationResult

_LIMIT = Snapshot.from_pairs(2, [(0, 1)])
_OTHER_LIMIT = Snapshot.from_pairs(2, [])
_CHECK = AxiomCheck("reflexive", True)
_FAILED = AxiomCheck("transitive", False, (0, 1, 2))

# (class, field names, values, values that differ in one field, repr)
RECORDS = [
    (AxiomCheck, ("axiom", "passed", "witness"), ("transitive", False, (0, 1, 2)),
     ("transitive", False, (0, 2, 1)),
     "AxiomCheck(axiom='transitive', passed=False, witness=(0, 1, 2))"),
    (PosetReport, ("reflexive", "antisymmetric", "transitive"), (_CHECK, _CHECK, _FAILED),
     (_CHECK, _CHECK, _CHECK),
     "PosetReport(reflexive=AxiomCheck(axiom='reflexive', passed=True, witness=None), "
     "antisymmetric=AxiomCheck(axiom='reflexive', passed=True, witness=None), "
     "transitive=AxiomCheck(axiom='transitive', passed=False, witness=(0, 1, 2)))"),
    (MonotoneReport, ("kind", "passed", "failures"), (Kind.CE, False, ((1, (0, 1)),)),
     (Kind.COCE, False, ((1, (0, 1)),)),
     "MonotoneReport(kind=<Kind.CE: 'ce'>, passed=False, failures=((1, (0, 1)),))"),
    (MemberIndex, ("witness", "defeats"), (2, (3, 4)), (2, (3, 5)),
     "MemberIndex(witness=2, defeats=(3, 4))"),
    (NonmemberIndex, ("offset", "step", "horizon"), (1, 2, 7), (1, 2, None),
     "NonmemberIndex(offset=1, step=2, horizon=7)"),
    (SyntheticSigma2Predicate, ("indices",), ((MemberIndex(0, ()), NonmemberIndex(1, 1)),),
     ((MemberIndex(0, ()),),),
     "SyntheticSigma2Predicate(indices=(MemberIndex(witness=0, defeats=()), "
     "NonmemberIndex(offset=1, step=1, horizon=None)))"),
    (CoCEPreorder, ("n", "limit", "removal_stage"), (2, _LIMIT, (((1, 0), 3),)),
     (2, _LIMIT, (((1, 0), 4),)),
     "CoCEPreorder(n=2, limit=Snapshot(domain_size=2, stage=0, pairs=3), "
     "removal_stage=(((1, 0), 3),))"),
    (SetFamily, ("n", "element_count", "rows"), (2, 1, (frozenset(), frozenset({0}))),
     (2, 1, (frozenset({0}), frozenset({0}))),
     "SetFamily(n=2, element_count=1, rows=(frozenset(), frozenset({0})))"),
    (IsomorphismReport, ("passed", "mismatches"), (False, ((0, 1),)), (False, ((1, 0),)),
     "IsomorphismReport(passed=False, mismatches=((0, 1),))"),
    (EnumerationSchedule, ("entries",), (((0, 2), (3, 1)),), (((0, 2),),),
     "EnumerationSchedule(entries=((0, 2), (3, 1)))"),
    (WitnessReport, ("passed", "failures"), (False, ((0, 1),)), (True, ()),
     "WitnessReport(passed=False, failures=((0, 1),))"),
    (CondensationResult, ("classes", "representatives", "induced"),
     (((0, 1), (2,)), (0, 2), Snapshot.from_pairs(2, [(0, 1)])),
     (((0, 1), (2,)), (0, 2), _OTHER_LIMIT),
     "CondensationResult(classes=((0, 1), (2,)), representatives=(0, 2), "
     "induced=Snapshot(domain_size=2, stage=0, pairs=3))"),
]

IDS = [case[0].__name__ for case in RECORDS]

# Pairs of classes whose fields coincide: records of different classes
# never compare equal, even with the same values.
LOOKALIKES = [
    (IsomorphismReport(False, ((0, 1),)), WitnessReport(False, ((0, 1),))),
    (EnumerationSchedule(()), SyntheticSigma2Predicate(())),
]


def test_every_record_class_is_covered():
    assert len(RECORDS) == len(set(IDS)) == 12


@pytest.mark.parametrize("cls, fields, values, other, text", RECORDS, ids=IDS)
def test_records_compare_hash_and_print_by_field(cls, fields, values, other, text):
    record = cls(*values)
    twin = cls(*values)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(values)
    assert record != cls(*other)
    assert record != values
    assert tuple(getattr(record, name) for name in fields) == values
    assert repr(record) == text


@pytest.mark.parametrize("cls, fields, values, other, text", RECORDS, ids=IDS)
def test_records_build_from_keywords(cls, fields, values, other, text):
    assert cls(**dict(zip(fields, values))) == cls(*values)
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == cls(*values)


@pytest.mark.parametrize("cls, fields, values, other, text", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, fields, values, other, text):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is values[fields.index(name)]
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("left, right", LOOKALIKES, ids=lambda r: type(r).__name__)
def test_records_of_different_classes_are_never_equal(left, right):
    assert left != right and right != left
    assert not left == right


def test_record_defaults():
    assert AxiomCheck("reflexive", True).witness is None
    assert AxiomCheck("reflexive", True) == AxiomCheck("reflexive", True, None)
    assert NonmemberIndex(1, 2).horizon is None
    assert NonmemberIndex(offset=1, step=2) == NonmemberIndex(1, 2, None)


def test_records_refuse_wrong_arguments():
    with pytest.raises(TypeError):
        WitnessReport(True)
    with pytest.raises(TypeError):
        WitnessReport(True, (), 0)
    with pytest.raises(TypeError):
        WitnessReport(True, failures=(), j=0)
    with pytest.raises(TypeError):
        WitnessReport(True, passed=True)


def _square(n, pairs):
    m = np.eye(n, dtype=bool)
    for i, j in pairs:
        m[i, j] = True
    return Snapshot(n, 0, m)


@pytest.mark.parametrize(
    "build, error, text",
    [
        (lambda: MemberIndex(True, (1,)), ConfigError, "witness is a natural"),
        (lambda: MemberIndex(2, (1,)), ConfigError,
         "member index needs one defeat stage per witness below it"),
        (lambda: MemberIndex(1, (-1,)), ConfigError, "defeat stages are naturals"),
        (lambda: NonmemberIndex(1, -1), ConfigError, "defeat rule coefficients are naturals"),
        (lambda: NonmemberIndex(1, 1, "7"), ConfigError, "defeat_horizon is a natural"),
        (lambda: CoCEPreorder(3, _LIMIT, ()), ConfigError,
         "limit must be a preorder on the declared domain"),
        (lambda: CoCEPreorder(3, _square(3, [(0, 1), (1, 2)]), ()), ConfigError,
         "limit must be a preorder on the declared domain"),
        (lambda: CoCEPreorder(2, _LIMIT, (((1, 0), 1), ((1, 0), 2))), ConfigError,
         "duplicate removal entries"),
        (lambda: CoCEPreorder(2, _LIMIT, ()), ConfigError,
         "removal schedule must cover exactly the pairs outside the limit"),
        (lambda: CoCEPreorder(2, _LIMIT, (((1, 0), -1),)), ConfigError,
         "removal stages are naturals"),
        (lambda: EnumerationSchedule(((0, 1), (-1, 2))), ConfigError,
         "malformed entry (-1, 2)"),
        (lambda: EnumerationSchedule(((0, 1), (0, 2))), ConfigError,
         "element 0 enumerated twice"),
    ],
)
def test_record_validation_texts(build, error, text):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == text

"""The result records of ``solver`` and ``intlinalg``: each keeps the repr,
equality, hash, immutability, defaults, pickling and copying that it had as
a frozen dataclass."""

import copy
import pickle

import pytest

from quadlift.intlinalg import IntMatrix, SmithDecomposition, SolveResult
from quadlift.solver import AdmissibilityReport, LiftResult, NormalityReport

ADMISSIBILITY = AdmissibilityReport(((0, 1, -2),), ((3, (1, 2)),))

# (record, the repr that the frozen dataclass of its class printed)
RECORDS = [
    (ADMISSIBILITY,
     "AdmissibilityReport(negatives=((0, 1, -2),), conflicts=((3, (1, 2)),))"),
    (LiftResult("Normal", [0, 1], {0: -1}, ((0, (((2, 1), 3),)),),
                ((1, "no rational solution"),)),
     "LiftResult(classification='Normal', canonical_lift=[0, 1], "
     "per_vertex_shift={0: -1}, cycle_failures=((0, (((2, 1), 3),)),), "
     "boundary_failures=((1, 'no rational solution'),))"),
    (LiftResult("NotNormal"),
     "LiftResult(classification='NotNormal', canonical_lift=None, "
     "per_vertex_shift={}, cycle_failures=(), boundary_failures=())"),
    (NormalityReport(((4, -1),), ADMISSIBILITY, ((2, 5),)),
     "NormalityReport(negatives=((4, -1),), admissibility=AdmissibilityReport("
     "negatives=((0, 1, -2),), conflicts=((3, (1, 2)),)), violated_arcs=((2, 5),))"),
    (SmithDecomposition(IntMatrix([[1]]), IntMatrix([[2]]), IntMatrix([[1]]),
                        (2,)),
     "SmithDecomposition(U=IntMatrix([[1]]), D=IntMatrix([[2]]), "
     "V=IntMatrix([[1]]), invariant_factors=(2,))"),
    (SolveResult([1, -2]), "SolveResult(solution=[1, -2], reason=None)"),
    (SolveResult(None, "no integer solution"),
     "SolveResult(solution=None, reason='no integer solution')"),
]


@pytest.mark.parametrize("record, text", RECORDS)
def test_the_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


def test_fields_are_given_by_position_or_keyword():
    assert (LiftResult(classification="Normal", canonical_lift=[1])
            == LiftResult("Normal", [1], {}, (), ()))
    assert SolveResult([2], reason="x") == SolveResult([2], "x")
    with pytest.raises(TypeError):
        SolveResult()
    with pytest.raises(TypeError):
        SolveResult(None, "x", "y")
    with pytest.raises(TypeError):
        AdmissibilityReport((), conflict=())


def test_equal_records_are_of_one_class_and_hash_as_their_fields():
    a = AdmissibilityReport((), ((0, (1, 2)),))
    b = AdmissibilityReport((), ((0, (1, 2)),))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(((), ((0, (1, 2)),)))
    assert a != AdmissibilityReport((), ())
    assert a != ((), ((0, (1, 2)),))
    assert SolveResult((), ()) != AdmissibilityReport((), ())
    assert len({SolveResult(None, "x"), SolveResult(None, "x")}) == 1


def test_a_record_holding_a_list_is_unhashable():
    with pytest.raises(TypeError):
        hash(LiftResult("Normal", [0, 1], {0: 0}))
    with pytest.raises(TypeError):
        hash(SolveResult([1]))


@pytest.mark.parametrize("record, text", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(record, text):
    for name in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert repr(record) == text


def test_each_lift_result_gets_its_own_default_shift_dict():
    a, b = LiftResult("NotNormal"), LiftResult("SpunNormal")
    assert a.per_vertex_shift == {} and a.per_vertex_shift is not b.per_vertex_shift
    a.per_vertex_shift[0] = 1
    assert b.per_vertex_shift == {} == LiftResult("Normal").per_vertex_shift


@pytest.mark.parametrize("record, text", RECORDS)
def test_pickle_and_copies_round_trip(record, text):
    # every protocol, 0 and 1 too: an IntMatrix, which has slots, pickles
    # through its own __reduce__
    clones = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.copy(record), copy.deepcopy(record)]:
        assert type(clone) is type(record)
        assert repr(clone) == text
        if type(record) is not SmithDecomposition:   # IntMatrix compares by id
            assert clone == record

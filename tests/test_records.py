"""The library's records are immutable namedtuples.

Each record keeps what it had as a frozen dataclass: a ``Name(field=value,
…)`` repr, field-wise equality and hashing, immutability and its defaults.
``BlockStructure`` and ``WeightedFacet`` check their fields in ``__new__``,
so ``_make`` and ``_replace`` raise the constructor's errors too.  As
tuples, records iterate over their fields and equal the plain tuple of
them.
"""

import pytest

from tropdeg.cli import Command
from tropdeg.cycles import (BalanceReport, BlockStructure, Codim1Record,
                            ComplexReport, WeightedFacet)
from tropdeg.errors import DimensionMismatchError, InvalidComplexError
from tropdeg.multidegree import (ADMISSIBILITY_CAVEAT, CriterionResult,
                                 DivisorSet, RankFunction)
from tropdeg.ops import AdmissibilityVerdict, ImpurityReport, PushforwardResult
from tropdeg.polyhedra import Polyhedron

LINE = Polyhedron.full_space(1)
LINE_REPR = "Polyhedron(m=1, dim=1, #eq=0, #ineq=0, #V=1, #R=0, #L=1)"


def handler(args):
    return {}, None, ()


#: (record, its repr), one per record class of the library
RECORDS = [
    (BlockStructure((2, 1)), "BlockStructure(blocks=(2, 1))"),
    (WeightedFacet(LINE, 2), f"WeightedFacet(poly={LINE_REPR}, weight=2)"),
    (ComplexReport(True, True, True, ()),
     "ComplexReport(ok=True, pure=True, weights_ok=True, bad_pairs=())"),
    (Codim1Record(LINE, ((0, (1,)),)),
     f"Codim1Record(face={LINE_REPR}, incident=((0, (1,)),))"),
    (BalanceReport(False, ()), "BalanceReport(balanced=False, violations=())"),
    (ImpurityReport(0, LINE, 2),
     f"ImpurityReport(facet_index=0, image={LINE_REPR}, top_dim=2)"),
    (PushforwardResult(None, None),
     "PushforwardResult(cycle=None, impurity=None, absorbed=())"),
    (AdmissibilityVerdict("NoCounterexampleFound", None, "coords", 3),
     "AdmissibilityVerdict(status='NoCounterexampleFound', witness=None, "
     "strategy='coords', tested=3)"),
    (DivisorSet(BlockStructure((1,)), ()),
     "DivisorSet(blocks=BlockStructure(blocks=(1,)), divisors=())"),
    (RankFunction(1, (((1,), 1),)), "RankFunction(k=1, table=(((1,), 1),))"),
    (CriterionResult(False, (1,), None),
     "CriterionResult(holds=False, violating_subset=(1,), facet_witness=None, "
     f"caveat={ADMISSIBILITY_CAVEAT!r})"),
    (Command(handler, "h"),
     f"Command(handler={handler!r}, help='h', files=('file',), positional=(), "
     "flags=(), balanced=False)"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_names_each_field(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_records_are_immutable(record, text):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is record[0]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_equality_and_hash_are_field_wise(record, text):
    twin = type(record)(*record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    # the one change from a dataclass: a record is the tuple of its fields
    assert tuple(record) == record
    assert hash(tuple(record)) == hash(record)


def test_defaults():
    assert PushforwardResult(None, None).absorbed == ()
    assert CriterionResult(True, None, None).caveat == ADMISSIBILITY_CAVEAT
    command = Command(handler, "h")
    assert (command.files, command.positional, command.flags, command.balanced) \
        == (("file",), (), (), False)


def test_constructors_convert_their_fields():
    assert BlockStructure([2, 1]).blocks == (2, 1)
    assert BlockStructure([2, 1]) == BlockStructure((2, 1))


@pytest.mark.parametrize("build", [
    lambda: BlockStructure((2, 1))._replace(blocks=(0,)),
    lambda: BlockStructure._make([(0,)]),
    lambda: BlockStructure((0,)),
], ids=["replace", "make", "new"])
def test_block_structure_checks_every_construction(build):
    with pytest.raises(DimensionMismatchError, match=r"bad block sizes \(0,\)"):
        build()


@pytest.mark.parametrize("build", [
    lambda: WeightedFacet(LINE, 1)._replace(weight=-1),
    lambda: WeightedFacet._make([LINE, -1]),
    lambda: WeightedFacet(LINE, -1),
], ids=["replace", "make", "new"])
def test_weighted_facet_checks_every_construction(build):
    with pytest.raises(InvalidComplexError, match="negative weight -1"):
        build()


def test_replace_keeps_the_other_fields():
    facet = WeightedFacet(LINE, 1)._replace(weight=3)
    assert type(facet) is WeightedFacet and facet == (LINE, 3)
    with pytest.raises(ValueError):
        facet._replace(height=1)

"""The library's value types are NamedTuples.

Importing fairslice loads no ``dataclasses`` machinery.  Every value type
keeps its fields read-only, compares and hashes by them, and the checked
types (``Interval``, ``Piece``, ``DensityBounds``, ``TreeParams``) refuse
bad fields through ``_make`` and ``_replace`` as their constructors do.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fairslice
from fairslice.adversary import CannotRefute, GameReport, Refutation
from fairslice.dual import CertificateEntry, ReductionReport
from fairslice.errors import InvalidInput
from fairslice.geometry import Interval, Piece
from fairslice.protocols import Allocation, PlayerShare, ProportionalityReport
from fairslice.valuation import DensityBounds
from fairslice.valuetree import LeafProfileClass, TreeParams

F = Fraction

#: what importing dataclasses loads besides itself
DATACLASS_MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("module", ["fairslice", "fairslice.cli"])
def test_import_loads_no_dataclass_machinery(module):
    # -S: no site hooks, so only the import under test can load a module
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import " + module + "; "
        f"print(*[m for m in {DATACLASS_MACHINERY!r} if m in sys.modules])"
    )
    src = Path(fairslice.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == []


def piece():
    return Piece((Interval(F(0), F(1, 3)),))


def share():
    return PlayerShare(0, F(1, 3), F(1, 3), True)


def entry():
    return CertificateEntry(1, piece(), F(1, 3), F(1, 2), True)


#: each value type: a maker that builds it from fresh but equal fields on
#: every call, and for the nine plain records the repr it must print
RECORDS = {
    "Interval": (lambda: Interval("0", F(1, 3)), None),
    "Piece": (piece, None),
    "DensityBounds": (lambda: DensityBounds(F(1, 2), 2), None),
    "TreeParams": (lambda: TreeParams(7, True), None),
    "Allocation": (
        lambda: Allocation((piece(), Piece((Interval(F(1, 3), 1),)))),
        "Allocation(pieces=(Piece([0, 1/3]), Piece([1/3, 1])))",
    ),
    "PlayerShare": (
        share,
        "PlayerShare(player=0, value=Fraction(1, 3), bound=Fraction(1, 3), ok=True)",
    ),
    "ProportionalityReport": (
        lambda: ProportionalityReport("cake", True, (share(),)),
        "ProportionalityReport(mode='cake', ok=True, shares=(PlayerShare(player=0, "
        "value=Fraction(1, 3), bound=Fraction(1, 3), ok=True),))",
    ),
    "CertificateEntry": (
        entry,
        "CertificateEntry(player=1, piece=Piece([0, 1/3]), width=Fraction(1, 3), "
        "value=Fraction(1, 2), heavy=True)",
    ),
    "ReductionReport": (
        lambda: ReductionReport(3, (entry(),), 4, 5, 6),
        "ReductionReport(n=3, entries=(CertificateEntry(player=1, piece=Piece([0, 1/3]), "
        "width=Fraction(1, 3), value=Fraction(1, 2), heavy=True),), dual_queries=4, "
        "base_queries_protocol=5, base_queries_dualization=6)",
    ),
    "Refutation": (
        lambda: Refutation(piece(), F(1, 3), F(1, 9), 0.25, F(1, 18), "width", None),
        "Refutation(claim=Piece([0, 1/3]), width=Fraction(1, 3), width_bound=Fraction(1, 9), "
        "value=0.25, value_bound=Fraction(1, 18), violated='width', completion=None)",
    ),
    "CannotRefute": (lambda: CannotRefute("stayed heavy"), "CannotRefute(reason='stayed heavy')"),
    "GameReport": (
        lambda: GameReport(11, "blind", 0, 0, 0, piece(), CannotRefute("heavy"), (0, 1)),
        "GameReport(depth=11, strategy='blind', budget=0, threshold=0, queries_used=0, "
        "claim=Piece([0, 1/3]), outcome=CannotRefute(reason='heavy'), "
        "max_revealed_heavy_trace=(0, 1))",
    ),
    "LeafProfileClass": (
        lambda: LeafProfileClass(1, 2, 0, "rich"),
        "LeafProfileClass(h=1, q=2, z=0, classification='rich')",
    ),
}


def test_every_value_type_is_listed():
    assert len(RECORDS) == 13
    assert all(RECORDS[name][0]().__class__.__name__ == name for name in RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert record == RECORDS[name][0]()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_make_equal_records_with_equal_hashes(name):
    make = RECORDS[name][0]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", [name for name, (_, text) in RECORDS.items() if text])
def test_plain_record_reprs_are_unchanged(name):
    make, text = RECORDS[name]
    assert repr(make()) == text


#: for each checked type: one good record, and field values its constructor refuses
CHECKED = {
    Interval: (Interval(0, F(1, 2)), [(F(1, 2), F(1, 4)), (F(-1, 4), 0), (0, "x")]),
    Piece: (
        piece(),
        [
            ((Interval(F(1, 2), 1), Interval(0, F(1, 4))),),
            ((Interval(0, F(1, 2)), Interval(F(1, 2), 1)),),
            ((Interval(0, 0),),),
            (((0, 1),),),
        ],
    ),
    DensityBounds: (DensityBounds(0, None), [(F(3, 2), None), (F(1, 2), F(1, 2)), ("x", None)]),
    TreeParams: (TreeParams(11), [(3, True), (7, False), (11, "false"), (11.0, False)]),
}


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_make_and_replace_refuse_what_the_constructor_refuses(cls):
    good, refused = CHECKED[cls]
    for fields in refused:
        with pytest.raises(InvalidInput):
            cls(*fields)
        with pytest.raises(InvalidInput):
            cls._make(fields)
        with pytest.raises(InvalidInput):
            good._replace(**dict(zip(cls._fields, fields)))
    assert cls._make(good) == good and good._replace() == good
    assert cls._make(good).__class__ is cls


def test_make_normalizes_fields_as_the_constructor_does():
    made = Interval._make(("0", 0.5))
    assert made == Interval(0, F(1, 2)) and made.left.__class__ is Fraction
    assert DensityBounds._make((0, 2)).beta.__class__ is Fraction
    assert Interval(0, 1)._replace(left="1/2") == Interval(F(1, 2), 1)

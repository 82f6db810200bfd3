from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairslice.geometry import (
    Interval,
    Piece,
    as_scalar,
    normalize_piece,
    piece_union,
    scalar_str,
)

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=60)


def intervals_strategy():
    return st.tuples(unit_fractions, unit_fractions).map(
        lambda pair: Interval(min(pair), max(pair))
    )


def test_scalar_roundtrip():
    assert as_scalar("3/4") == Fraction(3, 4)
    assert scalar_str(Fraction(3, 4)) == "3/4"
    assert scalar_str(Fraction(2, 2)) == "1"
    assert as_scalar(1) == Fraction(1)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        Interval(Fraction(-1, 4), Fraction(1, 2))
    with pytest.raises(ValueError):
        Interval(Fraction(1, 2), Fraction(3, 2))
    assert Interval(Fraction(1, 3), Fraction(1, 3)).width == 0


def test_normalize_merges_touching():
    got = normalize_piece([Interval(0, "1/2"), Interval("1/2", 1)])
    assert got == Piece.of((0, 1))


def test_normalize_already_normal():
    got = normalize_piece([Interval("1/3", "2/3")])
    assert got.to_pairs() == [["1/3", "2/3"]]


def test_normalize_sorts():
    got = normalize_piece([Interval("1/2", "3/4"), Interval(0, "1/4")])
    assert got.to_pairs() == [["0", "1/4"], ["1/2", "3/4"]]


def test_width_examples():
    assert Piece.of((0, 1)).width == 1
    assert Piece.of((0, "1/4"), ("1/2", "3/4")).width == Fraction(1, 2)
    assert Piece().width == 0


def test_empty_piece_is_legal():
    empty = normalize_piece([])
    assert empty.is_empty() and empty.width == 0
    assert normalize_piece([Interval("1/2", "1/2")]) == empty


def test_canonical_constructor_rejects_disorder():
    with pytest.raises(ValueError):
        Piece((Interval(Fraction(1, 2), Fraction(1)), Interval(Fraction(0), Fraction(1, 4))))
    with pytest.raises(ValueError):
        Piece((Interval(Fraction(0), Fraction(1, 2)), Interval(Fraction(1, 2), Fraction(1))))


def test_piece_json_pairs_roundtrip():
    piece = Piece.of((0, "1/4"), ("1/2", "3/4"))
    assert Piece.from_pairs(piece.to_pairs()) == piece


@given(st.lists(intervals_strategy(), max_size=8))
def test_normalize_idempotent(raw):
    once = normalize_piece(raw)
    assert normalize_piece(once.intervals) == once


@given(st.lists(intervals_strategy(), max_size=8))
def test_normalized_pieces_are_canonical(raw):
    piece = normalize_piece(raw)
    for a, b in zip(piece.intervals, piece.intervals[1:]):
        assert a.right < b.left
    assert all(iv.width > 0 for iv in piece.intervals)


@given(st.lists(intervals_strategy(), max_size=6), st.lists(intervals_strategy(), max_size=6))
def test_union_width_additive_when_disjoint(left_raw, right_raw):
    a = normalize_piece(left_raw)
    b = normalize_piece(right_raw)
    union = piece_union(a, b)
    # touching endpoints carry no width; only positive-measure overlap
    # breaks additivity
    overlap = sum(
        max(min(ia.right, ib.right) - max(ia.left, ib.left), 0)
        for ia in a.intervals
        for ib in b.intervals
    )
    if overlap == 0:
        assert union.width == a.width + b.width
    else:
        assert union.width == a.width + b.width - overlap

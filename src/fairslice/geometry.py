"""Exact interval and piece arithmetic on the unit segment.

Coordinates are ``fractions.Fraction`` throughout, so widths, unions and
comparisons are exact.  A *piece* is a finite union of disjoint closed
subintervals of [0, 1], kept in a canonical form: sorted, non-empty,
with touching neighbours merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import InvalidInput

ScalarLike = Union[Fraction, int, str, float]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce a value to an exact rational.

    Strings use the ``"p/q"`` form (``Fraction`` accepts plain integers
    too).  Floats convert exactly via their binary expansion, which is the
    caller's responsibility to want.  NaN, infinities, malformed strings,
    zero denominators and non-numbers raise :class:`InvalidInput`.

    >>> as_scalar("3/4")
    Fraction(3, 4)
    """
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise InvalidInput(f"not a finite rational: {value!r} ({exc})") from None


def unit_ratios(x: ScalarLike, y: ScalarLike, refusal: str) -> tuple[int, int, int, int]:
    """The integer ratios ``(xn, xd, yn, yd)`` of ``x`` and ``y``, refused
    unless ``0 <= x <= y <= 1``: the one range rule of every query.

    Each ratio is read once with ``as_integer_ratio`` (lowest terms, a
    positive denominator), and the test compares them as integers, which
    is exact and builds no ``Fraction`` for a ``Fraction`` argument.  A
    refusal is :class:`InvalidInput` with the message
    ``refusal.format(x=x, y=y)`` of the exact rationals; a point check
    passes ``y=ONE``.

    >>> unit_ratios(Fraction(1, 3), 1, "need 0 <= {x} <= {y} <= 1")
    (1, 3, 1, 1)
    """
    # class tests before as_scalar: protocols and the referee pass Fractions
    xn, xd = (x if x.__class__ is Fraction else as_scalar(x)).as_integer_ratio()
    yn, yd = (y if y.__class__ is Fraction else as_scalar(y)).as_integer_ratio()
    if xn < 0 or xn * yd > yn * xd or yn > yd:
        raise InvalidInput(refusal.format(x=Fraction(xn, xd), y=Fraction(yn, yd)))
    return xn, xd, yn, yd


def unit_span(x: ScalarLike, y: ScalarLike, refusal: str) -> tuple[Fraction, Fraction]:
    """``(x, y)`` as exact rationals, refused by :func:`unit_ratios` unless
    ``0 <= x <= y <= 1``.

    >>> unit_span("1/3", 1, "need 0 <= {x} <= {y} <= 1")
    (Fraction(1, 3), Fraction(1, 1))
    """
    x, y = as_scalar(x), as_scalar(y)
    unit_ratios(x, y, refusal)
    return x, y


#: refusals of :func:`unit_ratios` for an eval range and a cut start
EVAL_RANGE = "eval needs 0 <= x <= y <= 1, got ({x}, {y})"
CUT_START = "cut needs 0 <= x <= 1, got {x}"


def cut_mass(r) -> Union[Fraction, float]:
    """A cut query's mass ``r`` by the one rule of the referee and every ``cut``:
    a finite float ``>= 0`` as given, anything else as the exact rational
    :func:`as_scalar` makes of it, refused with one :class:`InvalidInput` unless ``>= 0``."""
    mass = r
    # class tests before isinstance: Fraction's is an ABC check, slow on a float
    if mass.__class__ is not Fraction and not isinstance(mass, float):
        try:
            mass = as_scalar(r)
        except InvalidInput:
            mass = math.nan  # refused below
    if mass.numerator >= 0 if mass.__class__ is Fraction else 0.0 <= mass < math.inf:
        return mass
    raise InvalidInput(f"cut needs a finite r >= 0, got {r}")


def above_one(mass: Union[Fraction, float]) -> bool:
    """``mass > 1``, exact for a float or a ``Fraction``, with no ``Fraction`` comparison."""
    return mass.numerator > mass.denominator if mass.__class__ is Fraction else mass > 1


def scalar_str(value: Fraction) -> str:
    """Serialize a rational as ``"p/q"`` in lowest terms, or ``"p"`` when
    the denominator is 1 (matching the JSON wire format)."""
    return str(value) if value.__class__ is Fraction else str(Fraction(value))


@dataclass(frozen=True)
class Interval:
    """A closed subinterval of [0, 1]; empty iff ``left == right``."""

    left: Fraction
    right: Fraction

    def __post_init__(self):
        left, right = unit_span(
            self.left, self.right, "invalid interval [{x}, {y}]: need 0 <= left <= right <= 1"
        )
        if left is not self.left or right is not self.right:
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "right", right)

    @property
    def width(self) -> Fraction:
        return self.right - self.left

    def __repr__(self) -> str:
        return f"Interval({self.left}, {self.right})"


@dataclass(frozen=True)
class Piece:
    """A finite union of disjoint intervals in canonical form.

    Construct via :func:`normalize_piece` (or :meth:`Piece.of`) unless the
    intervals are already sorted, non-empty and non-touching.
    """

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        prev = None
        for iv in self.intervals:
            if iv.left == iv.right:
                raise InvalidInput("canonical pieces contain no empty intervals")
            if prev is not None and iv.left <= prev.right:
                raise InvalidInput(
                    "canonical pieces are sorted with strict gaps; "
                    f"got [{prev.left}, {prev.right}] then [{iv.left}, {iv.right}]"
                )
            prev = iv

    @classmethod
    def of(cls, *endpoints: tuple[ScalarLike, ScalarLike]) -> "Piece":
        """Build a normalized piece from (left, right) pairs.

        >>> Piece.of(("1/2", "3/4"), (0, "1/4")).intervals
        (Interval(0, 1/4), Interval(1/2, 3/4))
        """
        return normalize_piece(Interval(a, b) for a, b in endpoints)

    @property
    def width(self) -> Fraction:
        return sum((iv.width for iv in self.intervals), ZERO)

    def to_pairs(self) -> list[list[str]]:
        """JSON form: a list of ["left", "right"] rational strings."""
        return [[scalar_str(iv.left), scalar_str(iv.right)] for iv in self.intervals]

    def __repr__(self) -> str:
        body = ", ".join(f"[{iv.left}, {iv.right}]" for iv in self.intervals)
        return f"Piece({body})"


def normalize_piece(raw: Iterable[Interval]) -> Piece:
    """Canonicalize a collection of intervals.

    Sorts by left endpoint, drops empty intervals, and merges overlapping
    or touching neighbours, so equal point sets compare equal.  Idempotent.
    """
    items = sorted((iv for iv in raw if iv.width > 0), key=lambda iv: (iv.left, iv.right))
    merged: list[Interval] = []
    for iv in items:
        if merged and iv.left <= merged[-1].right:
            if iv.right > merged[-1].right:
                merged[-1] = Interval(merged[-1].left, iv.right)
        else:
            merged.append(iv)
    return Piece(tuple(merged))

"""Dual valuations and the chore-to-cake reduction pipeline.

The dual of a positive valuation v swaps the roles of width and value:
``v*(x, y) = cut_v(0, y) - cut_v(0, x)``.  Both dual queries reduce to a
constant number of queries on the base valuation,

* ``eval_{v*}(x, y) = cut_v(0, y) - cut_v(0, x)``  (two base cuts),
* ``cut_{v*}(x, r)  = eval_v(0, cut_v(0, x) + r)`` (one base cut, one eval),

so a protocol run against duals costs exactly twice its dual-level query
count on the base valuations.  Dualizing is an involution: the dual of v*
is v again.

The payoff: a piece that is *light* for v* (wide but cheap) dualizes to a
piece that is *heavy* for v (narrow but valuable).  ``reduction_pipeline``
exploits this to turn any proportional chore protocol into a heavy-piece
finder for at least ceil(n/3) of n given (0,2)-dense valuations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InvalidInput, NonPositiveValuation, ProtocolViolation
from .geometry import (
    CUT_START,
    EVAL_RANGE,
    ONE,
    ZERO,
    Interval,
    Piece,
    as_scalar,
    normalize_piece,
    scalar_str,
    unit_span,
)
from .protocols import Allocation, verify_partition
from .referee import QueryReferee
from .valuation import (
    DensityBounds,
    PiecewiseConstantValuation,
    Real,
    Valuation,
    verify_dense,
)


class DualValuation(Valuation):
    """Black-box dual of a positive valuation.

    ``base`` may be a plain valuation or a referee player view; either way
    every dual query costs exactly two base queries.  (A cut that turns out
    to have no answer still issues its second base query, so measured cost
    never depends on answerability.)
    """

    __slots__ = ("base",)

    def __init__(self, base):
        if getattr(base, "is_positive", True) is False:
            raise NonPositiveValuation(
                "the dual is defined for positive valuations only"
            )
        self.base = base

    @property
    def is_positive(self) -> bool:
        # The dual inverts densities, so positivity is preserved.
        return True

    def eval(self, x, y) -> Real:
        x, y = unit_span(x, y, EVAL_RANGE)
        cx = self.base.cut(ZERO, x)
        cy = self.base.cut(ZERO, y)
        if cx is None or cy is None:
            raise NonPositiveValuation(
                "base cut(0, r) failed for r <= 1; base is not a positive "
                "normalized valuation"
            )
        return cy - cx

    def cut(self, x, r) -> Optional[Real]:
        x, _ = unit_span(x, ONE, CUT_START)
        r = r if isinstance(r, float) else as_scalar(r)
        if not (0.0 <= r < math.inf if isinstance(r, float) else r.numerator >= 0):
            # refused before the first base query, so nothing is billed
            raise InvalidInput(f"cut needs a finite r >= 0, got {r}")
        cx = self.base.cut(ZERO, x)
        if cx is None:
            raise NonPositiveValuation(
                "base cut(0, r) failed for r <= 1; base is not a positive "
                "normalized valuation"
            )
        position = cx + r
        exact = isinstance(position, Fraction)
        if position.numerator > position.denominator if exact else position > 1:
            # No answer; bill the second base query anyway (the total-mass
            # confirmation) to keep the 2-per-query cost uniform.
            self.base.eval(ZERO, ONE)
            return None
        return self.base.eval(ZERO, position)


def dual_pwc_closed_form(valuation: PiecewiseConstantValuation) -> PiecewiseConstantValuation:
    """Exact dual of a positive step valuation.

    A segment of width w and density d turns into a segment of width d*w
    (its mass) and density 1/d, in the same order.  Applying this twice
    returns the original valuation exactly.
    """
    if not valuation.is_positive:
        raise NonPositiveValuation("closed-form dual needs a positive valuation")
    breakpoints = [ZERO]
    densities = []
    acc = ZERO
    for left, right, density in valuation.segments():
        acc += density * (right - left)
        breakpoints.append(acc)
        densities.append(1 / density)
    return PiecewiseConstantValuation(breakpoints, densities)


def dual_piece(valuation, piece: Piece) -> Piece:
    """Image of a piece under t -> eval(0, t) for a positive valuation.

    The image width equals the piece's value, and the piece's width equals
    the image's value under the dual.
    """
    if getattr(valuation, "is_positive", True) is False:
        raise NonPositiveValuation("piece dualization needs a positive valuation")
    images = []
    for iv in piece.intervals:
        images.append(Interval(valuation.eval(ZERO, iv.left), valuation.eval(ZERO, iv.right)))
    return normalize_piece(images)


@dataclass(frozen=True)
class CertificateEntry:
    """Per-player outcome of the reduction: the dualized piece and whether
    it certifies heaviness (width <= 1/n and value >= 1/(2n))."""

    player: int
    piece: Piece
    width: Fraction
    value: Fraction
    heavy: bool

    def to_json(self) -> dict:
        return {
            "player": self.player,
            "piece": self.piece.to_pairs(),
            "width": scalar_str(self.width),
            "value": scalar_str(self.value),
            "heavy": self.heavy,
        }


@dataclass(frozen=True)
class ReductionReport:
    n: int
    entries: tuple[CertificateEntry, ...]
    dual_queries: int
    base_queries_protocol: int
    base_queries_dualization: int

    @property
    def certificates(self) -> list[tuple[int, Piece]]:
        """The (player, piece) pairs whose heaviness was verified."""
        return [(e.player, e.piece) for e in self.entries if e.heavy]

    @property
    def required_certificates(self) -> int:
        return math.ceil(self.n / 3)

    @property
    def base_queries_total(self) -> int:
        return self.base_queries_protocol + self.base_queries_dualization

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "certificates": len(self.certificates),
            "required": self.required_certificates,
            "entries": [e.to_json() for e in self.entries],
            "query_counts": {
                "dual": self.dual_queries,
                "base_protocol": self.base_queries_protocol,
                "base_dualization": self.base_queries_dualization,
                "base_total": self.base_queries_total,
            },
        }


def reduction_pipeline(
    valuations: Sequence[PiecewiseConstantValuation],
    protocol: Callable[[QueryReferee, str], Allocation],
    budget: Optional[int] = None,
) -> ReductionReport:
    """Turn a proportional chore protocol into a heavy-piece finder.

    Runs ``protocol`` in chore mode against the duals of the given positive
    (0,2)-dense valuations (each dual query billed as two base queries),
    dualizes every allocated piece back through base cut queries, and
    checks from the images that the output really is a proportional chore
    allocation.  At least ceil(n/3) of the returned pieces are verified
    heavy for their owners; heaviness is checked exactly and pieces may
    overlap (this is a search result, not an allocation).
    """
    bounds = DensityBounds(Fraction(0), Fraction(2))
    for i, v in enumerate(valuations):
        if not isinstance(v, PiecewiseConstantValuation):
            raise InvalidInput(f"valuations[{i}] rejected: not piecewise-constant")
        if not v.is_positive:
            raise NonPositiveValuation(f"valuations[{i}] rejected: not positive")
        if not verify_dense(v, bounds):
            raise InvalidInput(f"valuations[{i}] rejected: not (0,2)-dense")
    n = len(valuations)
    base_referee = QueryReferee(list(valuations), budget=budget)
    duals = [DualValuation(base_referee.view(i)) for i in range(n)]
    dual_referee = QueryReferee(duals)

    allocation = protocol(dual_referee, "chore")
    dual_queries = dual_referee.total
    base_protocol = base_referee.total

    # Dualize each allocated piece: eval_{v*}(0, t) == cut_v(0, t), so each
    # endpoint is one billed base cut.  For positive v that map is strictly
    # increasing, so a piece's chore cost under v* is exactly its image's
    # width.  The reduction guarantee rests on the protocol's
    # proportionality, so the widths are checked against 1/n before any
    # certificate is returned, which leaves heaviness only its value test.
    verify_partition(allocation)
    bound = Fraction(1, n)
    value_bound = Fraction(1, 2 * n)
    entries = []
    for i, piece in enumerate(allocation.pieces):
        images = []
        for iv in piece.intervals:
            a = base_referee.cut(i, ZERO, iv.left)
            b = base_referee.cut(i, ZERO, iv.right)
            if a is None or b is None:
                raise ProtocolViolation(f"player {i}: a dual endpoint has no base cut point")
            images.append(Interval(a, b))
        image = normalize_piece(images)
        value = valuations[i].value_of_piece(image)
        entries.append(CertificateEntry(i, image, image.width, value, heavy=value >= value_bound))
    for entry in entries:
        if entry.width > bound:
            raise ProtocolViolation(
                f"player {entry.player}: chore cost {entry.width} exceeds 1/{n}; "
                "the protocol is not proportional, reduction guarantee void"
            )
    base_dualization = base_referee.total - base_protocol
    return ReductionReport(
        n=n,
        entries=tuple(entries),
        dual_queries=dual_queries,
        base_queries_protocol=base_protocol,
        base_queries_dualization=base_dualization,
    )

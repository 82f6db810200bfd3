"""Dual valuations and the chore-to-cake reduction pipeline.

The dual of a positive valuation v swaps the roles of width and value:
``v*(x, y) = cut_v(0, y) - cut_v(0, x)``.  Both dual queries reduce to a
constant number of queries on the base valuation,

* ``eval_{v*}(x, y) = cut_v(0, y) - cut_v(0, x)``  (two base cuts),
* ``cut_{v*}(x, r)  = eval_v(0, cut_v(0, x) + r)`` (one base cut, one eval),

so a protocol run against duals costs exactly twice its dual-level query
count on the base valuations.  A dual asks the same endpoints
``cut_v(0, t)`` over and over: a step base computes each one once and
remembers it, and the referee bills it every time it is asked.  A dual
cut checks ``r`` by the one mass rule,
:func:`~fairslice.geometry.cut_mass`, before any base query, has no answer
for an exact ``r > 1``, and answers ``x`` itself for ``r == 0``.  Dualizing
is an involution (v** = v).

The payoff: a piece that is *light* for v* (wide but cheap) dualizes to a
piece that is *heavy* for v (narrow but valuable).  ``reduction_pipeline``
exploits this to turn any proportional chore protocol into a heavy-piece
finder for more than n/3, so at least ``n // 3 + 1``, of n given
(0,2)-dense valuations.  The count: the chore pieces partition the dual
line, so their dual widths sum to 1.  A piece's dual width is its image's
value, so a light piece is under 1/(2n) wide, and a heavy one is at most
2/n wide, since its image is at most 1/n wide and every density is at
most 2.  With k heavy pieces, 1 < 2k/n + (n - k)/(2n), so k > n/3.
``ReductionReport.required_certificates`` is that bound, ``n // 3 + 1``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InvalidInput, NonPositiveValuation, ProtocolViolation
from .geometry import (
    CUT_START,
    EVAL_RANGE,
    ONE,
    ZERO,
    Interval,
    Piece,
    above_one,
    cut_mass,
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
    dual_pwc_closed_form,  # re-exported: the closed-form dual swaps a step valuation's tables
    is_heavy,
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

    def _base_cut(self, t: Fraction) -> Real:
        """The base's ``cut(0, t)``, which a positive normalized base answers;
        a base that does not has broken its guarantee (exit 3)."""
        position = self.base.cut(ZERO, t)
        if position is None:
            raise ProtocolViolation(f"the dual endpoint {t} has no base cut point")
        return position

    def eval(self, x, y) -> Real:
        x, y = unit_span(x, y, EVAL_RANGE)
        cx = self._base_cut(x)
        return self._base_cut(y) - cx

    def cut(self, x, r) -> Optional[Real]:
        x, _ = unit_span(x, ONE, CUT_START)
        r = cut_mass(r)  # refused before the first base query, so nothing is billed
        cx = self._base_cut(x)
        # an r above 1 is decided on the exact r, before a float cx rounds it
        position = None if above_one(r) else cx + r
        if position is None or above_one(position):
            self.base.eval(ZERO, ONE)  # billed anyway: see the class docstring
            return None
        value = self.base.eval(ZERO, position)
        # billed anyway too: x itself answers a zero mass, where a float base
        # can map x through its cut and eval to a point just below x
        return value if r else x


class CertificateEntry(NamedTuple):
    """Per-player outcome of the reduction: the dualized piece and whether
    it certifies heaviness (width <= 1/n and value >= 1/(2n), by
    :func:`~fairslice.valuation.is_heavy`)."""

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


class ReductionReport(NamedTuple):
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
        return self.n // 3 + 1

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
    allocation.  More than n/3 of the returned pieces, so at least
    ``n // 3 + 1``, are verified heavy for their owners (the count is in
    the module docstring); heaviness is checked exactly and pieces may
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
    # endpoint is one billed base cut, through the dual's own guard.  For positive v that map is strictly
    # increasing, so a piece's chore cost under v* is exactly its image's
    # width.  The reduction guarantee rests on the protocol's
    # proportionality, so each width is checked against 1/n as soon as it
    # is known, and no certificate is returned from a broken protocol.
    verify_partition(allocation)
    entries = []
    for i, piece in enumerate(allocation.pieces):
        to_base = duals[i]._base_cut
        image = normalize_piece(Interval(to_base(iv.left), to_base(iv.right)) for iv in piece.intervals)
        width = image.width
        if width.numerator * n > width.denominator:  # chore cost above 1/n
            raise ProtocolViolation(
                f"player {i}: chore cost {width} exceeds 1/{n}; "
                "the protocol is not proportional, reduction guarantee void"
            )
        value = valuations[i].value_of_piece(image)
        entries.append(CertificateEntry(i, image, width, value, heavy=is_heavy(width, value, n)))
    base_dualization = base_referee.total - base_protocol
    return ReductionReport(
        n=n,
        entries=tuple(entries),
        dual_queries=dual_queries,
        base_queries_protocol=base_protocol,
        base_queries_dualization=base_dualization,
    )

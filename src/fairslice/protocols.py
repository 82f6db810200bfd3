"""Proportional division protocols and allocation checkers.

All protocols interact with player valuations only through a
:class:`~fairslice.referee.QueryReferee`; the checkers, by contrast, read
valuations directly (verification is free in the query model).

``mode`` selects the objective:

* ``"cake"`` -- the resource is desirable; proportional means every player
  values their own piece at >= 1/n.
* ``"chore"`` -- the resource is a cost; proportional means <= 1/n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvalidInput, PartitionViolation, ProtocolViolation
from .geometry import ONE, ZERO, Interval, Piece, as_scalar, check_tolerance
from .referee import QueryReferee
from .valuation import Real, Valuation, encode_real, is_heavy

MODES = ("cake", "chore")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InvalidInput(f"mode must be one of {MODES}, got {mode!r}")


class Allocation(NamedTuple):
    """One piece per player; a valid allocation partitions [0, 1]."""

    pieces: tuple[Piece, ...]

    @property
    def n(self) -> int:
        return len(self.pieces)

    def to_json(self) -> dict:
        return {"pieces": [piece.to_pairs() for piece in self.pieces]}


def verify_partition(allocation: Allocation) -> None:
    """Raise :class:`PartitionViolation` unless the pieces tile [0, 1].

    Pieces must be pairwise disjoint (shared endpoints are fine) and cover
    the whole segment; the error lists every gap, and every overlap as
    ``(left, right, a, b)``: ``b``'s interval starts inside ``a``'s.
    """
    # float(left) first, by integer true division, exact left as tie-break:
    # the order of (left, right, player)
    marked = sorted(
        (n / d, iv.left, iv.right, player)
        for player, piece in enumerate(allocation.pieces)
        for iv in piece.intervals
        for n, d in (iv.left.as_integer_ratio(),)
    )
    overlaps = []
    gaps = []
    cursor = ZERO
    owner = None  # the player whose interval reaches cursor
    for _, left, right, player in marked:
        if left != cursor:
            if left > cursor:
                gaps.append((cursor, left))
            else:
                overlaps.append((left, min(right, cursor), owner, player))
        if right > cursor:
            cursor, owner = right, player
    if cursor < ONE:
        gaps.append((cursor, ONE))
    if overlaps or gaps:
        raise PartitionViolation(
            f"not a partition of [0,1]: {len(overlaps)} overlap(s), {len(gaps)} gap(s)",
            overlaps=overlaps,
            gaps=gaps,
        )


class PlayerShare(NamedTuple):
    player: int
    value: Real
    bound: Fraction
    ok: bool


class ProportionalityReport(NamedTuple):
    mode: str
    ok: bool
    shares: tuple[PlayerShare, ...]

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "proportional": self.ok,
            "shares": [
                {
                    "player": s.player,
                    "value": encode_real(s.value),
                    "bound": encode_real(s.bound),
                    "ok": s.ok,
                }
                for s in self.shares
            ],
        }


def check_proportional(
    allocation: Allocation,
    valuations: Sequence[Valuation],
    mode: str,
    tol: Real = 0,
) -> ProportionalityReport:
    """Exact per-player proportionality check (partition checked first).

    ``tol`` loosens the comparison for float-valued valuations; rational
    valuations should be checked with the default ``tol=0``.  At ``tol=0``
    each share is decided on its integer ratio against ``1/n``, as
    :func:`~fairslice.valuation.is_heavy` decides, so a float share is
    decided exactly too; a NaN or infinity is refused with
    :class:`InvalidInput`, as is a ``tol`` that is not a finite number ``>= 0``.
    """
    _check_mode(mode)
    check_tolerance(tol, "proportionality tolerance")
    if len(valuations) != allocation.n:
        raise InvalidInput("one valuation per piece required")
    verify_partition(allocation)
    n = allocation.n
    bound = Fraction(1, n)
    chore = mode == "chore"
    shares = []
    for player, piece in enumerate(allocation.pieces):
        value = valuations[player].value_of_piece(piece)
        if tol:
            ok = value <= bound + tol if chore else value + tol >= bound
        else:
            try:
                vn, vd = value.as_integer_ratio()
            except (OverflowError, ValueError):
                raise InvalidInput(f"player {player}: a share needs a finite value, got {value!r}") from None
            ok = vn * n <= vd if chore else vn * n >= vd
        shares.append(PlayerShare(player, value, bound, ok))
    return ProportionalityReport(mode, all(s.ok for s in shares), tuple(shares))


def count_light_pieces(allocation: Allocation, valuations: Sequence[Valuation]) -> int:
    """Number of players whose piece is light for them.

    A piece is light when its width is at least 1/(2n) and its value to the
    owner is at most 1/n: the heavy-piece rule with width and value
    swapped, as dualizing swaps them.  Comparisons are exact.
    """
    n = allocation.n
    return sum(
        is_heavy(valuations[player].value_of_piece(piece), piece.width, n)
        for player, piece in enumerate(allocation.pieces)
    )


def count_narrow_pieces(allocation: Allocation) -> int:
    """Number of pieces strictly narrower than 1/(2n)."""
    n = allocation.n
    return sum(1 for piece in allocation.pieces if piece.width < Fraction(1, 2 * n))


def _single(a: Fraction, b: Fraction) -> Piece:
    return Piece() if a == b else Piece((Interval(a, b),))


def order_marks(marks: dict[int, Fraction], mode: str) -> list[int]:
    """The players of ``marks`` by their mark: ascending in cake mode,
    descending in chore mode, lower player first on ties.

    This is ``sorted(marks, key=lambda p: (marks[p], p))`` in cake mode and
    ``key=lambda p: (-marks[p], p)`` in chore mode, but keys lead with
    ``float(mark)``, computed as the integer true division of the mark's
    ratio, which is how ``float`` converts a ``Fraction``: correctly
    rounded conversion is monotone, so distinct floats order their marks,
    and only marks that round to the same float fall back to the exact
    ``Fraction``.

    >>> order_marks({0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 2)}, "chore")
    [0, 2, 1]
    """
    if mode == "cake":
        keys = sorted((n / d, m, p) for p, m in marks.items() for n, d in (m.as_integer_ratio(),))
        return [p for _, _, p in keys]
    keys = sorted((n / d, m, -p) for p, m in marks.items() for n, d in (m.as_integer_ratio(),))
    return [-p for _, _, p in reversed(keys)]


def cut_and_choose(referee: QueryReferee, mode: str) -> Allocation:
    """Two players: player 0 bisects by own value, player 1 picks a side.

    Costs exactly two queries (one cut, one eval).  Player 1 takes the
    weakly better side: the larger in cake mode, the smaller in chore mode.
    """
    _check_mode(mode)
    if referee.n_players != 2:
        raise InvalidInput("cut and choose is a two-player protocol")
    half = Fraction(1, 2)
    m = referee.cut(0, ZERO, half)
    if m is None:
        raise ProtocolViolation(
            "player 0 has no half-value point, which a normalized valuation always has"
        )
    m = as_scalar(m)
    left_value = referee.eval(1, ZERO, m)
    if mode == "cake":
        chooser_takes_left = left_value >= half
    else:
        chooser_takes_left = left_value <= half
    left, right = _single(ZERO, m), _single(m, ONE)
    if chooser_takes_left:
        return Allocation((right, left))
    return Allocation((left, right))


def even_paz(referee: QueryReferee, mode: str) -> Allocation:
    """Divide-and-conquer proportional protocol, cake and chore variants.

    Each active player marks the point splitting off a (k/n)-fraction of
    their value of the current block (k = floor(n/2)); the block is split at
    the k-th mark and the two groups recurse.  In cake mode the k players
    with the smallest marks take the left block (their value of it is
    already >= k/n of the block); in chore mode the k players with the
    *largest* marks take the left block, with the split at the smallest of
    their marks, so each of them bears at most k/n of the block's cost.
    Ties are broken toward lower player indices.

    Every player's value of the current block is threaded through the
    recursion (one eval on entering a block of two or more players), so the
    total query count is at most 2 * n * ceil(log2 n).  A mark target,
    ``value * k / size``, is built as one ``Fraction`` from the value's
    integer ratio; ``Fraction`` marks and values are kept as given, and
    any other answer (a tree's float) is made an exact rational.
    """
    _check_mode(mode)
    n = referee.n_players
    pieces: list[Piece] = [Piece()] * n
    # blocks left to divide, the next one last: (players, a, b, each
    # player's value of [a, b]; eval(0,1)=1 needs no query).  A block's
    # right half goes below its left half, so blocks are divided depth
    # first, left first.  A loop, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep the referee and
    # its log alive until the cyclic collector ran.
    blocks = [(list(range(n)), ZERO, ONE, {player: ONE for player in range(n)})]
    while blocks:
        players, a, b, values = blocks.pop()
        if len(players) == 1:
            pieces[players[0]] = _single(a, b)
            continue
        size = len(players)
        k = size // 2
        marks = {}
        for player in players:
            vn, vd = values[player].as_integer_ratio()
            target = Fraction(vn * k, vd * size)
            mark = referee.cut(player, a, target)
            if mark is None:
                raise ProtocolViolation(
                    f"player {player} has no mark for {target} from {a}; "
                    "the mark target never exceeds the block value"
                )
            marks[player] = mark if mark.__class__ is Fraction else as_scalar(mark)
        ordered = order_marks(marks, mode)
        left_group, right_group = ordered[:k], ordered[k:]
        x = marks[left_group[-1]]  # k-th smallest mark (cake) / k-th largest (chore)
        left_values = {}
        if len(left_group) > 1:
            for player in left_group:
                value = referee.eval(player, a, x)
                left_values[player] = value if value.__class__ is Fraction else as_scalar(value)
        right_values = {}
        if len(right_group) > 1:
            for player in right_group:
                value = referee.eval(player, x, b)
                right_values[player] = value if value.__class__ is Fraction else as_scalar(value)
        blocks.append((right_group, x, b, right_values))
        blocks.append((left_group, a, x, left_values))
    return Allocation(tuple(pieces))


def last_diminisher(referee: QueryReferee, mode: str = "cake") -> Allocation:
    """Quadratic-query proportional cake protocol; the n log n foil.

    Round by round, the lowest-index active player slices a prospective
    piece worth exactly 1/n to them off the remaining cake; every other
    active player trims it back to their own 1/n-value point whenever they
    consider it worth more.  The last player to touch the piece takes it.
    """
    if mode != "cake":
        raise InvalidInput("last diminisher is implemented for cake mode only")
    n = referee.n_players
    share = Fraction(1, n)
    pieces: list[Piece] = [Piece()] * n
    active = list(range(n))
    start = ZERO
    while len(active) > 1:
        holder = active[0]
        edge = referee.cut(holder, start, share)
        if edge is None:
            raise ProtocolViolation(
                f"player {holder} cannot slice 1/{n} from {start}; "
                "every remaining player values the rest at >= 1/n"
            )
        edge = as_scalar(edge)
        for player in active[1:]:
            if referee.eval(player, start, edge) > share:
                trimmed = referee.cut(player, start, share)
                if trimmed is None:
                    raise ProtocolViolation(
                        f"player {player} values the piece above 1/{n} but cannot trim it"
                    )
                edge = as_scalar(trimmed)
                holder = player
        pieces[holder] = _single(start, edge)
        active.remove(holder)
        start = edge
    pieces[active[0]] = _single(start, ONE)
    return Allocation(tuple(pieces))


PROTOCOLS = {
    "cut-and-choose": cut_and_choose,
    "even-paz": even_paz,
    "last-diminisher": last_diminisher,
}

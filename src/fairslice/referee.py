"""Query accounting for the eval/cut model.

Every protocol-to-valuation interaction goes through a :class:`QueryReferee`,
which counts queries per player, appends an ordered log record for each one,
and optionally enforces a total budget.  Complexity claims in tests and
reports always come from referee counters, never from protocol self-reports.

Counting rules:

* a ``cut`` that declares "no answer" still costs one query;
* a repeated identical query is counted and logged again, every time; a
  leaf valuation may answer the repeat from memory, below the referee;
* a query that would exceed the budget is rejected *before* it reaches the
  valuation, so the log never exceeds the budget;
* a player is an ``int`` in range, by the one rule :func:`check_player`
  (so ``True``, ``1.0``, ``"0"`` and ``None`` are refused with
  :class:`UnknownPlayer`), for queries, views and :func:`replay_log` alike;
* arguments are normalized before they reach the valuation and the log:
  positions to exact rationals, and a cut mass by
  :func:`~fairslice.geometry.cut_mass`, the rule every ``cut`` applies.
  A ``Fraction`` passes as given, found by an exact-type test, so the
  ``Fraction``s protocols pass are not rebuilt; a step valuation then
  reads their integer ratios once and builds one ``Fraction``, its answer.

A query makes no method or property call on the referee: it runs
:func:`check_player`, compares the budget with the log's length in place,
and once both pass calls only :func:`ask_eval` or :func:`ask_cut`.

Records are built only by :func:`ask_eval` and :func:`ask_cut`, which
normalize, answer, and take what the answer revealed from the valuation
(:meth:`~fairslice.valuation.Valuation.take_reveals`; the ``(path,
kinds)`` pairs an adversary session newly labeled).  The referee runs
them after its player and budget checks; a session asked without a
referee runs them through its ``answer_eval``/``answer_cut``.  So a
query leaves one record, and :func:`replay_log` is the one replay loop:
exact by default, or within a tolerance for float-valued trees.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import BudgetExhausted, InvalidInput, ReplayMismatch, UnknownPlayer
from .geometry import ScalarLike, as_scalar, cut_mass
from .valuation import Real, Valuation, encode_real

#: compact JSON text of an object, the referee log's and a transcript's
#: record format, from one encoder: ``json.dumps`` with separators builds
#: a new encoder on every call
compact_json = json.JSONEncoder(separators=(",", ":")).encode


class QueryRecord(NamedTuple):
    """One logged query; ``answer`` is ``None`` for a cut with no answer, and
    ``reveals`` lists the ``(path, kinds)`` pairs of the nodes an adversary
    session labeled to answer it, in reveal order."""

    kind: str  # "eval" | "cut"
    player: int
    args: tuple
    answer: object
    reveals: tuple = ()

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "player": self.player,
            "args": [encode_real(a) for a in self.args],
            "answer": encode_real(self.answer),
        }


def ask_eval(valuation: Valuation, player: int, x: ScalarLike, y: ScalarLike) -> QueryRecord:
    """Normalize an eval query's arguments, ask ``valuation``, and return
    the query's record with what the answer revealed.  Counts nothing."""
    # exact-type tests skip as_scalar for the Fractions protocols pass
    x = x if x.__class__ is Fraction else as_scalar(x)
    y = y if y.__class__ is Fraction else as_scalar(y)
    answer = valuation.eval(x, y)
    return QueryRecord("eval", player, (x, y), answer, valuation.take_reveals())


def ask_cut(valuation: Valuation, player: int, x: ScalarLike, r: Real) -> QueryRecord:
    """:func:`ask_eval` for a cut query."""
    x = x if x.__class__ is Fraction else as_scalar(x)
    r = cut_mass(r)
    answer = valuation.cut(x, r)
    return QueryRecord("cut", player, (x, r), answer, valuation.take_reveals())


def check_player(player: int, n: int, context: str = "") -> None:
    """The one player rule, of every query and :func:`replay_log`: a player
    is an ``int`` (a ``bool`` is not one) in ``0..n-1``, or is refused with
    :class:`UnknownPlayer`, whose message starts with ``context``."""
    if player.__class__ is not int:
        raise UnknownPlayer(f"{context}player {player!r} is not an int in 0..{n - 1}")
    if not 0 <= player < n:
        raise UnknownPlayer(f"{context}player {player} out of range 0..{n - 1}")


class PlayerView:
    """A single player's valuation as seen through the referee.

    Implements the eval/cut interface, so anything expecting a valuation
    (e.g. a dual wrapper) can be metered transparently.
    """

    __slots__ = ("_referee", "player")

    def __init__(self, referee: "QueryReferee", player: int):
        self._referee = referee
        self.player = player

    def eval(self, x: ScalarLike, y: ScalarLike) -> Real:
        return self._referee.eval(self.player, x, y)

    def cut(self, x: ScalarLike, r: Real) -> Optional[Real]:
        return self._referee.cut(self.player, x, r)

    @property
    def is_positive(self) -> bool:
        # Introspection, not a query: positivity is part of the instance
        # setup, not something a protocol learns through the oracle.
        return self._referee.valuation(self.player).is_positive


class QueryReferee:
    """Counts, logs and budgets every query against a set of valuations."""

    def __init__(self, valuations: Sequence[Valuation], budget: Optional[int] = None):
        if not valuations:
            raise InvalidInput("referee needs at least one valuation")
        if budget is not None and budget < 0:
            raise InvalidInput(f"budget must be non-negative, got {budget}")
        self._valuations = tuple(valuations)
        self.budget = budget
        self.counts = [0] * len(self._valuations)
        self.log: list[QueryRecord] = []

    @property
    def n_players(self) -> int:
        return len(self._valuations)

    @property
    def total(self) -> int:
        return len(self.log)

    def valuation(self, player: int) -> Valuation:
        return self._valuations[player]

    def view(self, player: int) -> PlayerView:
        check_player(player, len(self._valuations))
        return PlayerView(self, player)

    def _refuse_over_budget(self) -> None:
        raise BudgetExhausted(
            f"query budget of {self.budget} exhausted after {self.total} queries"
        )

    def eval(self, player: int, x: ScalarLike, y: ScalarLike) -> Real:
        valuations, log = self._valuations, self.log
        check_player(player, len(valuations))
        if self.budget is not None and len(log) + 1 > self.budget:
            self._refuse_over_budget()
        rec = ask_eval(valuations[player], player, x, y)
        self.counts[player] += 1
        log.append(rec)
        return rec.answer

    def cut(self, player: int, x: ScalarLike, r: Real) -> Optional[Real]:
        valuations, log = self._valuations, self.log
        check_player(player, len(valuations))
        if self.budget is not None and len(log) + 1 > self.budget:
            self._refuse_over_budget()
        rec = ask_cut(valuations[player], player, x, r)
        self.counts[player] += 1
        log.append(rec)
        return rec.answer

    def log_lines(self) -> list[str]:
        """The query log as JSON-lines, one record per query in wall order."""
        return [compact_json(rec.to_json_obj()) for rec in self.log]


def replay_log(
    records: Sequence[QueryRecord], valuations: Sequence[Valuation], tol: float = 0
) -> bool:
    """Re-issue a logged query sequence and demand the logged answers.

    A ``None`` answer matches only ``None``; any other must equal the
    logged one or lie within ``tol`` of it, and the default 0 demands
    equality, so a NaN on either side never matches.  A ``tol`` that is not
    a finite number ``>= 0`` is refused with :class:`InvalidInput`.
    Returns True, or raises :class:`ReplayMismatch` naming the first
    divergence.
    """
    if tol.__class__ not in (int, float, Fraction) or not 0 <= tol < math.inf:
        raise InvalidInput(f"replay tolerance must be a finite number >= 0, got {tol!r}")
    for i, rec in enumerate(records):
        check_player(rec.player, len(valuations), f"record {i}: ")
        val = valuations[rec.player]
        if rec.kind == "eval":
            answer = val.eval(*rec.args)
        elif rec.kind == "cut":
            answer = val.cut(*rec.args)
        else:
            raise InvalidInput(f"record {i}: unknown kind {rec.kind!r}")
        if answer is None or rec.answer is None:
            diverged = answer is not rec.answer
        else:
            diverged = answer != rec.answer and not abs(answer - rec.answer) <= tol
        if diverged:
            raise ReplayMismatch(
                f"record {i} ({rec.kind} {rec.args}): logged {rec.answer!r}, replayed {answer!r}"
            )
    return True

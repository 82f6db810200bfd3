"""Query accounting for the eval/cut model.

Every protocol-to-valuation interaction goes through a :class:`QueryReferee`,
which counts queries per player, appends an ordered log record for each one,
and optionally enforces a total budget.  Complexity claims in tests and
reports always come from referee counters, never from protocol self-reports.

Counting rules:

* a ``cut`` that declares "no answer" still costs one query;
* repeated identical queries are re-counted (no memoization);
* a query that would exceed the budget is rejected *before* it reaches the
  valuation, so the log never exceeds the budget;
* arguments are normalized before they reach the valuation and the log:
  positions to exact rationals, a cut mass likewise unless it is a float,
  which is kept as given.

:class:`QueryRecord` is also the adversary session's log record, so
:func:`replay_log` is the one replay loop: exact by default, or within a
tolerance for float-valued trees.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO, NamedTuple, Optional, Sequence

from .errors import BudgetExhausted, InvalidInput, ReplayMismatch, UnknownPlayer
from .geometry import ScalarLike, as_scalar
from .valuation import Real, Valuation, encode_real


class QueryRecord(NamedTuple):
    """One logged query; ``answer`` is ``None`` for a cut with no answer, and
    ``reveals`` lists the nodes an adversary session labeled to answer it."""

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
        self._check_player(player)
        return PlayerView(self, player)

    def _check_player(self, player: int) -> None:
        if not (0 <= player < len(self._valuations)):
            raise UnknownPlayer(f"player {player} out of range 0..{len(self._valuations) - 1}")

    def _admit(self) -> None:
        if self.budget is not None and self.total + 1 > self.budget:
            raise BudgetExhausted(
                f"query budget of {self.budget} exhausted after {self.total} queries"
            )

    def eval(self, player: int, x: ScalarLike, y: ScalarLike) -> Real:
        self._check_player(player)
        self._admit()
        # as_scalar, skipped for the Fractions protocols pass
        x = x if isinstance(x, Fraction) else as_scalar(x)
        y = y if isinstance(y, Fraction) else as_scalar(y)
        answer = self._valuations[player].eval(x, y)
        self.counts[player] += 1
        self.log.append(QueryRecord("eval", player, (x, y), answer))
        return answer

    def cut(self, player: int, x: ScalarLike, r: Real) -> Optional[Real]:
        self._check_player(player)
        self._admit()
        x = x if isinstance(x, Fraction) else as_scalar(x)
        if not isinstance(r, (Fraction, float)):
            r = as_scalar(r)
        answer = self._valuations[player].cut(x, r)
        self.counts[player] += 1
        self.log.append(QueryRecord("cut", player, (x, r), answer))
        return answer

    def log_lines(self) -> list[str]:
        """The query log as JSON-lines, one record per query in wall order."""
        return [json.dumps(rec.to_json_obj(), separators=(",", ":")) for rec in self.log]

    def export_log(self, fp: IO[str]) -> None:
        for line in self.log_lines():
            fp.write(line + "\n")


def replay_log(
    records: Sequence[QueryRecord], valuations: Sequence[Valuation], tol: float = 0
) -> bool:
    """Re-issue a logged query sequence and demand the logged answers.

    A ``None`` answer matches only ``None``; any other must be within
    ``tol``, and the default 0 demands equality.  Returns True, or raises
    :class:`ReplayMismatch` naming the first divergence.
    """
    for i, rec in enumerate(records):
        if not 0 <= rec.player < len(valuations):
            raise UnknownPlayer(f"record {i}: player {rec.player} out of range 0..{len(valuations) - 1}")
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
            diverged = abs(answer - rec.answer) > tol if tol else answer != rec.answer
        if diverged:
            raise ReplayMismatch(
                f"record {i} ({rec.kind} {rec.args}): logged {rec.answer!r}, replayed {answer!r}"
            )
    return True

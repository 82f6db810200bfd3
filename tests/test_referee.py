import json
import math
from fractions import Fraction

import pytest

from fairslice.errors import BudgetExhausted, FairsliceError, InvalidInput, ReplayMismatch, UnknownPlayer
from fairslice.referee import QueryRecord, QueryReferee, replay_log
from fairslice.valuation import PiecewiseConstantValuation, Valuation
from fairslice.valuetree import BalancedValueTree, TreeParams

UNIFORM = PiecewiseConstantValuation.uniform()
STEP = PiecewiseConstantValuation.from_segments(
    [(Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(1, 2))]
)


def test_eval_counts_once():
    ref = QueryReferee([UNIFORM])
    assert ref.eval(0, 0, 1) == 1
    assert ref.total == 1
    assert ref.counts == [1]


def test_identical_queries_are_not_cached():
    ref = QueryReferee([UNIFORM])
    a = ref.eval(0, Fraction(1, 4), Fraction(3, 4))
    b = ref.eval(0, Fraction(1, 4), Fraction(3, 4))
    assert a == b == Fraction(1, 2)
    assert ref.total == 2


def test_cut_and_no_answer_both_billed():
    ref = QueryReferee([UNIFORM])
    assert ref.cut(0, 0, Fraction(1, 2)) == Fraction(1, 2)
    assert ref.cut(0, Fraction(3, 4), Fraction(1, 2)) is None
    assert ref.total == 2
    assert ref.log[1].answer is None


def test_counts_split_by_player_and_sum():
    ref = QueryReferee([UNIFORM, STEP])
    ref.eval(0, 0, 1)
    ref.cut(1, 0, Fraction(1, 2))
    ref.eval(1, 0, Fraction(1, 2))
    assert ref.counts == [1, 2]
    assert ref.total == sum(ref.counts) == len(ref.log)


def test_budget_rejects_before_forwarding():
    ref = QueryReferee([UNIFORM], budget=0)
    with pytest.raises(BudgetExhausted):
        ref.eval(0, 0, 1)
    assert ref.total == 0 and ref.log == []

    ref = QueryReferee([UNIFORM], budget=2)
    ref.eval(0, 0, 1)
    ref.cut(0, 0, Fraction(1, 2))
    with pytest.raises(BudgetExhausted):
        ref.eval(0, 0, 1)
    assert ref.total == 2


def test_player_index_checked():
    ref = QueryReferee([UNIFORM])
    with pytest.raises(IndexError):
        ref.eval(1, 0, 1)


def test_unknown_player_is_a_typed_error():
    ref = QueryReferee([UNIFORM])
    with pytest.raises(FairsliceError, match="player -1 out of range"):
        ref.cut(-1, 0, Fraction(1, 2))
    assert ref.total == 0


def test_invalid_args_propagate_unbilled():
    ref = QueryReferee([UNIFORM])
    with pytest.raises(ValueError):
        ref.eval(0, Fraction(3, 4), Fraction(1, 4))
    assert ref.total == 0


def test_view_forwards_and_bills():
    ref = QueryReferee([UNIFORM, STEP])
    view = ref.view(1)
    assert view.eval(0, Fraction(1, 2)) == Fraction(3, 4)
    assert view.cut(0, Fraction(3, 4)) == Fraction(1, 2)
    assert view.is_positive
    assert ref.counts == [0, 2]


def test_log_export_jsonl():
    ref = QueryReferee([STEP])
    ref.eval(0, 0, Fraction(3, 4))
    ref.cut(0, Fraction(3, 4), Fraction(1, 2))
    lines = [json.loads(line) for line in ref.log_lines()]
    assert lines[0] == {"kind": "eval", "player": 0, "args": ["0", "3/4"], "answer": "7/8"}
    assert lines[1] == {"kind": "cut", "player": 0, "args": ["3/4", "1/2"], "answer": None}


def test_replay_determinism():
    ref = QueryReferee([UNIFORM, STEP])
    ref.eval(0, 0, 1)
    ref.cut(1, 0, Fraction(7, 8))
    ref.eval(1, Fraction(1, 4), Fraction(3, 4))
    ref.cut(0, Fraction(9, 10), Fraction(1, 2))  # no answer
    assert replay_log(ref.log, [UNIFORM, STEP])


def test_replay_catches_divergence():
    ref = QueryReferee([UNIFORM])
    ref.eval(0, 0, Fraction(1, 2))  # 1/2 for uniform, 3/4 for STEP
    with pytest.raises(AssertionError):
        replay_log(ref.log, [STEP])


def test_replay_divergence_is_a_typed_error():
    ref = QueryReferee([UNIFORM])
    ref.cut(0, 0, Fraction(1, 2))
    with pytest.raises(ReplayMismatch, match="record 0") as info:
        replay_log(ref.log, [STEP])
    assert isinstance(info.value, FairsliceError)


@pytest.mark.parametrize("tol", [0, 1e-9, 1.0])
def test_replay_none_matches_only_none(tol):
    logged_none = QueryRecord("cut", 0, (0, Fraction(1, 2)), None)  # UNIFORM answers 1/2
    with pytest.raises(ReplayMismatch, match="record 0"):
        replay_log([logged_none], [UNIFORM], tol)
    logged_number = QueryRecord("cut", 0, (Fraction(3, 4), Fraction(1, 2)), Fraction(7, 8))
    with pytest.raises(ReplayMismatch, match="record 0"):
        replay_log([logged_number], [UNIFORM], tol)  # UNIFORM has no answer


def test_replay_refuses_a_negative_player():
    # -1 would otherwise index the last valuation and replay against it
    ref = QueryReferee([UNIFORM, UNIFORM])
    ref.eval(0, 0, Fraction(1, 2))
    ref.eval(1, 0, Fraction(1, 2))
    moved = ref.log[1]._replace(player=-1)
    with pytest.raises(UnknownPlayer, match="record 1: player -1"):
        replay_log([ref.log[0], moved], [UNIFORM, UNIFORM])


def test_replay_refuses_a_player_past_the_last():
    ref = QueryReferee([UNIFORM, STEP, UNIFORM])
    ref.cut(2, 0, Fraction(1, 2))
    with pytest.raises(UnknownPlayer, match="record 0: player 2") as info:
        replay_log(ref.log, [UNIFORM, STEP])
    assert isinstance(info.value, FairsliceError)


def test_replay_tolerance():
    tree = BalancedValueTree(TreeParams.from_depth(11), seed=4)
    answer = tree.eval(0, Fraction(1, 3))
    off_by_an_ulp = QueryRecord("eval", 0, (0, Fraction(1, 3)), math.nextafter(answer, 2.0))
    with pytest.raises(ReplayMismatch, match="record 0"):
        replay_log([off_by_an_ulp], [tree])
    assert replay_log([off_by_an_ulp], [tree], tol=1e-9)


class NanValuation(Valuation):
    """Answers NaN to every query."""

    def eval(self, x, y):
        return math.nan

    def cut(self, x, r):
        return math.nan


def test_replay_refuses_a_nan_replayed_answer():
    logged = QueryRecord("eval", 0, (Fraction(0), Fraction(1, 2)), 0.5)
    with pytest.raises(ReplayMismatch, match="record 0"):
        replay_log([logged], [NanValuation()], tol=1e-9)


def test_replay_refuses_a_nan_logged_answer():
    logged = QueryRecord("eval", 0, (Fraction(0), Fraction(1, 2)), math.nan)
    with pytest.raises(ReplayMismatch, match="record 0"):
        replay_log([logged], [UNIFORM], tol=1e-9)


@pytest.mark.parametrize("tol", [math.nan, -1, -1e-9, math.inf, "0", None, True])
def test_replay_refuses_a_tolerance_that_is_not_a_finite_number_at_least_0(tol):
    ref = QueryReferee([UNIFORM])
    ref.eval(0, 0, Fraction(1, 2))
    with pytest.raises(InvalidInput, match="replay tolerance"):
        replay_log(ref.log, [UNIFORM], tol)
    diverged = ref.log[0]._replace(answer=Fraction(1, 3))
    with pytest.raises(InvalidInput, match="replay tolerance"):
        replay_log([diverged], [UNIFORM], tol)


def test_log_normalizes_string_int_and_float_arguments():
    ref = QueryReferee([STEP])
    ref.eval(0, "1/3", 1)
    ref.eval(0, 0.25, "3/4")
    ref.cut(0, "1/4", "1/2")
    ref.cut(0, 0, 0.375)
    assert [rec.args for rec in ref.log] == [
        (Fraction(1, 3), Fraction(1)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 4), Fraction(1, 2)),
        (Fraction(0), 0.375),
    ]
    lines = ref.log_lines()
    assert [json.loads(line)["args"] for line in lines] == [
        ["1/3", "1"], ["1/4", "3/4"], ["1/4", "1/2"], ["0", 0.375]
    ]
    # one JSON-lines record per line
    assert "\n".join(lines).splitlines() == lines
    assert replay_log(ref.log, [STEP], tol=0)


#: players that are not an int: a bool, a float, a string and None
NOT_INT_PLAYERS = [True, 1.0, "0", None]
NOT_INT_IDS = ["bool", "float", "str", "none"]


@pytest.mark.parametrize("player", NOT_INT_PLAYERS, ids=NOT_INT_IDS)
def test_eval_refuses_a_player_that_is_not_an_int(player):
    ref = QueryReferee([UNIFORM, STEP])
    with pytest.raises(UnknownPlayer, match="is not an int in 0..1"):
        ref.eval(player, 0, 1)
    assert ref.total == 0 and ref.counts == [0, 0]


@pytest.mark.parametrize("player", NOT_INT_PLAYERS, ids=NOT_INT_IDS)
def test_cut_refuses_a_player_that_is_not_an_int(player):
    ref = QueryReferee([UNIFORM, STEP])
    with pytest.raises(UnknownPlayer, match="is not an int in 0..1"):
        ref.cut(player, 0, Fraction(1, 2))
    assert ref.total == 0 and ref.counts == [0, 0]


@pytest.mark.parametrize("player", NOT_INT_PLAYERS, ids=NOT_INT_IDS)
def test_view_refuses_a_player_that_is_not_an_int(player):
    ref = QueryReferee([UNIFORM, STEP])
    with pytest.raises(UnknownPlayer, match="is not an int in 0..1"):
        ref.view(player)


@pytest.mark.parametrize("player", NOT_INT_PLAYERS, ids=NOT_INT_IDS)
def test_replay_refuses_a_player_that_is_not_an_int(player):
    ref = QueryReferee([UNIFORM, STEP])
    ref.eval(1, 0, Fraction(1, 2))
    ref.eval(1, 0, Fraction(1, 2))
    moved = ref.log[1]._replace(player=player)
    with pytest.raises(UnknownPlayer, match="record 1: player .* is not an int in 0..1"):
        replay_log([ref.log[0], moved], [UNIFORM, STEP])

"""Non-finite, malformed and out-of-range numbers are refused as
``InvalidInput``.

A query with such an argument is refused before it is answered: no
referee counts or logs it, a session neither logs it nor reveals a node
(asked through a referee or through ``answer_eval``/``answer_cut``), and a
dual issues no base query for it.  Step, dual and tree valuations
share one range check, and refuse a position just outside [0, 1], or an
eval range reversed by 1/10**40, with the same message.  They share one
cut-mass rule too: every valuation, and a referee, refuses the same masses
with the same message, and answers ``None`` for every mass above 1, however
large or however close to 1.
"""

import math
from fractions import Fraction

import pytest

from fairslice.adversary import AdversarySession
from fairslice.dual import DualValuation
from fairslice.errors import InvalidInput
from fairslice.geometry import as_scalar
from fairslice.referee import QueryReferee
from fairslice.valuation import PiecewiseConstantValuation
from fairslice.valuetree import BalancedValueTree, TreeParams

BAD = [math.nan, math.inf, -math.inf, "abc", "1/0", None]
BAD_IDS = ["nan", "inf", "-inf", "malformed", "zero-denominator", "none"]

STEP = PiecewiseConstantValuation.from_segments(
    [(Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(1, 2))]
)


def _referees(kind):
    """A referee over one valuation of ``kind``, and every referee that a
    query through it reaches."""
    if kind == "dual":
        base = QueryReferee([STEP])
        top = QueryReferee([DualValuation(base.view(0))])
        return top, [top, base]
    valuation = {
        "step": lambda: STEP,
        "tree": lambda: BalancedValueTree(TreeParams.from_depth(7, permissive=True), seed=1),
        "session": lambda: AdversarySession(TreeParams.from_depth(60)),
    }[kind]()
    top = QueryReferee([valuation])
    return top, [top]


QUERIES = {
    "eval-x": lambda ref, bad: ref.eval(0, bad, 1),
    "eval-y": lambda ref, bad: ref.eval(0, 0, bad),
    "cut-x": lambda ref, bad: ref.cut(0, bad, Fraction(1, 2)),
    "cut-r": lambda ref, bad: ref.cut(0, Fraction(1, 3), bad),
}


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
def test_as_scalar_refuses(bad):
    with pytest.raises(InvalidInput):
        as_scalar(bad)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("kind", ["step", "tree", "session", "dual"])
def test_refused_before_it_is_counted(kind, query, bad):
    top, referees = _referees(kind)
    with pytest.raises(InvalidInput):
        QUERIES[query](top, bad)
    assert all(ref.counts == [0] and not ref.log for ref in referees)
    valuation = top.valuation(0)
    if isinstance(valuation, AdversarySession):
        assert valuation.m == 0 and len(valuation.revealed) == 0
    # the refusal left nothing behind: the next query is the first one
    top.eval(0, 0, Fraction(1, 2))
    assert top.counts == [1] and top.log[0].kind == "eval"
    if isinstance(valuation, AdversarySession):
        assert valuation.m == 1


class _AnsweringSession:
    """A session with no referee, asked through ``answer_eval``/``answer_cut``
    in the referee's call shape, so :data:`QUERIES` can ask it."""

    def __init__(self, session):
        self.session = session

    def eval(self, player, x, y):
        return self.session.answer_eval(x, y)

    def cut(self, player, x, r):
        return self.session.answer_cut(x, r)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_refused_by_a_session_without_a_referee(query, bad):
    session = AdversarySession(TreeParams.from_depth(60))
    with pytest.raises(InvalidInput):
        QUERIES[query](_AnsweringSession(session), bad)
    assert session.m == 0 and not session.log and not session.revealed
    # the next query is the first one, and its record holds only its reveals
    session.answer_eval(0, Fraction(1, 2))
    assert session.m == 1 and session.log[0].kind == "eval"
    assert len(session.log[0].reveals) == len(session.revealed)


TINY = Fraction(1, 10**30)
TINIER = Fraction(1, 10**40)
HALF = Fraction(1, 2)

#: a query with one argument out of range by a hair, and its refusal
RANGE_REFUSALS = {
    "eval-x-below-0": (lambda v: v.eval(-TINY, 1), f"eval needs 0 <= x <= y <= 1, got ({-TINY}, 1)"),
    "eval-y-above-1": (lambda v: v.eval(0, 1 + TINY), f"eval needs 0 <= x <= y <= 1, got (0, {1 + TINY})"),
    "eval-x-above-y": (
        lambda v: v.eval(HALF + TINIER, HALF),
        f"eval needs 0 <= x <= y <= 1, got ({HALF + TINIER}, 1/2)",
    ),
    "cut-x-below-0": (lambda v: v.cut(-TINY, HALF), f"cut needs 0 <= x <= 1, got {-TINY}"),
    "cut-x-above-1": (lambda v: v.cut(1 + TINY, 0), f"cut needs 0 <= x <= 1, got {1 + TINY}"),
}

def _hashed_tree():
    return BalancedValueTree(TreeParams.from_depth(7, permissive=True), seed=1)


VALUATIONS = {
    "step": lambda: STEP,
    "dual": lambda: DualValuation(STEP),
    "tree": _hashed_tree,
    "session": lambda: AdversarySession(TreeParams.from_depth(60)),
    "completion": lambda: AdversarySession(TreeParams.from_depth(60)).complete_labeling(0),
    "dual-of-tree": lambda: DualValuation(_hashed_tree()),
}

#: how far a cut from x of mass 0 may land from x: a dual of a tree maps x
#: through a float tree cut and a float tree eval, each rounded
ZERO_CUT_ROUNDING = {"dual-of-tree": 1e-15}


@pytest.mark.parametrize("query", sorted(RANGE_REFUSALS))
@pytest.mark.parametrize("kind", sorted(VALUATIONS))
def test_out_of_range_by_a_hair(kind, query):
    ask, message = RANGE_REFUSALS[query]
    with pytest.raises(InvalidInput) as err:
        ask(VALUATIONS[kind]())
    assert str(err.value) == message


@pytest.mark.parametrize("kind", sorted(VALUATIONS))
def test_range_edges_are_accepted(kind):
    valuation = VALUATIONS[kind]()
    assert valuation.eval(0, 1) == 1
    assert valuation.eval("0", "1") == 1
    for x in (0, HALF, 1):
        assert valuation.eval(x, x) == 0
        assert abs(valuation.cut(x, 0) - x) <= ZERO_CUT_ROUNDING.get(kind, 0)
    assert valuation.cut(1, HALF) is None


NO_ANSWER, ANSWERS, REFUSED = "no answer", "answers", "refused"

#: a cut mass and what every valuation does with it from x = 0
MASSES = {
    "huge-int": (10**400, NO_ANSWER),
    "huge-fraction": (Fraction(10**400), NO_ANSWER),
    "two": (2, NO_ANSWER),
    "one-plus-1e-13": (1 + 1e-13, NO_ANSWER),
    "one-plus-1e-40": (1 + TINIER, NO_ANSWER),
    "minus-zero": (-0.0, ANSWERS),
    "half-string": ("1/2", ANSWERS),
    "negative-fraction": (-TINIER, REFUSED),
    "negative-float": (-0.5, REFUSED),
    "negative-int": (-1, REFUSED),
    "nan": (math.nan, REFUSED),
    "inf": (math.inf, REFUSED),
    "-inf": (-math.inf, REFUSED),
    "malformed": ("x", REFUSED),
    "none": (None, REFUSED),
}


def _ask_cut(ask, r, expected):
    """``ask(0, r)``, checked against ``expected``: the one refusal message,
    ``None``, or an answer."""
    if expected == REFUSED:
        with pytest.raises(InvalidInput) as err:
            ask(0, r)
        assert str(err.value) == f"cut needs a finite r >= 0, got {r}"
    else:
        answer = ask(0, r)
        assert (answer is None) == (expected == NO_ANSWER)


@pytest.mark.parametrize("mass", sorted(MASSES))
@pytest.mark.parametrize("kind", sorted(VALUATIONS))
def test_cut_mass_rule(kind, mass):
    r, expected = MASSES[mass]
    valuation = VALUATIONS[kind]()
    _ask_cut(valuation.cut, r, expected)
    if isinstance(valuation, AdversarySession) and expected != ANSWERS:
        # a refused mass reveals nothing; one with no answer still walks,
        # and reveals, x's whole path
        depth = valuation.params.depth
        assert len(valuation.revealed) == (0 if expected == REFUSED else depth)


@pytest.mark.parametrize("mass", sorted(MASSES))
@pytest.mark.parametrize("kind", sorted(VALUATIONS))
def test_cut_mass_rule_through_a_referee(kind, mass):
    r, expected = MASSES[mass]
    referee = QueryReferee([VALUATIONS[kind]()])
    _ask_cut(lambda x, r: referee.cut(0, x, r), r, expected)
    assert referee.counts == [0 if expected == REFUSED else 1]


@pytest.mark.parametrize("mass", sorted(MASSES))
@pytest.mark.parametrize("base", ["step", "tree"])
def test_dual_cut_bills_two_base_queries_unless_refused(base, mass):
    r, expected = MASSES[mass]
    referee = QueryReferee([VALUATIONS[base]()])
    _ask_cut(DualValuation(referee.view(0)).cut, r, expected)
    assert referee.counts == [0 if expected == REFUSED else 2]


def _dual_over_a_referee():
    base = QueryReferee([STEP])
    return DualValuation(base.view(0)), base


#: the mass a dual cut from 1/2 can pass before it runs past 1
ROOM = 1 - STEP.cut(0, HALF)


def test_dual_cut_of_negative_mass_queries_no_base():
    dual, base = _dual_over_a_referee()
    with pytest.raises(InvalidInput) as err:
        dual.cut(HALF, -TINIER)
    assert str(err.value) == f"cut needs a finite r >= 0, got {-TINIER}"
    assert base.counts == [0] and not base.log


def test_dual_cut_to_exactly_one_answers():
    dual, base = _dual_over_a_referee()
    assert dual.cut(HALF, ROOM) == 1
    assert base.counts == [2]


def test_dual_cut_past_one_by_a_hair_has_no_answer():
    dual, base = _dual_over_a_referee()
    assert dual.cut(HALF, ROOM + TINIER) is None
    assert base.counts == [2]

"""Non-finite, malformed and out-of-range numbers are refused as
``InvalidInput``.

A query with such an argument is refused before it is answered: no
referee counts or logs it, a session neither logs it nor reveals a node,
and a dual issues no base query for it.  Step, dual and tree valuations
share one range check, and refuse a position just outside [0, 1], or an
eval range reversed by 1/10**40, with the same message.
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

VALUATIONS = {
    "step": lambda: STEP,
    "dual": lambda: DualValuation(STEP),
    "tree": lambda: BalancedValueTree(TreeParams.from_depth(7, permissive=True), seed=1),
}


@pytest.mark.parametrize("query", sorted(RANGE_REFUSALS))
@pytest.mark.parametrize("kind", sorted(VALUATIONS))
def test_out_of_range_by_a_hair(kind, query):
    ask, message = RANGE_REFUSALS[query]
    with pytest.raises(InvalidInput) as err:
        ask(VALUATIONS[kind]())
    assert str(err.value) == message


def test_step_cut_of_negative_mass():
    with pytest.raises(InvalidInput) as err:
        STEP.cut(HALF, -TINIER)
    assert str(err.value) == f"cut needs r >= 0, got {-TINIER}"


@pytest.mark.parametrize("kind", sorted(VALUATIONS))
def test_range_edges_are_accepted(kind):
    valuation = VALUATIONS[kind]()
    assert valuation.eval(0, 1) == 1
    assert valuation.eval("0", "1") == 1
    for x in (0, HALF, 1):
        assert valuation.eval(x, x) == 0
        assert valuation.cut(x, 0) == x
    assert valuation.cut(1, HALF) is None


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

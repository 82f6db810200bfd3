"""Runtime guarantees fail as typed ProtocolViolation errors.

The protocols and the reduction rely on cut queries having answers.  A
valuation that breaks that contract must surface as ProtocolViolation (CLI
exit code 3), not as an assert that ``python -O`` strips, which would let a
``None`` mark fail later as a TypeError.
"""

from fractions import Fraction

import pytest

from fairslice.dual import DualValuation, reduction_pipeline
from fairslice.errors import (
    FairsliceError,
    InvalidInput,
    PartitionViolation,
    ProtocolViolation,
)
from fairslice.geometry import ONE, as_scalar
from fairslice.protocols import cut_and_choose, even_paz, last_diminisher
from fairslice.referee import QueryReferee
from fairslice.valuation import PiecewiseConstantValuation, Valuation


class NoCut(Valuation):
    """Uniform eval, but no cut query ever has an answer."""

    def eval(self, x, y):
        return as_scalar(y) - as_scalar(x)

    def cut(self, x, r):
        return None


class OverValuing(NoCut):
    """Values every interval at 1, so it always wants to trim, and cannot."""

    def eval(self, x, y):
        return ONE


class BreakableStep(PiecewiseConstantValuation):
    """A step valuation whose cut answers stop once ``broken`` is set."""

    broken = False

    def cut(self, x, r):
        return None if self.broken else super().cut(x, r)


def test_cut_and_choose_without_half_point():
    with pytest.raises(ProtocolViolation, match="half-value point"):
        cut_and_choose(QueryReferee([NoCut(), NoCut()]), "cake")


@pytest.mark.parametrize("mode", ["cake", "chore"])
def test_even_paz_without_mark(mode):
    with pytest.raises(ProtocolViolation, match="no mark"):
        even_paz(QueryReferee([NoCut() for _ in range(3)]), mode)


def test_last_diminisher_without_slice():
    with pytest.raises(ProtocolViolation, match="cannot slice"):
        last_diminisher(QueryReferee([NoCut() for _ in range(3)]))


def test_last_diminisher_without_trim():
    uniform = PiecewiseConstantValuation.uniform()
    with pytest.raises(ProtocolViolation, match="cannot trim"):
        last_diminisher(QueryReferee([uniform, OverValuing(), uniform]))


def test_reduction_dualization_without_cut_point():
    valuations = [
        BreakableStep([Fraction(0), Fraction(1, 2), Fraction(1)], [Fraction(1, 2), Fraction(3, 2)]),
        BreakableStep([Fraction(0), Fraction(1, 3), Fraction(1)], [Fraction(3, 2), Fraction(3, 4)]),
    ]

    def protocol_then_break(referee, mode):
        allocation = even_paz(referee, mode)
        for v in valuations:
            v.broken = True
        return allocation

    with pytest.raises(ProtocolViolation, match="dual endpoint"):
        reduction_pipeline(valuations, protocol_then_break)


@pytest.mark.parametrize("query,args", [("eval", (0, Fraction(1, 2))), ("cut", (Fraction(1, 4), Fraction(1, 2)))])
def test_dual_query_on_a_base_that_stops_answering(query, args):
    base = BreakableStep([Fraction(0), Fraction(1, 2), Fraction(1)], [Fraction(1, 2), Fraction(3, 2)])
    dual = DualValuation(base)
    getattr(dual, query)(*args)
    base.broken = True
    with pytest.raises(ProtocolViolation, match="dual endpoint"):
        getattr(dual, query)(*args)


def test_error_types_carry_their_exit_code():
    # the CLI maps ProtocolViolation to exit 3 and other FairsliceErrors to
    # exit 2; InvalidInput stays a ValueError for callers that catch that
    assert issubclass(InvalidInput, ValueError)
    assert issubclass(InvalidInput, FairsliceError)
    assert not issubclass(InvalidInput, ProtocolViolation)
    assert issubclass(PartitionViolation, ProtocolViolation)

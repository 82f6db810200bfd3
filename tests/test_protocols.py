import gc
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fairslice.dual import dual_pwc_closed_form
from fairslice.errors import InvalidInput, PartitionViolation
from fairslice.geometry import Piece
from fairslice.protocols import (
    Allocation,
    check_proportional,
    count_light_pieces,
    count_narrow_pieces,
    cut_and_choose,
    even_paz,
    last_diminisher,
    order_marks,
    verify_partition,
)
from fairslice.referee import QueryReferee
from fairslice.valuation import (
    DensityBounds,
    PiecewiseConstantValuation,
    random_dense_valuation,
)

from oracles import even_paz_order, reference_even_paz

UNIFORM = PiecewiseConstantValuation.uniform()
STEP = PiecewiseConstantValuation.from_segments(
    [(Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(1, 2))]
)


def random_players(n, seed, segments=6):
    return [
        random_dense_valuation(segments, DensityBounds(0, 2), seed=seed * 1000 + i)
        for i in range(n)
    ]


class TestPartitionCheck:
    def test_accepts_partition(self):
        verify_partition(Allocation((Piece.of((0, "1/3")), Piece.of(("1/3", 1)))))

    def test_detects_gap(self):
        with pytest.raises(PartitionViolation) as err:
            verify_partition(Allocation((Piece.of((0, "1/3")), Piece.of(("1/2", 1)))))
        assert err.value.gaps

    def test_detects_overlap(self):
        with pytest.raises(PartitionViolation) as err:
            verify_partition(Allocation((Piece.of((0, "2/3")), Piece.of(("1/3", 1)))))
        assert err.value.overlaps

    def test_overlap_names_the_player_reaching_past_it(self):
        # player 0's [0, 4/5] reaches past player 1's [1/10, 1/5], so the
        # overlap with player 2's [3/10, 1] is player 0's, not player 1's
        pieces = (Piece.of((0, "4/5")), Piece.of(("1/10", "1/5")), Piece.of(("3/10", 1)))
        with pytest.raises(PartitionViolation) as err:
            verify_partition(Allocation(pieces))
        assert err.value.overlaps == (
            (Fraction(1, 10), Fraction(1, 5), 0, 1),
            (Fraction(3, 10), Fraction(4, 5), 0, 2),
        )

    def test_empty_pieces_allowed_if_covered(self):
        verify_partition(Allocation((Piece.of((0, 1)), Piece())))


class TestCutAndChoose:
    def test_uniform_cake(self):
        ref = QueryReferee([UNIFORM, UNIFORM])
        allocation = cut_and_choose(ref, "cake")
        report = check_proportional(allocation, [UNIFORM, UNIFORM], "cake")
        assert report.ok
        assert all(s.value == Fraction(1, 2) for s in report.shares)
        assert ref.total == 2

    def test_chore_worked_example(self):
        # cutter bisects own cost at 1/3; chooser takes the cheaper side
        ref = QueryReferee([STEP, UNIFORM])
        allocation = cut_and_choose(ref, "chore")
        assert allocation.pieces[1] == Piece.of((0, "1/3"))
        assert allocation.pieces[0] == Piece.of(("1/3", 1))
        report = check_proportional(allocation, [STEP, UNIFORM], "chore")
        assert report.ok
        assert report.shares[0].value == Fraction(1, 2)
        assert report.shares[1].value == Fraction(1, 3)

    def test_query_count_is_two(self):
        for seed in range(5):
            players = random_players(2, seed)
            ref = QueryReferee(players)
            cut_and_choose(ref, "chore")
            assert ref.total == 2

    def test_requires_two_players(self):
        with pytest.raises(ValueError):
            cut_and_choose(QueryReferee([UNIFORM]), "cake")


class TestEvenPaz:
    def test_two_uniform_chore(self):
        ref = QueryReferee([UNIFORM, UNIFORM])
        allocation = even_paz(ref, "chore")
        assert [p.to_pairs() for p in allocation.pieces] == [
            [["0", "1/2"]],
            [["1/2", "1"]],
        ]

    def test_three_uniform_chore_exact_thirds(self):
        ref = QueryReferee([UNIFORM] * 3)
        allocation = even_paz(ref, "chore")
        assert [p.width for p in allocation.pieces] == [Fraction(1, 3)] * 3
        report = check_proportional(allocation, [UNIFORM] * 3, "chore")
        assert report.ok and all(s.value == Fraction(1, 3) for s in report.shares)

    def test_single_player_gets_everything(self):
        ref = QueryReferee([STEP])
        allocation = even_paz(ref, "cake")
        assert allocation.pieces[0] == Piece.of((0, 1))
        assert ref.total == 0

    @pytest.mark.parametrize("mode", ["cake", "chore"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9, 16, 33, 81])
    def test_proportional_and_within_budget(self, mode, n):
        players = random_players(n, seed=n * 17 + (0 if mode == "cake" else 1))
        ref = QueryReferee(players)
        allocation = even_paz(ref, mode)
        assert check_proportional(allocation, players, mode).ok
        assert ref.total <= 2 * n * math.ceil(math.log2(n))

    def test_tie_break_lower_index_wins_left_block(self):
        # identical valuations: marks tie everywhere, so blocks fill by index
        players = [STEP] * 3
        ref = QueryReferee(players)
        allocation = even_paz(ref, "chore")
        lefts = [p.intervals[0].left for p in allocation.pieces]
        assert lefts == sorted(lefts)

    @pytest.mark.parametrize("mode", ["cake", "chore"])
    @pytest.mark.parametrize("n", [2, 8, 27])
    def test_all_marks_tie_as_in_reference_order(self, mode, n):
        players = [STEP] * n
        allocation = even_paz(QueryReferee(players), mode)
        assert [p.to_pairs() for p in allocation.pieces] == [
            [[str(a), str(b)]] for a, b in reference_even_paz(players, mode)
        ]

    @pytest.mark.parametrize("mode", ["cake", "chore"])
    @settings(deadline=None, max_examples=50)
    @given(n=st.integers(2, 64), segments=st.integers(2, 8), seed=st.integers(0, 2**32))
    def test_matches_reference_on_distinct_players(self, mode, n, segments, seed):
        # real marks: the oracle's Fraction targets and exact sort keys
        # against even_paz's integer-ratio targets and float-led keys
        players = [random_dense_valuation(segments, DensityBounds(0, 2), seed=seed + i) for i in range(n)]
        assume(len(set(players)) == n)
        allocation = even_paz(QueryReferee(players), mode)
        assert allocation.pieces == tuple(Piece.of((a, b)) for a, b in reference_even_paz(players, mode))

    @pytest.mark.parametrize("mode", ["cake", "chore"])
    def test_the_referee_is_freed_when_the_protocol_returns(self, mode):
        # no reference cycle holds the referee and its log for the cyclic
        # collector: reference counting frees them at once
        gc.disable()
        try:
            referee = QueryReferee(random_players(9, seed=3))
            freed = weakref.ref(referee)
            even_paz(referee, mode)
            del referee
            assert freed() is None
        finally:
            gc.enable()

    def test_chore_costs_bounded_at_81(self):
        players = random_players(81, seed=5)
        ref = QueryReferee(players)
        allocation = even_paz(ref, "chore")
        report = check_proportional(allocation, players, "chore")
        assert report.ok
        assert ref.total <= 2 * 81 * 7


#: marks closer than one float apart, and exact ties among them
NEAR_THIRD = [
    Fraction(1, 3),
    Fraction(1, 3) + Fraction(1, 10**40),
    Fraction(1, 3) - Fraction(1, 10**40),
    Fraction(1, 3) + Fraction(2, 10**40),
]
MARKS = st.one_of(
    st.sampled_from([*NEAR_THIRD, Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**20),
)


class TestMarkOrder:
    def test_near_third_marks_share_a_float(self):
        assert len({float(m) for m in NEAR_THIRD}) == 1

    @pytest.mark.parametrize("mode", ["cake", "chore"])
    @given(values=st.lists(MARKS, min_size=1, max_size=16), data=st.data())
    def test_matches_fraction_keys(self, mode, values, data):
        # players in drawn order, neither sorted nor contiguous
        players = data.draw(
            st.lists(st.integers(0, 10**6), min_size=len(values), max_size=len(values), unique=True)
        )
        marks = dict(zip(players, values))
        assert order_marks(marks, mode) == even_paz_order(marks, mode)


class TestLastDiminisher:
    def test_two_uniform(self):
        ref = QueryReferee([UNIFORM, UNIFORM])
        allocation = last_diminisher(ref, "cake")
        assert check_proportional(allocation, [UNIFORM, UNIFORM], "cake").ok

    def test_four_uniform_exact_quarters(self):
        ref = QueryReferee([UNIFORM] * 4)
        allocation = last_diminisher(ref, "cake")
        report = check_proportional(allocation, [UNIFORM] * 4, "cake")
        assert report.ok and all(s.value == Fraction(1, 4) for s in report.shares)

    def test_random_instances_proportional(self):
        for n in (3, 8, 20):
            players = random_players(n, seed=n)
            ref = QueryReferee(players)
            allocation = last_diminisher(ref, "cake")
            assert check_proportional(allocation, players, "cake").ok

    def test_quadratic_growth_against_even_paz(self):
        ratios = []
        for n in (8, 27, 81, 243):
            players = random_players(n, seed=n + 2, segments=4)
            ld_ref = QueryReferee(players)
            last_diminisher(ld_ref, "cake")
            ep_ref = QueryReferee(players)
            even_paz(ep_ref, "cake")
            ratios.append(ld_ref.total / ep_ref.total)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_chore_mode_not_supported(self):
        with pytest.raises(ValueError):
            last_diminisher(QueryReferee([UNIFORM, UNIFORM]), "chore")


class FloatAnswers(PiecewiseConstantValuation):
    """A step valuation that answers eval with the float of its exact answer."""

    def eval(self, x, y):
        return float(super().eval(x, y))


def owner_of_share(share, pieces):
    """A step valuation worth exactly ``share`` on ``pieces`` (sorted,
    disjoint ``(left, right)`` pairs) and ``1 - share`` off them, each
    spread evenly."""
    inside = sum(b - a for a, b in pieces)
    ends, dens, cursor = [], [], Fraction(0)
    for a, b in pieces:
        if a > cursor:
            ends.append(a)
            dens.append((1 - share) / (1 - inside))
        ends.append(b)
        dens.append(share / inside)
        cursor = b
    if cursor < 1:
        ends.append(Fraction(1))
        dens.append((1 - share) / (1 - inside))
    return [Fraction(0), *ends], dens


#: just above and just below 1/n, closer than any float to it
NEAR = Fraction(1, 10**40)
#: (n, player 0's piece, its value to player 0, verdict in cake mode, in chore mode)
SHARES = {
    "exact-half": (2, "one", Fraction(1, 2), True, True),
    "exact-third": (3, "one", Fraction(1, 3), True, True),
    "exact-seventh": (7, "one", Fraction(1, 7), True, True),
    "third-plus": (3, "one", Fraction(1, 3) + NEAR, True, False),
    "third-minus": (3, "one", Fraction(1, 3) - NEAR, False, True),
    "half-plus": (2, "one", Fraction(1, 2) + NEAR, True, False),
    "half-minus": (2, "one", Fraction(1, 2) - NEAR, False, True),
    "float-below-half": (2, "float", 0.49999999999999994, False, True),
    "float-above-half": (2, "float", 0.5000000000000001, True, False),
    "float-half": (2, "float", 0.5, True, True),
    "float-of-third": (3, "float", float(Fraction(1, 3)), False, True),
    "two-intervals-exact": (2, "two", Fraction(1, 2), True, True),
    "two-intervals-plus": (2, "two", Fraction(1, 2) + NEAR, True, False),
    "two-intervals-minus": (2, "two", Fraction(1, 2) - NEAR, False, True),
}


class TestCheckers:
    @pytest.mark.parametrize("mode", ["cake", "chore"])
    @pytest.mark.parametrize("case", list(SHARES))
    def test_share_boundary_at_zero_tolerance(self, case, mode):
        n, shape, share, cake_ok, chore_ok = SHARES[case]
        if shape == "two":
            # player 0 holds [0, 1/4] and [1/2, 3/4], player 1 the rest
            own = [(Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))]
            pieces = [Piece.of(*own), Piece.of((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), 1))]
        else:
            # player i holds [i/n, (i+1)/n]
            own = [(Fraction(0), Fraction(1, n))]
            pieces = [Piece.of((Fraction(i, n), Fraction(i + 1, n))) for i in range(n)]
        kind = FloatAnswers if shape == "float" else PiecewiseConstantValuation
        owner = kind(*owner_of_share(Fraction(share), own))
        valuations = [owner] + [UNIFORM] * (n - 1)
        report = check_proportional(Allocation(tuple(pieces)), valuations, mode)
        assert report.shares[0].value == share and type(report.shares[0].value) is type(share)
        assert report.shares[0].ok is (cake_ok if mode == "cake" else chore_ok)
        assert report.ok is report.shares[0].ok  # every uniform player holds exactly 1/n

    def test_share_that_is_not_finite_is_refused_at_zero_tolerance(self):
        class Broken(PiecewiseConstantValuation):
            def eval(self, x, y):
                return math.nan

        allocation = Allocation((Piece.of((0, "1/2")), Piece.of(("1/2", 1))))
        broken = Broken((0, 1), (1,))
        with pytest.raises(InvalidInput, match="player 0: a share needs a finite value"):
            check_proportional(allocation, [broken, UNIFORM], "cake")
        assert not check_proportional(allocation, [broken, UNIFORM], "cake", tol=1e-9).ok

    @pytest.mark.parametrize("tol", [math.inf, math.nan, "x", -1e-9, True])
    def test_a_tolerance_that_is_not_a_finite_number_at_least_0_is_refused(self, tol):
        """replay_log's tolerance rule: an infinite tol would pass a 1/10
        piece of a uniform cake as proportional, and a NaN would fail every
        share."""
        allocation = Allocation((Piece.of((0, "1/10")), Piece.of(("1/10", 1))))
        with pytest.raises(InvalidInput, match="proportionality tolerance"):
            check_proportional(allocation, [UNIFORM, UNIFORM], "cake", tol=tol)
        assert check_proportional(allocation, [UNIFORM, UNIFORM], "cake", tol=Fraction(1, 10**9)).ok is False

    def test_all_to_one_player_fails(self):
        allocation = Allocation((Piece.of((0, 1)), Piece()))
        report = check_proportional(allocation, [UNIFORM, UNIFORM], "chore")
        assert not report.ok
        assert report.shares[0].value == 1
        assert report.shares[1].ok  # zero cost is fine in chore mode

    def test_light_count_equal_shares(self):
        n = 5
        cuts = [Fraction(i, n) for i in range(n + 1)]
        allocation = Allocation(
            tuple(Piece.of((cuts[i], cuts[i + 1])) for i in range(n))
        )
        assert count_light_pieces(allocation, [UNIFORM] * n) == n

    def test_light_count_under_dense_duals(self):
        # duals of (0,2)-dense valuations have all densities >= 1/2; any
        # proportional chore split must leave at least ceil(n/3) light pieces
        # and at most 2n/3 narrow ones.
        for seed in range(5):
            n = 27
            base = random_players(n, seed=seed + 100)
            duals = [dual_pwc_closed_form(v) for v in base]
            ref = QueryReferee(duals)
            allocation = even_paz(ref, "chore")
            assert check_proportional(allocation, duals, "chore").ok
            assert count_light_pieces(allocation, duals) >= math.ceil(n / 3)
            narrow = count_narrow_pieces(allocation)
            assert narrow <= 2 * n / 3
            # widths under (1/2,inf)-dense valuations stay below 2/n
            for piece, dual in zip(allocation.pieces, duals):
                assert piece.width <= 2 * dual.value_of_piece(piece)
                assert piece.width <= Fraction(2, n)

    def test_mode_validation(self):
        allocation = Allocation((Piece.of((0, 1)),))
        with pytest.raises(ValueError):
            check_proportional(allocation, [UNIFORM], "banana")

    def test_light_count_includes_the_edges(self):
        # width exactly 1/(2n) and value exactly 1/n is light
        n = 2
        lumpy = PiecewiseConstantValuation.from_segments([(Fraction(1, 4), 2), (1, Fraction(2, 3))])
        allocation = Allocation((Piece.of((0, "1/4")), Piece.of(("1/4", 1))))
        assert lumpy.value_of_piece(allocation.pieces[0]) == Fraction(1, n)
        assert allocation.pieces[0].width == Fraction(1, 2 * n)
        assert count_light_pieces(allocation, [lumpy, lumpy]) == 2

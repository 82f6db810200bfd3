import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairslice.dual import (
    DualValuation,
    dual_piece,
    dual_pwc_closed_form,
    reduction_pipeline,
)
from fairslice.errors import NonPositiveValuation, ProtocolViolation
from fairslice.geometry import Interval, Piece, normalize_piece
from fairslice.protocols import Allocation, even_paz
from fairslice.referee import QueryReferee
from fairslice.valuation import (
    DensityBounds,
    PiecewiseConstantValuation,
    random_dense_valuation,
    verify_dense,
)

UNIFORM = PiecewiseConstantValuation.uniform()
STEP = PiecewiseConstantValuation.from_segments(
    [(Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(1, 2))]
)
# positive and (0,2)-dense, with prefix masses 5/9 at 1/3 and 7/9 at 2/3, so
# a piece's own width is not its chore cost under the dual
EDGE_STEP = PiecewiseConstantValuation.from_segments(
    [(Fraction(1, 4), Fraction(2)), (Fraction(1), Fraction(2, 3))]
)
BAND = DensityBounds(0, 2)

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=40)


def random_positive_valuation(seed, segments=6):
    return random_dense_valuation(segments, BAND, seed=seed)


class TestDualQueries:
    def test_uniform_is_self_dual(self):
        d = DualValuation(UNIFORM)
        assert d.eval(Fraction(1, 5), Fraction(4, 5)) == Fraction(3, 5)
        assert d.cut(Fraction(1, 4), Fraction(1, 2)) == Fraction(3, 4)

    def test_worked_example(self):
        d = DualValuation(STEP)
        # cut(0, 3/4) = 1/2 and cut(0, 0) = 0 give eval* = 1/2
        assert d.eval(0, Fraction(3, 4)) == Fraction(1, 2)
        # eval(0, cut(0,0) + 1/2) = eval(0, 1/2) = 3/4
        assert d.cut(0, Fraction(1, 2)) == Fraction(3, 4)

    def test_normalization_preserved(self):
        for seed in range(10):
            d = DualValuation(random_positive_valuation(seed))
            assert d.eval(0, 1) == 1

    def test_no_answer(self):
        d = DualValuation(UNIFORM)
        assert d.cut(Fraction(3, 4), Fraction(1, 2)) is None

    def test_rejects_non_positive_base(self):
        flat = PiecewiseConstantValuation([0, Fraction(1, 2), 1], [Fraction(2), Fraction(0)])
        with pytest.raises(NonPositiveValuation):
            DualValuation(flat)

    @given(x=unit_fractions, y=unit_fractions)
    def test_wrapper_matches_closed_form_eval(self, x, y):
        x, y = sorted((x, y))
        assert DualValuation(STEP).eval(x, y) == dual_pwc_closed_form(STEP).eval(x, y)

    @given(x=unit_fractions, r=unit_fractions)
    def test_wrapper_matches_closed_form_cut(self, x, r):
        assert DualValuation(STEP).cut(x, r) == dual_pwc_closed_form(STEP).cut(x, r)


class TestClosedForm:
    def test_uniform(self):
        assert dual_pwc_closed_form(UNIFORM) == UNIFORM

    def test_worked_example_segments(self):
        dual = dual_pwc_closed_form(STEP)
        assert dual == PiecewiseConstantValuation.from_segments(
            [(Fraction(3, 4), Fraction(2, 3)), (Fraction(1), Fraction(2))]
        )

    def test_double_dual_is_identity_exactly(self):
        for seed in range(50):
            v = random_positive_valuation(seed, segments=1 + seed % 9)
            assert dual_pwc_closed_form(dual_pwc_closed_form(v)) == v

    def test_density_inversion_on_segments(self):
        for seed in range(20):
            v = random_positive_valuation(seed)
            dual = dual_pwc_closed_form(v)
            assert list(dual.densities) == [1 / d for d in v.densities]
            # dual breakpoints are the cumulative masses v(0, b_i)
            assert list(dual.breakpoints) == [v.eval(0, b) for b in v.breakpoints]

    def test_dense_band_inverts(self):
        for seed in range(30):
            v = random_positive_valuation(seed)
            dual = dual_pwc_closed_form(v)
            assert all(d >= Fraction(1, 2) for d in dual.densities)
            assert verify_dense(dual, DensityBounds(Fraction(1, 2), None))

    def test_density_inversion_on_aligned_intervals(self):
        # the dual image of a segment-aligned interval [l, r] is
        # [v(0,l), v(0,r)], and its dual density is exactly 1/D_v(l, r)
        from fairslice.valuation import density_of_piece

        for seed in range(15):
            v = random_positive_valuation(seed)
            dual = dual_pwc_closed_form(v)
            bps = v.breakpoints
            for i in range(len(bps) - 1):
                for j in range(i + 1, len(bps)):
                    piece = Piece.of((bps[i], bps[j]))
                    image = dual_piece(v, piece)
                    assert density_of_piece(dual, image) == 1 / density_of_piece(v, piece)


class TestQueryCost:
    def test_each_dual_query_costs_exactly_two_base_queries(self):
        rng = random.Random(7)
        base_ref = QueryReferee([STEP])
        d = DualValuation(base_ref.view(0))
        for i in range(500):
            before = base_ref.total
            if i % 2 == 0:
                x, y = sorted(Fraction(rng.randrange(0, 41), 40) for _ in range(2))
                d.eval(x, y)
            else:
                x = Fraction(rng.randrange(0, 41), 40)
                d.cut(x, Fraction(rng.randrange(0, 61), 40))  # sometimes no answer
            assert base_ref.total - before == 2

    def test_cost_split_one_cut_one_eval(self):
        base_ref = QueryReferee([STEP])
        d = DualValuation(base_ref.view(0))
        d.cut(Fraction(1, 4), Fraction(1, 4))
        kinds = [rec.kind for rec in base_ref.log]
        assert kinds == ["cut", "eval"]


class TestDualPiece:
    def test_uniform_identity(self):
        piece = Piece.of((0, "1/4"), ("1/2", "5/8"))
        assert dual_piece(UNIFORM, piece) == piece

    def test_worked_example(self):
        assert dual_piece(STEP, Piece.of((0, "1/2"))) == Piece.of((0, "3/4"))

    def test_width_equals_value_and_back(self):
        rng = random.Random(3)
        for seed in range(40):
            v = random_positive_valuation(seed)
            dual = dual_pwc_closed_form(v)
            pairs = sorted(Fraction(rng.randrange(0, 25), 24) for _ in range(4))
            piece = normalize_piece(
                [Interval(pairs[0], pairs[1]), Interval(pairs[2], pairs[3])]
            )
            image = dual_piece(v, piece)
            assert image.width == v.value_of_piece(piece)
            assert dual.value_of_piece(image) == piece.width


class TestReductionPipeline:
    def test_uniform_players_all_certified(self):
        report = reduction_pipeline([UNIFORM] * 3, even_paz)
        assert len(report.certificates) == 3
        for entry in report.entries:
            assert entry.heavy
            assert entry.width <= Fraction(1, 3)
            assert entry.value >= Fraction(1, 6)

    def test_random_instances_meet_certificate_floor(self):
        for seed in (1, 2, 3):
            vs = [random_positive_valuation(seed * 50 + i) for i in range(9)]
            report = reduction_pipeline(vs, even_paz)
            assert len(report.certificates) >= 3
            for player, piece in report.certificates:
                assert piece.width <= Fraction(1, 9)
                assert vs[player].value_of_piece(piece) >= Fraction(1, 18)

    def test_base_queries_exactly_double_dual_queries(self):
        vs = [random_positive_valuation(400 + i) for i in range(9)]
        report = reduction_pipeline(vs, even_paz)
        assert report.base_queries_protocol == 2 * report.dual_queries
        assert report.base_queries_dualization > 0

    def test_rejects_out_of_band_input(self):
        spiky = PiecewiseConstantValuation(
            [0, Fraction(1, 8), 1], [Fraction(4), Fraction(4, 7)]
        )
        assert not verify_dense(spiky, BAND)
        with pytest.raises(ValueError, match="dense"):
            reduction_pipeline([spiky] + [UNIFORM] * 2, even_paz)

    def test_rejects_non_positive_input(self):
        flat = PiecewiseConstantValuation([0, Fraction(1, 2), 1], [Fraction(2), Fraction(0)])
        with pytest.raises(NonPositiveValuation):
            reduction_pipeline([flat, UNIFORM], even_paz)

    def test_non_proportional_protocol_fails_loudly(self):
        def broken(referee, mode):
            n = referee.n_players
            # hand everything to player 0: clearly not proportional
            pieces = [Piece.of((0, 1))] + [Piece()] * (n - 1)
            return Allocation(tuple(pieces))

        with pytest.raises(ProtocolViolation):
            reduction_pipeline([UNIFORM] * 3, broken)

    @pytest.mark.parametrize("valuation", [UNIFORM, EDGE_STEP], ids=["uniform", "step"])
    def test_chore_bound_is_checked_at_its_edge(self, valuation):
        # Every player holds the same valuation, so a chore cost of c is the
        # dual-side point valuation.eval(0, c).  Player 1 gets a chore cost
        # of exactly 1/3 plus excess; players 0 and 2 stay within 1/3.
        def protocol_with(excess):
            def partition(referee, mode):
                a = valuation.eval(0, Fraction(1, 3))
                b = valuation.eval(0, Fraction(2, 3) + excess)
                return Allocation((Piece.of((0, a)), Piece.of((a, b)), Piece.of((b, 1))))

            return partition

        report = reduction_pipeline([valuation] * 3, protocol_with(0))
        assert report.entries[1].width == Fraction(1, 3)
        with pytest.raises(ProtocolViolation, match="player 1: chore cost"):
            reduction_pipeline([valuation] * 3, protocol_with(Fraction(1, 10**30)))

    def test_report_json_shape(self):
        report = reduction_pipeline([UNIFORM] * 3, even_paz)
        obj = report.to_json()
        assert obj["n"] == 3 and obj["required"] == 1
        assert obj["certificates"] == 3
        assert len(obj["entries"]) == 3
        assert set(obj["query_counts"]) == {
            "dual",
            "base_protocol",
            "base_dualization",
            "base_total",
        }

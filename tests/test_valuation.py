import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairslice.errors import InvalidInput
from fairslice.geometry import Piece
from fairslice.valuation import (
    DensityBounds,
    PiecewiseConstantValuation,
    is_heavy,
    random_dense_valuation,
    verify_dense,
)

from oracles import bisect_cut, density, fraction_dense_draw, grid_integral

# The worked example used throughout: density 3/2 on [0, 1/2], 1/2 on [1/2, 1].
STEP = PiecewiseConstantValuation.from_segments(
    [(Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(1, 2))]
)
STEP_SEGMENTS = STEP.segments()
UNIFORM = PiecewiseConstantValuation.uniform()

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=48)


class TestConstruction:
    def test_rejects_unnormalized_mass(self):
        with pytest.raises(ValueError, match="mass"):
            PiecewiseConstantValuation.from_segments([(Fraction(1), Fraction(1, 2))])

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseConstantValuation([0, Fraction(1, 2), Fraction(1, 2), 1], [1, 1, 1])
        with pytest.raises(ValueError):
            PiecewiseConstantValuation([Fraction(1, 4), 1], [Fraction(4, 3)])

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            PiecewiseConstantValuation([0, Fraction(1, 2), 1], [Fraction(3), Fraction(-1)])

    def test_positivity_flag(self):
        assert STEP.is_positive
        with_zero = PiecewiseConstantValuation(
            [0, Fraction(1, 2), 1], [Fraction(2), Fraction(0)]
        )
        assert not with_zero.is_positive


class TestEval:
    def test_worked_example_against_grid_oracle(self):
        # expected value derived with the midpoint-grid oracle, then frozen
        oracle = grid_integral(STEP_SEGMENTS, 0, 0.75)
        assert abs(oracle - 7 / 8) < 1e-4
        assert STEP.eval(0, Fraction(3, 4)) == Fraction(7, 8)

    def test_uniform_is_width(self):
        assert UNIFORM.eval(Fraction(1, 7), Fraction(5, 7)) == Fraction(4, 7)

    def test_normalization(self):
        assert STEP.eval(0, 1) == 1
        assert UNIFORM.eval(0, 1) == 1

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            STEP.eval(Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(ValueError):
            STEP.eval(0, Fraction(5, 4))

    @given(x=unit_fractions, y=unit_fractions, z=unit_fractions)
    def test_additivity(self, x, y, z):
        x, y, z = sorted((x, y, z))
        assert STEP.eval(x, z) == STEP.eval(x, y) + STEP.eval(y, z)


class TestCut:
    def test_worked_example_against_bisection_oracle(self):
        oracle = bisect_cut(STEP_SEGMENTS, 0, 0.75)
        assert abs(oracle - 0.5) < 1e-6
        assert STEP.cut(0, Fraction(3, 4)) == Fraction(1, 2)

    def test_uniform_shifts(self):
        assert UNIFORM.cut(Fraction(1, 5), Fraction(1, 2)) == Fraction(7, 10)

    def test_no_answer_beyond_remaining_mass(self):
        assert UNIFORM.cut(Fraction(1, 2), Fraction(3, 4)) is None

    def test_zero_density_tail_answers_at_earliest_point(self):
        v = PiecewiseConstantValuation.from_segments(
            [(Fraction(1, 4), 2), (Fraction(1, 2), 0), (1, 1)]
        )
        assert v.cut(0, Fraction(1, 2)) == Fraction(1, 4)
        assert v.cut(0, 1) == 1
        assert v.cut(Fraction(1, 4), 0) == Fraction(1, 4)

    def test_full_mass_with_trailing_zeros(self):
        v = PiecewiseConstantValuation.from_segments([(Fraction(1, 2), 2), (1, 0)])
        assert v.cut(0, 1) == Fraction(1, 2)

    @given(x=unit_fractions, y=unit_fractions)
    def test_cut_inverts_eval_on_positive(self, x, y):
        x, y = sorted((x, y))
        assert STEP.cut(x, STEP.eval(x, y)) == y

    @given(x=unit_fractions, r=st.fractions(min_value=0, max_value=1, max_denominator=48))
    def test_eval_inverts_cut_when_answered(self, x, r):
        y = STEP.cut(x, r)
        if y is not None:
            assert STEP.eval(x, y) == r


class TestDensity:
    def test_uniform_density_one(self):
        assert density(UNIFORM, Piece.of(("1/8", "3/8"), ("1/2", "5/8"))) == 1

    def test_worked_example_densities(self):
        # both values cross-checked against the grid oracle in oracles.py
        assert density(STEP, Piece.of((0, "1/2"))) == Fraction(3, 2)
        assert density(STEP, Piece.of(("1/2", "1"))) == Fraction(1, 2)


TINY = Fraction(1, 10**30)


@st.composite
def banded_steps(draw):
    """A step valuation and a band whose edges are often exactly its lowest
    or highest density, or off it by 1/10**30."""
    ends = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=64), max_size=6))
    bps = [Fraction(0), *sorted(set(ends) - {0, 1}), Fraction(1)]
    weights = draw(st.lists(st.integers(0, 9), min_size=len(bps) - 1, max_size=len(bps) - 1).filter(any))
    total = sum(w * (b - a) for a, b, w in zip(bps, bps[1:], weights))
    valuation = PiecewiseConstantValuation(bps, [w / total for w in weights])
    low, high = min(valuation.densities), max(valuation.densities)
    alpha = draw(st.sampled_from([low, low - TINY, low + TINY, Fraction(0), Fraction(1)]))
    beta = draw(st.sampled_from([high, high - TINY, high + TINY, Fraction(1), None]))
    return valuation, DensityBounds(min(max(alpha, 0), 1), None if beta is None else max(beta, 1))


class TestDensityBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityBounds(Fraction(3, 2), None)
        with pytest.raises(ValueError):
            DensityBounds(Fraction(1, 2), Fraction(1, 2))

    def test_verify_dense(self):
        assert verify_dense(UNIFORM, DensityBounds(1, 1))
        assert verify_dense(STEP, DensityBounds(0, 2))
        assert not verify_dense(STEP, DensityBounds(1, None))

    def test_verify_dense_at_the_band_edges(self):
        # STEP's densities are 3/2 and 1/2: each edge admits its own density
        assert verify_dense(STEP, DensityBounds(Fraction(1, 2), Fraction(3, 2)))
        assert not verify_dense(STEP, DensityBounds(Fraction(1, 2) + TINY, Fraction(3, 2)))
        assert not verify_dense(STEP, DensityBounds(Fraction(1, 2), Fraction(3, 2) - TINY))

    @given(
        weights=st.lists(st.integers(0, 9), min_size=2, max_size=6).filter(any).map(lambda w: [0, *w]),
        floor=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1)]),
        ceiling=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(7), None]),
        data=st.data(),
    )
    def test_verify_dense_matches_segment_densities(self, weights, floor, ceiling, data):
        # one segment of density 0, under a 0 floor, a positive floor and
        # no ceiling; the oracle tests each segment's Fraction density
        # against the band
        weights = data.draw(st.permutations(weights))
        interior = data.draw(st.sets(
            st.fractions(min_value=0, max_value=1, max_denominator=97).filter(lambda b: 0 < b < 1),
            min_size=len(weights) - 1, max_size=len(weights) - 1,
        ))
        bps = [Fraction(0), *sorted(interior), Fraction(1)]
        total = sum(w * (b - a) for a, b, w in zip(bps, bps[1:], weights))
        densities = [w / total for w in weights]
        want = all(floor <= d and (ceiling is None or d <= ceiling) for d in densities)
        valuation = PiecewiseConstantValuation(bps, densities)
        assert verify_dense(valuation, DensityBounds(floor, ceiling)) == want

    @given(banded_steps())
    def test_verify_dense_matches_admits(self, case):
        valuation, bounds = case
        assert verify_dense(valuation, bounds) == all(bounds.admits(d) for d in valuation.densities)


class TestGenerator:
    def test_single_segment_is_uniform(self):
        got = random_dense_valuation(1, DensityBounds(0, 2), seed=9)
        assert got == UNIFORM

    def test_deterministic_in_seed(self):
        a = random_dense_valuation(8, DensityBounds(0, 2), seed=42)
        b = random_dense_valuation(8, DensityBounds(0, 2), seed=42)
        assert a == b
        assert a != random_dense_valuation(8, DensityBounds(0, 2), seed=43)

    def test_respects_band_and_positivity(self):
        for seed in range(25):
            v = random_dense_valuation(8, DensityBounds(0, 2), seed=seed)
            assert verify_dense(v, DensityBounds(0, 2))
            assert v.is_positive

    def test_half_to_infinity_band(self):
        for seed in range(10):
            v = random_dense_valuation(8, DensityBounds(Fraction(1, 2), None), seed=seed)
            assert all(d >= Fraction(1, 2) for d in v.densities)

    def test_segment_count(self):
        v = random_dense_valuation(5, DensityBounds(0, 2), seed=3)
        assert len(v.densities) == 5

    @pytest.mark.parametrize("segments", [2.5, 2.0, Fraction(2), "3", True, None, 0, -3], ids=repr)
    def test_bad_segment_count_is_invalid_input(self, segments):
        with pytest.raises(InvalidInput):
            random_dense_valuation(segments, DensityBounds(0, 2), seed=1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "abc", "3", True, False, None, Fraction(3)], ids=repr)
    def test_non_int_seed_is_invalid_input(self, seed):
        with pytest.raises(InvalidInput, match="seed must be an int"):
            random_dense_valuation(4, DensityBounds(0, 2), seed=seed)

    @pytest.mark.parametrize("bounds", [None, (0, 2), "0,2"], ids=repr)
    def test_non_band_bounds_is_invalid_input(self, bounds):
        with pytest.raises(InvalidInput, match="bounds must be a DensityBounds"):
            random_dense_valuation(4, bounds, seed=1)

    @pytest.mark.parametrize(
        "segments,bounds",
        [
            (1, DensityBounds(0, 2)),
            (6, DensityBounds(Fraction(1, 2), 2)),
            (6, DensityBounds(0, None)),
            (8, DensityBounds(0, 2)),
            (8, DensityBounds(Fraction(1, 2), None)),
            (64, DensityBounds(0, 2)),
            (64, DensityBounds(0, None)),
        ],
    )
    def test_integer_draw_matches_fraction_draw(self, segments, bounds):
        for seed in range(60 if segments < 64 else 15):
            v = random_dense_valuation(segments, bounds, seed=seed)
            bps, dens = fraction_dense_draw(segments, bounds, seed=seed)
            assert v.breakpoints == bps and v.densities == dens
            # the generator's tables are the constructor's, which == compares
            built = PiecewiseConstantValuation(v.breakpoints, v.densities)
            assert (v._bkey, v._ckey, v.is_positive) == (built._bkey, built._ckey, built.is_positive)


class TestJson:
    def test_roundtrip(self):
        obj = STEP.to_json()
        assert obj == {
            "type": "piecewise_constant",
            "segments": [
                {"end": "1/2", "density": "3/2"},
                {"end": "1", "density": "1/2"},
            ],
        }
        assert PiecewiseConstantValuation.from_json(obj) == STEP

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            PiecewiseConstantValuation.from_json(
                {"type": "piecewise_constant", "segments": [{"end": "1", "density": "2"}]}
            )

    def test_rejects_bad_final_end(self):
        with pytest.raises(ValueError, match="final"):
            PiecewiseConstantValuation.from_json(
                {"type": "piecewise_constant", "segments": [{"end": "1/2", "density": "2"}]}
            )

    def test_field_diagnostics(self):
        with pytest.raises(ValueError, match=r"segments\[0\]"):
            PiecewiseConstantValuation.from_json(
                {"type": "piecewise_constant", "segments": [{"end": "x/y", "density": "1"}]}
            )


def test_subinterval_densities_stay_in_band():
    # every subinterval of a positive (0,2)-dense valuation has density in
    # (0, 2]: checked exactly on the segments themselves and on random
    # intervals (whose density is a convex mix of segment densities)
    rng = __import__("random").Random(77)
    for seed in range(20):
        v = random_dense_valuation(6, DensityBounds(0, 2), seed=seed)
        for left, right, _ in v.segments():
            d = density(v, Piece.of((left, right)))
            assert 0 < d <= 2
        for _ in range(10):
            a, b = sorted(Fraction(rng.randrange(0, 121), 120) for _ in range(2))
            if a < b:
                d = density(v, Piece.of((a, b)))
                assert 0 < d <= 2


@settings(max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_valuations_agree_with_grid_oracle(seed):
    v = random_dense_valuation(4, DensityBounds(0, 2), seed=seed)
    got = v.eval(Fraction(1, 8), Fraction(7, 8))
    oracle = grid_integral(v.segments(), Fraction(1, 8), Fraction(7, 8), steps=40_000)
    assert abs(float(got) - oracle) < 2e-3


class TestHeavyRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 27, 3**60])
    def test_exact_edges(self, n):
        assert is_heavy(Fraction(1, n), Fraction(1, 2 * n), n)
        assert not is_heavy(Fraction(1, n) + Fraction(1, 10**30), Fraction(1, 2 * n), n)
        assert not is_heavy(Fraction(1, n), math.nextafter(float(Fraction(1, 2 * n)), 0), n)

    def test_a_float_just_below_the_bound_is_not_heavy(self):
        sixth = float(Fraction(1, 6))
        assert sixth < Fraction(1, 6)
        assert not is_heavy(Fraction(1, 3), sixth, 3)
        assert is_heavy(Fraction(1, 3), math.nextafter(sixth, 1), 3)

    def test_ints_and_floats(self):
        assert is_heavy(0, 1, 1) and is_heavy(1, 1, 1) and not is_heavy(2, 1, 1)
        assert is_heavy(0.5, 0.25, 2) and not is_heavy(0.5, 0.2499, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_is_invalid_input(self, bad):
        with pytest.raises(InvalidInput):
            is_heavy(Fraction(1, 3), bad, 3)

    @given(
        st.one_of(st.fractions(min_value=0, max_value=1), st.floats(0, 1)),
        st.one_of(st.fractions(min_value=0, max_value=1), st.floats(0, 1)),
        st.integers(1, 10**6),
    )
    def test_matches_the_fraction_comparison(self, width, value, n):
        expected = Fraction(width) <= Fraction(1, n) and Fraction(value) >= Fraction(1, 2 * n)
        assert is_heavy(width, value, n) == expected

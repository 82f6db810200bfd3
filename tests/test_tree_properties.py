"""Properties of the shared mass descent on hashed trees and completions.

``cut`` answers through the descent and ``eval`` through the path walk, so
``eval(x, cut(x, r))`` must give back ``r``, and ``cut`` must be monotone
in ``r``.  Both run on a hashed tree and on a completion of a driven
adversary session, at depth 11 and at depth 60.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairslice.adversary import AdversarySession
from fairslice.valuetree import BalancedValueTree, TreeParams


def completed_tree(depth: int, seed: int):
    session = AdversarySession(TreeParams.from_depth(depth))
    rng = random.Random(seed)
    grid = 3**9
    for _ in range(10):
        if rng.random() < 0.5:
            a, b = sorted(Fraction(rng.randrange(0, grid + 1), grid) for _ in range(2))
            session.answer_eval(a, b)
        else:
            session.answer_cut(Fraction(rng.randrange(0, grid + 1), grid), rng.random())
    return session.complete_labeling(seed=seed)


TREES = {
    "hashed-11": BalancedValueTree(TreeParams.from_depth(11), seed=5),
    "hashed-60": BalancedValueTree(TreeParams.from_depth(60), seed=6),
    "completed-11": completed_tree(11, seed=7),
    "completed-60": completed_tree(60, seed=8),
}


def points(depth: int):
    """Positions on a coarse grid, on the leaf grid, or with a non-3-adic
    denominator."""
    return st.one_of(
        st.integers(0, 3**9).map(lambda i: Fraction(i, 3**9)),
        st.integers(0, 3**depth).map(lambda i: Fraction(i, 3**depth)),
        st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    )


@pytest.mark.parametrize("name", sorted(TREES))
def test_eval_of_cut_returns_mass(name):
    tree = TREES[name]

    @settings(max_examples=60, deadline=None)
    @given(x=points(tree.params.depth), share=st.floats(0, 1))
    def check(x, share):
        r = tree.eval(x, 1) * share
        y = tree.cut(x, r)
        assert y is not None
        # a float answer may round an ulp below x, so compare prefix masses
        assert abs(tree.eval(0, y) - tree.eval(0, x) - r) <= 1e-9

    check()


@pytest.mark.parametrize("name", sorted(TREES))
def test_cut_is_monotone_in_mass(name):
    tree = TREES[name]

    @settings(max_examples=60, deadline=None)
    @given(
        x=points(tree.params.depth),
        shares=st.lists(st.floats(0, 1, exclude_min=True), min_size=2, max_size=6),
    )
    # the smallest share rounds r to 0.0, answered float(x); unclamped, the
    # descent for 1e-90 of the mass answers an ulp below it on every tree
    @example(x=Fraction(533, 737), shares=[5e-324, 1e-90, 0.5])
    def check(x, shares):
        available = tree.eval(x, 1)
        answers = [tree.cut(x, available * s) for s in sorted(shares)]
        assert all(a is not None for a in answers)
        assert answers == sorted(answers)

    check()


def small_numerator(i: int, k: int) -> Fraction:
    """i / 3^k, capped at 1: points that share numerators across sizes."""
    return min(Fraction(i, 3**k), Fraction(1))


@pytest.mark.parametrize("depth", [11, 60])
def test_answers_do_not_depend_on_earlier_queries(depth):
    """A tree remembers the prefix mass of each position it walked; a run
    of queries on one tree must answer as each query does on a fresh tree."""
    params = TreeParams.from_depth(depth)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        pool=st.lists(
            st.one_of(points(depth), st.builds(small_numerator, st.integers(1, 9), st.integers(1, depth))),
            min_size=1,
            max_size=4,
        ),
        queries=st.lists(
            st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3), st.floats(0, 1.2)),
            min_size=1,
            max_size=12,
        ),
    )
    def check(seed, pool, queries):
        tree = BalancedValueTree(params, seed)
        for is_eval, i, j, r in queries:
            a, b = sorted((pool[i % len(pool)], pool[j % len(pool)]))
            if is_eval:
                got, fresh = tree.eval(a, b), BalancedValueTree(params, seed).eval(a, b)
            else:
                got, fresh = tree.cut(a, r), BalancedValueTree(params, seed).cut(a, r)
            assert repr(got) == repr(fresh)

    check()


# Known defect of float cut answers (exact positions are ROADMAP item 1):
# cut(x, 0) returns float(x), which rounds to nearest and so can lie below
# x.  A positive cut answers from the descent, clamped at float(x), so it
# never orders before cut(x, 0); but eval(x, y) refuses any y < x.


@pytest.mark.xfail(strict=True, raises=ValueError, reason="float cut answer rounds below x")
def test_eval_from_x_to_its_zero_cut():
    tree = TREES["hashed-11"]
    x = Fraction(1, 19683)
    assert tree.cut(x, 0) < x
    tree.eval(x, tree.cut(x, 0))


def test_zero_cut_orders_before_tiny_cut():
    tree = TREES["hashed-11"]
    x = Fraction(6, 3**9)
    assert tree.cut(x, 0) <= tree.cut(x, 5e-324)

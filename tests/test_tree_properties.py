"""Properties of the shared walks on hashed trees and completions.

``cut`` answers through the descent and ``eval`` through the path walk, so
``eval(x, cut(x, r))`` must give back ``r``, and ``cut`` must be monotone
in ``r``.  Both run on a hashed tree and on a completion of a driven
adversary session, at depth 11 and at depth 60.  A prefix walk to a
position on the leaf grid stops at the node the position starts, and any
prefix walk or descent stops once the rest of the tree can no longer
change its float; prefix masses, eval and cut must be the full-depth
oracle's, float for float, at depths 11, 60 and 200 and on a permissive
depth-7 tree with critical nodes near the root, and at 3^60 and
3^200 a walk or descent must read a number of labels that does not grow
with the depth.
A narrow piece's exact value, summed from ``leaf_masses``, must be the
oracle's label product, on hashed trees and completions at depths 11, 60
and 200.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairslice.adversary import AdversarySession
from fairslice.geometry import Piece
from fairslice.valuetree import BalancedValueTree, TreeParams, index_path, leaf_path

import oracles


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


BOUNDARY_TREES = {
    **TREES,
    # every heavy child of the root is critical: thirds a level down
    "hashed-permissive-7": BalancedValueTree(TreeParams.from_depth(7, permissive=True), seed=11),
    "hashed-200": BalancedValueTree(TreeParams.from_depth(200), seed=9),
    "completed-200": completed_tree(200, seed=10),
}


def full_leaf_walk(tree, t: Fraction) -> float:
    """The prefix mass of t by the oracle's walk down t's whole leaf path,
    plus the share of the leaf cell left of t."""
    return oracles.full_depth_prefix(tree, t)


def fresh_prefix(tree, t: Fraction) -> float:
    """``tree._prefix(t)`` walked now, not read from the tree's memo."""
    tree._masses.clear()
    return tree._prefix(t)


@pytest.mark.parametrize("name", sorted(BOUNDARY_TREES))
def test_grid_positions_walk_to_the_node_they_start(name):
    """t = k / 3^j is the left end of a node at depth j (fewer when k has
    trailing zero digits); the walk stops there and gets the full leaf
    walk's mass with ``==``."""
    tree = BOUNDARY_TREES[name]
    depth = tree.params.depth

    @settings(max_examples=80, deadline=None)
    @given(
        j=st.integers(0, depth),
        k=st.integers(0, 3**depth),
        zeros=st.integers(0, 4),
    )
    @example(j=depth, k=3**depth - 1, zeros=0)
    @example(j=0, k=1, zeros=0)
    @example(j=1, k=1, zeros=0)
    @example(j=depth, k=2, zeros=3)
    def check(j, k, zeros):
        zeros = min(zeros, j)
        t = Fraction(k % (3 ** (j - zeros) + 1) * 3**zeros, 3**j)
        if t in (0, 1):
            # the ends walk nothing
            assert fresh_prefix(tree, t) == float(t)
            return
        assert fresh_prefix(tree, t) == full_leaf_walk(tree, t)
        # t in lowest terms, a / 3^r, starts a node at depth r exactly
        num, den = t.numerator, t.denominator
        node = tree._prefix_node(num, den, num * tree.params.n // den, 0)
        assert 3 ** len(node) == t.denominator
        assert node == leaf_path(t, depth)[: len(node)]

    check()


@pytest.mark.parametrize("name", sorted(BOUNDARY_TREES))
def test_positions_inside_a_leaf_walk_the_whole_leaf_path(name):
    """Off the leaf grid the walk follows the whole leaf path, trailing
    zero digits included, until the float is settled, and adds its share
    of the leaf: the mass is the full leaf walk's."""
    tree = BOUNDARY_TREES[name]
    depth, n = tree.params.depth, tree.params.n

    @settings(max_examples=60, deadline=None)
    @given(
        index=st.one_of(
            st.integers(0, n - 1),
            # leaves whose paths end in at least depth - 5 zero digits
            st.integers(0, 3**5 - 1).map(lambda i: i * 3 ** (depth - 5)),
        ),
        num=st.integers(1, 10**6),
        gap=st.integers(1, 10**6),
    )
    @example(index=0, num=1, gap=1)
    @example(index=3**4, num=1, gap=2)
    def check(index, num, gap):
        t = (index + Fraction(num, num + gap)) / n
        assert fresh_prefix(tree, t) == full_leaf_walk(tree, t)
        rem = t.numerator * n % t.denominator
        assert tree._prefix_node(t.numerator, t.denominator, index, rem) == index_path(index, depth)

    check()


def settle_positions(depth: int):
    """Positions below 1e-12, within 1e-6 of 1, on the leaf grid, and
    anywhere, as fractions and as floats."""
    n = 3**depth
    return st.one_of(
        st.integers(1, 10**6).map(lambda k: Fraction(k, 10**18)),
        st.integers(0, 10**6).map(lambda k: 1 - Fraction(k, 10**12)),
        st.integers(0, n).map(lambda i: Fraction(i, n)),
        st.fractions(min_value=0, max_value=1, max_denominator=10**12),
        st.floats(0, 1).map(Fraction),
    )


#: cut masses from the smallest positive float to past the whole tree's mass
SETTLE_MASSES = st.one_of(st.floats(5e-324, 1.2), st.sampled_from([5e-324, 1e-300, 1e-20, 1.2]))


@pytest.mark.parametrize("name", sorted(BOUNDARY_TREES))
def test_settled_walks_match_the_full_depth_oracle(name):
    """Prefix walks and descents stop once the rest of the tree cannot
    change their float; a fresh ``_prefix``, ``eval`` and ``cut`` must
    equal the full-depth oracle's with ``==``, and so must each cut
    answer's prefix mass and the cut from it, fed back in as the next x,
    until a cut runs past the end (``None``)."""
    tree = BOUNDARY_TREES[name]
    depth = tree.params.depth

    @settings(max_examples=40, deadline=None)
    @given(
        x=settle_positions(depth),
        y=settle_positions(depth),
        masses=st.lists(SETTLE_MASSES, min_size=1, max_size=4),
    )
    @example(x=Fraction(1, 10**18), y=Fraction(1), masses=[5e-324, 1e-20, 0.5, 1.2])
    @example(x=1 - Fraction(1, 10**12), y=Fraction(1, 3), masses=[1e-300, 1.2])
    def check(x, y, masses):
        prefix = oracles.full_depth_prefix
        assert fresh_prefix(tree, x) == prefix(tree, x)
        a, b = sorted((x, y))
        tree._masses.clear()
        assert tree.eval(a, b) == max(prefix(tree, b) - prefix(tree, a), 0.0)
        start = x
        for r in masses:
            tree._masses.clear()
            answer = tree.cut(start, r)
            assert answer == oracles.full_depth_cut(tree, start, r)
            if answer is None:
                break
            assert fresh_prefix(tree, Fraction(answer)) == prefix(tree, answer)
            start = answer

    check()


class CountingTree(BalancedValueTree):
    """A hashed tree that counts the labels its walks read."""

    reads = 0

    def _labels(self, path, sig, step=None):
        self.reads += 1
        return BalancedValueTree._labels(self, path, sig)

    _path_labels = _descent_labels = _labels


@pytest.mark.parametrize("depth", [60, 200])
def test_settled_walks_read_labels_independent_of_depth(depth):
    """A walk to a position in [1/10, 9/10], and a descent to a target
    mass there, settle their float about 35 levels down at any depth.  The
    lower bound checks that an overriding reader is still called at every
    node, as the hashed tree's running label state serves only its own rule."""
    tree = CountingTree(TreeParams.from_depth(depth), seed=depth)
    for k in range(100, 901, 8):
        tree.reads = 0
        fresh_prefix(tree, Fraction(k, 1000))
        assert 20 <= tree.reads <= 45
        tree.reads = 0
        tree._descend(k / 1000)
        assert 20 <= tree.reads <= 45


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


EXACT_TREES = {
    f"{kind}-{depth}": make(depth)
    for depth in (11, 60, 200)
    for kind, make in (
        ("hashed", lambda depth: BalancedValueTree(TreeParams.from_depth(depth), seed=depth)),
        ("completed", lambda depth: completed_tree(depth, seed=depth + 1)),
    )
}


def narrow_pieces(depth: int):
    """Pieces of 1-3 intervals of total width at most one leaf cell.  Each
    interval starts inside a random leaf, or inside the leaf left of a
    coarse grid point, and straddles into the next leaf when its offset and
    width add up past the cell."""
    n = 3**depth
    leaf = st.one_of(
        st.integers(0, n - 2),
        st.integers(1, 3**9 - 1).map(lambda k: k * 3 ** (depth - 9) - 1),
    )
    offset = st.integers(0, 999).map(lambda k: Fraction(k, 1000))
    width = st.integers(1, 1000).map(lambda k: Fraction(k, 1000))
    intervals = st.lists(st.tuples(leaf, offset, width), min_size=1, max_size=3)
    return intervals.map(
        lambda ivs: Piece.of(*(((i + u) / n, (i + u + w / len(ivs)) / n) for i, u, w in ivs))
    )


@pytest.mark.parametrize("name", sorted(EXACT_TREES))
def test_exact_piece_value_is_the_oracle_label_product(name):
    tree = EXACT_TREES[name]
    n = tree.params.n

    @settings(max_examples=25, deadline=None)
    @given(piece=narrow_pieces(tree.params.depth))
    # one interval straddling the boundary of leaves 3 and 4
    @example(piece=Piece.of((Fraction(7, 2 * n), Fraction(9, 2 * n))))
    def check(piece):
        exact = sum(mass for _, _, mass in tree.leaf_masses(piece))
        assert exact == oracles.exact_piece_value(tree, piece)

    check()

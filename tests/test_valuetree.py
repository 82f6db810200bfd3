import dataclasses
import math
import random
from fractions import Fraction

import pytest

from fairslice.adversary import AdversarySession
from fairslice.errors import InvalidInput, PreconditionViolation
from fairslice.geometry import Piece
from fairslice.valuation import is_heavy
from fairslice.valuetree import (
    HEAVY,
    LIGHT,
    LOW_HEAVY_DENSITY_LIMIT,
    BalancedValueTree,
    TreeParams,
    build_tree,
    index_path,
    leaf_path,
    leaf_profiles,
    low_heavy_density_cap,
    verify_labeling,
)

from oracles import (
    critical_margin,
    divmod_digits_of_index,
    exact_labels,
    exact_verdicts,
    leaf_sum_value,
    rich_margin,
)

P11 = TreeParams.from_depth(11)
# depth 7: the smallest size with a non-critical root (beta < 2) and
# visible heavy/light structure; depths 4-5 degenerate to uniform trees
SMALL = TreeParams.from_depth(7, permissive=True)


class TestParams:
    def test_strict_constants(self):
        assert P11.n == 3**11
        assert abs(P11.beta - 2 ** (6 / math.log(3**11))) < 1e-15
        assert 1 / 3 <= P11.beta / 3 < 0.5
        assert abs(P11.heavy_label + 2 * P11.light_label - 1) < 1e-15

    def test_small_depth_needs_permissive(self):
        with pytest.raises(ValueError, match="permissive"):
            TreeParams.from_depth(7)
        assert TreeParams.from_depth(7, permissive=True).depth == 7

    def test_tiny_permissive_trees_are_uniform(self):
        # below depth 6, beta exceeds 2 and the root itself is critical,
        # which collapses the whole tree to the uniform valuation
        tree = BalancedValueTree(TreeParams.from_depth(5, permissive=True), seed=3)
        assert tree.node(b"").critical
        assert abs(tree.eval(0, Fraction(1, 3)) - 1 / 3) < 1e-12

    def test_depth_below_label_validity_always_rejected(self):
        with pytest.raises(ValueError):
            TreeParams.from_depth(3, permissive=True)

    @pytest.mark.parametrize("depth", [2, 7, 11.0, "12", None, True])
    def test_constructor_checks_the_depth(self, depth):
        with pytest.raises(InvalidInput):
            TreeParams(depth)

    def test_depth_fixes_every_constant(self):
        assert [f.name for f in dataclasses.fields(TreeParams)] == ["depth", "permissive"]
        assert TreeParams(11) == P11 and TreeParams(11).beta == P11.beta
        assert TreeParams(7, permissive=True).n == 3**7


class TestPaths:
    def test_leaf_digits_boundaries(self):
        assert leaf_path(Fraction(0), 2) == b"\x00\x00"
        assert leaf_path(Fraction(1), 2) == b"\x02\x02"
        assert leaf_path(Fraction(1, 3), 2) == b"\x01\x00"
        assert leaf_path(Fraction(8, 9), 2) == b"\x02\x02"

    def test_from_index(self):
        assert index_path(5, 3) == b"\x00\x01\x02"
        assert index_path(0, 0) == b""

    @pytest.mark.parametrize(
        "index, depth", [(-1, 2), (9, 2), (-1, 0), (1, 0), (3**7, 7), (-(3**60), 60), (3**60, 60)]
    )
    def test_index_out_of_range_is_invalid_input(self, index, depth):
        with pytest.raises(InvalidInput, match="outside"):
            index_path(index, depth)

    @pytest.mark.parametrize("depth", [4, 5, 6, 7, 11, 60, 200])
    def test_digits_of_index_matches_divmod(self, depth):
        n = 3**depth
        rng = random.Random(depth)
        for index in [0, n - 1] + [rng.randrange(n) for _ in range(200)]:
            assert index_path(index, depth) == bytes(divmod_digits_of_index(index, depth))


def _node_density(tree, path):
    visit = tree.node(path)
    return tree.params.log_density(visit.h, visit.q)


#: every public way to read a node by path, called with ``path`` on a
#: hashed depth-11 tree; the node-record reads are named for what they look up
PATH_ENTRIES = {
    "node_profile": lambda tree, path: tree.node(path),
    "node_value": lambda tree, path: tree.node(path).value,
    "node_density": _node_density,
    "is_critical": lambda tree, path: tree.node(path).critical,
    "labels_for": lambda tree, path: tree.node(path).label_kinds,
    "classify_leaf": lambda tree, path: tree.classify_leaf(path),
    "verify_labeling": lambda tree, path: verify_labeling(tree, paths=[path], sample_count=0),
    "complete_labeling": lambda tree, path: AdversarySession(tree.params).complete_labeling(
        seed=0, light_leaves=[path]
    ),
}

BAD_PATHS = {
    "digit-3": b"\x03",
    "digit-7-at-leaf-depth": b"\x00" * 10 + b"\x07",
    "one-past-leaf-depth": b"\x00" * 12,
    "tuple": (0, 1),
    "list": [0, 1],
    "str": "01",
    "bytearray": bytearray(b"\x00\x01"),
}


@pytest.mark.parametrize("path", BAD_PATHS.values(), ids=BAD_PATHS.keys())
@pytest.mark.parametrize("entry", PATH_ENTRIES.values(), ids=PATH_ENTRIES.keys())
def test_bad_node_paths_are_invalid_input(entry, path):
    """A node path is bytes of at most depth digits, each 0, 1 or 2; every
    public entry refuses anything else before it walks."""
    with pytest.raises(InvalidInput, match="node path"):
        entry(build_tree(P11, seed=1), path)


class TestStructure:
    def test_root_profile(self):
        tree = build_tree(P11, seed=1)
        root = tree.node(b"")
        assert (root.depth, root.h, root.q, root.z) == (0, 0, 0, 0)
        assert not root.critical and not root.is_leaf
        assert root.value == 1.0
        assert math.exp(P11.log_density(root.h, root.q)) == 1.0

    def test_labels_sum_to_one_everywhere(self):
        tree = BalancedValueTree(SMALL, seed=3)
        for visit in tree.iter_nodes():
            if not visit.is_leaf:
                total = sum(SMALL.label_values[k] for k in visit.label_kinds)
                assert abs(total - 1.0) < 1e-12

    def test_density_formula_spot_values(self):
        # one heavy edge multiplies density by beta, one light by 3/2-beta/2
        assert abs(math.exp(P11.log_density(1, 0)) - P11.beta) < 1e-12
        assert abs(math.exp(P11.log_density(0, 1)) - 0.7946094645928202) < 1e-9

    def test_closed_form_matches_direct_product(self):
        tree = BalancedValueTree(SMALL, seed=7)
        for visit in tree.iter_nodes():
            direct = visit.value * 3.0**visit.depth
            closed = math.exp(SMALL.log_density(visit.h, visit.q))
            assert abs(direct - closed) <= 1e-9 * max(abs(closed), 1e-30)

    def test_children_sum_to_parent(self):
        tree = BalancedValueTree(SMALL, seed=11)
        for visit in tree.iter_nodes():
            if not visit.is_leaf:
                children = sum(
                    visit.value * SMALL.label_values[k] for k in visit.label_kinds
                )
                assert abs(children - visit.value) <= 1e-12 * visit.value

    def test_digest_byte_sum_is_the_digest_integer_mod_3(self):
        # a hashed label reads its digest mod 3 as the sum of the digest's
        # bytes, which is the big-endian integer mod 3 since 256 is 1 mod 3
        rng = random.Random(256)
        for _ in range(10_000):
            digest = rng.randbytes(8)
            assert sum(digest) % 3 == int.from_bytes(digest, "big") % 3

    def test_deterministic_in_seed(self):
        a = BalancedValueTree(SMALL, seed=4)
        b = BalancedValueTree(SMALL, seed=4)
        c = BalancedValueTree(SMALL, seed=5)
        paths = [leaf_path(Fraction(i, 2187), 7) for i in range(0, 2187, 41)]
        assert [a.node(p).value for p in paths] == [b.node(p).value for p in paths]
        assert any(a.node(p).value != c.node(p).value for p in paths)


def _preorder_paths(depth, path=b""):
    """Every node path of a depth-``depth`` tree, children 0, 1, 2 in turn."""
    yield path
    if len(path) < depth:
        for c in range(3):
            yield from _preorder_paths(depth, path + bytes((c,)))


def _completed_tree():
    """A depth-7 completion of a session past its threshold (one heavy edge
    makes a node critical there), steered light along two leaves."""
    session = AdversarySession(SMALL)
    session.eval(Fraction(1, 5), Fraction(2, 3))
    session.cut(Fraction(1, 9), 0.3)
    session.cut(0, 0.8)
    return session.complete_labeling(seed=3, light_leaves=[index_path(100, 7), index_path(2000, 7)])


#: one tree of each label source; depth 5 has a critical root, so every
#: node there is labelled thirds
LOOKUP_TREES = {
    "depth-7": lambda: BalancedValueTree(SMALL, seed=3),
    "depth-5": lambda: BalancedValueTree(TreeParams.from_depth(5, permissive=True), seed=3),
    "completed-depth-7": _completed_tree,
}


class TestNodeLookup:
    @pytest.mark.parametrize("make", LOOKUP_TREES.values(), ids=LOOKUP_TREES.keys())
    def test_path_walk_agrees_with_preorder_walk(self, make):
        tree = make()
        paths = list(_preorder_paths(tree.params.depth))
        assert len(paths) == (3 ** (tree.params.depth + 1) - 1) // 2
        visits = list(tree.iter_nodes())
        assert len(visits) == len(paths)
        for path, visit in zip(paths, visits):
            assert tree.node(path) == visit, path


class TestCriticality:
    def test_root_not_critical(self):
        tree = build_tree(P11, seed=2)
        assert not tree.node(b"").critical

    def test_two_heavy_edges_trigger(self):
        assert not P11.critical_counts(1, 0)  # beta^2 ~ 1.990 < 2
        assert P11.critical_counts(2, 0)  # beta^3 ~ 2.808 > 2

    def test_critical_subtree_stays_critical(self):
        tree = build_tree(P11, seed=2)
        # follow heavy edges from the root until criticality, then descend
        path = b""
        for _ in range(3):
            path += bytes((_heavy_child(tree.node(path).label_kinds),))
        assert tree.node(path).critical
        deeper = tree.node(path + b"\x00\x01\x02")
        assert deeper.critical
        # criticality fired at h=2 (depth 2), so the third step and all
        # deeper edges are thirds
        assert deeper.z == 4

    def test_trees_of_one_size_share_one_root(self):
        spec = {"type": "balanced_value_tree", "k": 11}
        a = BalancedValueTree.from_json({**spec, "seed": 1})
        b = BalancedValueTree.from_json({**spec, "seed": 2})
        assert a.params is not b.params and a.params == b.params
        assert a.params.root is b.params.root
        assert a.params.root is TreeParams.from_depth(11).root
        a.eval(Fraction(1, 7), Fraction(5, 7))
        assert b.params.root.children
        twelve = build_tree(TreeParams.from_depth(12), seed=1)
        assert twelve.params.root is not a.params.root


class TestSignatures:
    def test_edge_order_reaches_one_signature(self):
        root = P11.root
        heavy_first = root.step(HEAVY).step(LIGHT).step(LIGHT)
        heavy_last = root.step(LIGHT).step(LIGHT).step(HEAVY)
        assert heavy_first is heavy_last
        assert (heavy_first.h, heavy_first.q, heavy_first.z) == (1, 2, 0)

    def test_reachable_signatures_are_distinct(self):
        tree = build_tree(P11, seed=5)
        visits = {(v.h, v.q, v.z, v.critical) for v in tree.iter_nodes()}
        reachable, stack = {}, [P11.root]
        while stack:
            sig = stack.pop()
            if id(sig) not in reachable:
                reachable[id(sig)] = sig
                stack.extend(sig.children.values())
        keys = [(s.h, s.q, s.z, s.critical) for s in reachable.values()]
        assert len(set(keys)) == len(keys)
        assert visits <= set(keys)

    @pytest.mark.parametrize("depth", [11, 60, 200])
    def test_every_signature_value_is_the_rounded_exact_product(self, depth):
        """Each signature reachable from the root, after a whole-tree
        enumeration at depth 11 or 200 random leaf walks deeper down, holds
        ``H^h * L^q * T^z`` exactly, and its correctly rounded float."""
        params = TreeParams(depth)
        tree = BalancedValueTree(params, seed=depth)
        if depth <= 11:
            for _ in tree.iter_nodes():
                pass
        else:
            rng = random.Random(depth)
            for _ in range(200):
                tree.node(index_path(rng.randrange(params.n), depth))
        labels = exact_labels(params)
        seen, stack = set(), [params.root]
        while stack:
            sig = stack.pop()
            if id(sig) not in seen:
                seen.add(id(sig))
                stack.extend(sig.children.values())
                exact = labels[HEAVY] ** sig.h * labels[LIGHT] ** sig.q * labels["T"] ** sig.z
                assert sig.exact_value == exact, (sig.h, sig.q, sig.z)
                assert sig.value == float(exact), (sig.h, sig.q, sig.z)
        assert len(seen) > depth

    @pytest.mark.parametrize("depth", [11, 60, 200])
    def test_child_tables_hold_the_walks_products_and_steps(self, depth):
        """Every child table on a signature reachable from the root, after
        path walks and descents on a hashed tree and a session, holds
        ``value * label`` for children 0 and 1 and :meth:`Signature.step`
        for all three."""
        params = TreeParams(depth)
        tree = BalancedValueTree(params, seed=depth + 2)
        session = AdversarySession(params)
        rng = random.Random(depth)
        for _ in range(100):
            tree.node(index_path(rng.randrange(params.n), depth))
            tree.cut(0, rng.random())
        for _ in range(10):
            session.answer_eval(0, Fraction(rng.randrange(3**9 + 1), 3**9))
            session.answer_cut(Fraction(rng.randrange(3**9 + 1), 3**9), rng.random())
        label_of = params.label_values
        tables, seen, stack = 0, set(), [params.root]
        while stack:
            sig = stack.pop()
            if id(sig) not in seen:
                seen.add(id(sig))
                stack.extend(sig.children.values())
                for kinds, table in sig.tables.items():
                    tables += 1
                    assert [table.mass0, table.mass1] == [sig.value * label_of[k] for k in kinds[:2]]
                    assert all(child is sig.step(k) for child, k in zip(table[2:], kinds))
        assert tables > depth

    @pytest.mark.parametrize("depth", [11, 60])
    def test_leaf_value_is_the_rounded_exact_label_product(self, depth):
        """``node(path).value`` at a random leaf is the float of the exact
        labels multiplied along its path, read one node at a time."""
        params = TreeParams(depth)
        tree = BalancedValueTree(params, seed=depth + 1)
        labels = exact_labels(params)
        rng = random.Random(depth)
        for _ in range(150):
            path = index_path(rng.randrange(params.n), depth)
            exact = Fraction(1)
            for level, digit in enumerate(path):
                exact *= labels[tree.node(path[:level]).label_kinds[digit]]
            leaf = tree.node(path)
            assert exact == labels[HEAVY] ** leaf.h * labels[LIGHT] ** leaf.q * labels["T"] ** leaf.z
            assert leaf.value == float(exact), path


@pytest.mark.parametrize(
    "depth", [*range(4, 61), 100, 200], ids=lambda depth: f"depth-{depth}"
)
def test_per_size_verdicts_match_the_log_formula(depth):
    """Every (h, q) a tree of this size can reach: the exact criticality
    and richness verdicts agree with the sign of the oracle's log-space
    margins, and up to depth 60 with the oracle's ``Fraction`` densities."""
    params = TreeParams(depth, permissive=depth < 11)
    for h in range(depth + 1):
        for q in range(depth + 1 - h):
            critical, rich = params.critical_counts(h, q), params.rich_counts(h, q)
            assert critical == (critical_margin(params, h, q) > 0), (h, q)
            assert rich == (rich_margin(params, h, q) > 0), (h, q)
            if depth <= 60:
                assert (critical, rich) == exact_verdicts(params, h, q), (h, q)


def _heavy_child(kinds):
    """The digit of a node's heavy edge, or 0 below a critical node."""
    return kinds.index("H") if "H" in kinds else 0


def _descend_by(tree, pick):
    """The leaf reached from the root by stepping to ``pick(label_kinds)``."""
    path = b""
    for _ in range(tree.params.depth):
        path += bytes((pick(tree.node(path).label_kinds),))
    return path


class TestLeafClassification:
    def test_all_light_leaf_is_neither(self):
        tree = build_tree(P11, seed=6)
        path = _descend_by(tree, lambda kinds: kinds.index("L"))
        assert tree.classify_leaf(path) == "neither"
        leaf = tree.node(path)
        assert leaf.h == 0 and leaf.q == 11

    def test_heavy_path_leaf_is_critical(self):
        tree = build_tree(P11, seed=6)
        path = _descend_by(tree, _heavy_child)
        assert tree.classify_leaf(path) == "critical"
        # criticality triggered after two heavies; everything below is thirds
        assert tree.node(path).h == 2

    def test_classify_requires_leaf_depth(self):
        tree = build_tree(P11, seed=6)
        with pytest.raises(ValueError):
            tree.classify_leaf(b"\x00\x01")


class TestProfiles:
    def test_rich_or_critical_needs_heavy_run(self):
        floor = math.log(P11.n) / 6 - 1
        assert abs(floor - 1.0141) < 1e-3
        for profile in leaf_profiles(P11):
            assert profile.h + profile.q + profile.z == 11
            if profile.classification in ("rich", "critical"):
                assert profile.h >= 2 > floor

    def test_profiles_include_rich_and_critical(self):
        kinds = {p.classification for p in leaf_profiles(P11)}
        assert kinds == {"rich", "critical", "neither"}


class TestDensityCap:
    def test_monotone_in_depth(self):
        values = [low_heavy_density_cap(k) for k in range(11, 201)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_limit_value(self):
        assert abs(LOW_HEAVY_DENSITY_LIMIT - 0.426) < 1e-3
        assert abs(low_heavy_density_cap(20_000) - LOW_HEAVY_DENSITY_LIMIT) < 1e-3

    def test_always_below_half(self):
        assert LOW_HEAVY_DENSITY_LIMIT < 0.5


class TestQueries:
    def test_eval_full_range(self):
        tree = BalancedValueTree(SMALL, seed=9)
        assert tree.eval(0, 1) == 1.0

    def test_eval_matches_leaf_sum_oracle(self):
        tree = BalancedValueTree(SMALL, seed=9)
        rng = random.Random(1)
        for _ in range(100):
            a, b = sorted(Fraction(rng.randrange(0, 3**6 + 1), 3**6) for _ in range(2))
            assert abs(tree.eval(a, b) - leaf_sum_value(tree, a, b)) < 1e-12

    def test_leaf_value_is_label_product(self):
        tree = BalancedValueTree(SMALL, seed=9)
        for index in (0, 7, 100, 242, 2186):
            got = tree.eval(Fraction(index, 3**7), Fraction(index + 1, 3**7))
            assert abs(got - tree.node(index_path(index, 7)).value) < 1e-12

    def test_cut_inverts_eval(self):
        tree = BalancedValueTree(SMALL, seed=9)
        rng = random.Random(2)
        for _ in range(100):
            x = Fraction(rng.randrange(0, 1001), 1000)
            y = tree.cut(0, tree.eval(0, x))
            assert abs(y - float(x)) < 1e-9

    def test_cut_edge_cases(self):
        tree = BalancedValueTree(SMALL, seed=9)
        assert tree.cut(Fraction(1, 3), 0) == pytest.approx(1 / 3, abs=0)
        assert abs(tree.cut(0, 1.0) - 1.0) < 1e-9
        assert tree.cut(Fraction(2, 3), 0.9) is None

    def test_usable_behind_a_referee(self):
        from fairslice.protocols import check_proportional, even_paz
        from fairslice.referee import QueryReferee

        trees = [BalancedValueTree(SMALL, seed=s) for s in range(3)]
        ref = QueryReferee(trees)
        allocation = even_paz(ref, "chore")
        report = check_proportional(allocation, trees, "chore", tol=1e-9)
        assert report.ok


class TestMaxLeafDensity:
    def test_within_two_for_strict_trees(self):
        tree = build_tree(P11, seed=14)
        assert tree.max_leaf_density() <= 2 + 1e-9

    def test_positive_leaves(self):
        tree = BalancedValueTree(SMALL, seed=14)
        assert min(
            math.exp(SMALL.log_density(v.h, v.q))
            for v in tree.iter_nodes()
            if v.is_leaf
        ) > 0

    def test_enumeration_capped(self):
        big = TreeParams.from_depth(13)
        with pytest.raises(ValueError, match="enumeration"):
            BalancedValueTree(big, seed=0).max_leaf_density()


class TestCandidateLeaf:
    def _dense_leaf(self, tree):
        best = None
        for index in range(tree.params.n):
            leaf = tree.node(index_path(index, tree.params.depth))
            density = math.exp(tree.params.log_density(leaf.h, leaf.q))
            if best is None or density > best[1]:
                best = (index, density)
        return best

    def test_exact_leaf_piece(self):
        tree = build_tree(P11, seed=21)
        # find a rich-or-critical leaf by probing heavy paths
        path = _descend_by(tree, _heavy_child)
        got = tree.extract_candidate_leaf(_leaf_cell(path, P11.n))
        assert got == path
        assert tree.classify_leaf(got) in ("rich", "critical")

    def test_straddling_piece_picks_denser_leaf(self):
        tree = BalancedValueTree(SMALL, seed=4)
        index, density = self._dense_leaf(tree)
        assert density >= 0.5
        left = Fraction(index, tree.params.n)
        width = Fraction(1, tree.params.n)
        # straddle this leaf and its neighbour
        start = left - width / 2 if left > 0 else left
        piece = Piece.of((start, start + width))
        if is_heavy(piece.width, tree.value_of_piece(piece), tree.params.n):
            got = tree.extract_candidate_leaf(piece)
            leaf = tree.node(got)
            assert math.exp(tree.params.log_density(leaf.h, leaf.q)) >= 0.5

    def test_rejects_non_heavy_piece(self):
        tree = build_tree(P11, seed=21)
        wide = Piece.of((0, "1/2"))
        with pytest.raises(PreconditionViolation):
            tree.extract_candidate_leaf(wide)
        # an all-light leaf has density far below 1/2: value precondition fails
        path = _descend_by(tree, lambda kinds: kinds.index("L"))
        with pytest.raises(PreconditionViolation):
            tree.extract_candidate_leaf(_leaf_cell(path, P11.n))

    def test_rejects_a_value_just_below_the_bound(self, monkeypatch):
        tree = build_tree(P11, seed=21)
        cell = _leaf_cell(_descend_by(tree, _heavy_child), P11.n)
        bound = float(Fraction(1, 2 * P11.n))
        monkeypatch.setattr(tree, "leaf_masses", lambda piece: [(b"", None, (1 - 1e-10) * bound)])
        with pytest.raises(PreconditionViolation, match="not heavy"):
            tree.extract_candidate_leaf(cell)
        with pytest.raises(PreconditionViolation, match="not heavy"):
            tree.extract_candidate_leaf(Piece())


def _leaf_cell(path, n):
    """The cell [index/n, (index+1)/n] of the leaf at node path ``path``."""
    index = 0
    for digit in path:
        index = 3 * index + digit
    return Piece.of((Fraction(index, n), Fraction(index + 1, n)))


class TestJsonAndVerification:
    def test_json_roundtrip(self):
        tree = build_tree(P11, seed=12345)
        obj = tree.to_json()
        assert obj == {
            "type": "balanced_value_tree",
            "k": 11,
            "seed": 12345,
            "permissive": False,
        }
        again = BalancedValueTree.from_json(obj)
        assert again.params == tree.params and again.seed == tree.seed

    @pytest.mark.parametrize(
        "fields",
        [
            {"k": 11.9, "seed": 3},
            {"k": 11, "seed": 2.5},
            {"k": "11", "seed": 3},
            {"k": True, "seed": 3},
            {"k": 11, "seed": False},
            {"k": 11},
            {"seed": 3},
            {"k": 7, "seed": 3, "permissive": "false"},
            {"k": 7, "seed": 3, "permissive": 1},
            {"k": 7, "seed": 3, "permissive": None},
        ],
        ids=repr,
    )
    def test_from_json_refuses_coerced_fields(self, fields):
        with pytest.raises(InvalidInput, match="must be a JSON"):
            BalancedValueTree.from_json({"type": "balanced_value_tree", **fields})

    def test_from_json_reads_permissive_flag(self):
        spec = {"type": "balanced_value_tree", "k": 7, "seed": 3}
        assert BalancedValueTree.from_json({**spec, "permissive": True}).params == SMALL
        with pytest.raises(InvalidInput, match="permissive"):
            BalancedValueTree.from_json({**spec, "permissive": False})

    def test_verify_labeling_passes(self):
        tree = BalancedValueTree(SMALL, seed=8)
        assert verify_labeling(tree, sample_count=100) > 0

    def test_verify_labeling_catches_violation(self):
        tree = BalancedValueTree(SMALL, seed=8)
        tree._labels = lambda path, sig: ("H", "H", "L")
        with pytest.raises(ValueError):
            verify_labeling(tree, sample_count=5)

    @pytest.mark.parametrize(
        "params,kinds",
        [
            (SMALL, ("H", "L", "X")),  # an ordinary root
            (SMALL, ("X", "X", "X")),
            (TreeParams.from_depth(5, permissive=True), ("T", "T", "X")),  # a critical root
        ],
    )
    def test_verify_labeling_refuses_unknown_kinds(self, params, kinds):
        tree = BalancedValueTree(params, seed=8)
        tree._labels = lambda path, sig: kinds
        with pytest.raises(InvalidInput, match="node"):
            verify_labeling(tree, sample_count=5)

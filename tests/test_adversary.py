import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairslice import adversary
from fairslice.adversary import (
    STRATEGIES,
    AdversarySession,
    CannotRefute,
    CompletedTree,
    Refutation,
    claim_leaves,
    replay_transcript,
    run_heavy_piece_game,
)
from fairslice.errors import InvalidInput, PreconditionViolation, ProtocolViolation, ReplayMismatch
from fairslice.geometry import Piece
from fairslice.protocols import check_proportional, even_paz
from fairslice.referee import QueryReferee, replay_log
from fairslice.valuetree import (
    _HEAVY_AT,
    HEAVY,
    LIGHT,
    THIRD,
    TreeParams,
    index_path,
    leaf_path,
    verify_labeling,
)

import oracles

P60 = TreeParams.from_depth(60)
P11 = TreeParams.from_depth(11)

GRID = 3**9  # query coordinates land on this lattice in the random drivers

#: every label-kind triple a node can carry
KINDS = ((HEAVY, LIGHT, LIGHT), (LIGHT, HEAVY, LIGHT), (LIGHT, LIGHT, HEAVY), (THIRD, THIRD, THIRD))


def random_queries(session, count, rng):
    for _ in range(count):
        if rng.random() < 0.5:
            a, b = sorted(Fraction(rng.randrange(0, GRID + 1), GRID) for _ in range(2))
            session.answer_eval(a, b)
        else:
            x = Fraction(rng.randrange(0, GRID + 1), GRID)
            session.answer_cut(x, rng.random() * 1.2)


class TestThreshold:
    def test_values(self):
        assert P60.threshold == 4
        assert P11.threshold == 0
        # (ln 3^60)/6 ~ 10.986 -> (10.986 - 1)/2 -> floor 4
        assert math.floor((math.log(3**60) / 6 - 1) / 2) == 4


class TestAnswers:
    def test_full_interval_is_normalized(self):
        session = AdversarySession(P60)
        assert abs(session.answer_eval(0, 1) - 1.0) < 1e-9
        assert session.m == 1

    def test_endpoint_paths_are_walked_once(self):
        """t = 0 and t = 1 are remembered after their first ask, which
        reveals their whole leaf paths, like any other position; every node
        of those paths is revealed once, and the answers and records are
        those of a session that forgets every walked position before each
        query."""
        session, forgetful = AdversarySession(P60), AdversarySession(P60)
        revealed = []
        reveal = session._reveal
        session._reveal = lambda chain, *args: revealed.extend(chain) or reveal(chain, *args)
        for j in range(1, 11):
            forgetful._masses.clear()
            assert session.answer_cut(0, j / 11) == forgetful.answer_cut(0, j / 11)
            forgetful._masses.clear()
            y = Fraction(j, 3**j)
            assert session.answer_eval(y, 1) == forgetful.answer_eval(y, 1)
        for leaf in (index_path(0, 60), index_path(P60.n - 1, 60)):
            assert [revealed.count(leaf[:i]) for i in range(60)] == [1] * 60
        assert len(revealed) == len(set(revealed)) == len(session.revealed)
        assert session.log == forgetful.log
        assert session.heavy_trace == forgetful.heavy_trace

    def test_repeat_query_same_answer_separate_billing(self):
        session = AdversarySession(P60)
        a = session.answer_eval(Fraction(1, 9), Fraction(5, 9))
        b = session.answer_eval(Fraction(1, 9), Fraction(5, 9))
        assert a == b
        assert session.m == 2

    def test_cut_zero_mass_returns_start(self):
        session = AdversarySession(P60)
        x = Fraction(7, 81)
        assert session.answer_cut(x, 0) == float(x)

    def test_cut_full_mass(self):
        session = AdversarySession(P60)
        assert abs(session.answer_cut(0, 1.0) - 1.0) < 1e-9

    def test_cut_beyond_mass_is_no_answer(self):
        session = AdversarySession(P60)
        assert session.answer_cut(Fraction(2, 3), 1.0) is None
        assert session.m == 1  # still billed

    def test_eval_cut_consistency(self):
        session = AdversarySession(P60)
        mass = session.answer_eval(0, Fraction(1, 3))
        y = session.answer_cut(0, mass)
        assert abs(y - 1 / 3) < 1e-9

    def test_repeated_endpoint_reveals_nothing_new(self):
        rng = random.Random(31)
        session = AdversarySession(P60)
        random_queries(session, 6, rng)
        x, y = Fraction(7, 3**9), Fraction(2020, 3**9)
        first = session.answer_eval(x, y)
        revealed = len(session.revealed)
        again = session.answer_eval(x, y)
        assert repr(again) == repr(first)
        assert session.log[-1].reveals == ()
        assert len(session.revealed) == revealed


class TestInvariants:
    def test_heavy_budget_connectivity_all_or_none(self):
        rng = random.Random(991)
        for trial in range(15):
            session = AdversarySession(P60)
            for _ in range(25):
                random_queries(session, 1, rng)
                assert session.max_revealed_heavy() <= 2 * session.m
                assert session.revealed_is_connected()
                # all-or-none is structural: reveals store complete triples
                assert all(len(kinds) == 3 for kinds in session.revealed.values())
            assert session.revealed_critical_nodes() == []

    def test_monotone_heavy_count(self):
        rng = random.Random(5)
        session = AdversarySession(P60)
        last = 0
        for _ in range(30):
            random_queries(session, 1, rng)
            now = session.max_revealed_heavy()
            assert now >= last
            last = now

    def test_fresh_session_has_nothing(self):
        session = AdversarySession(P60)
        assert session.max_revealed_heavy() == 0
        assert session.revealed == {}

    def test_ulp_boundary_cut_masses(self):
        # regression: cut targets within an ulp of a measured prefix mass
        # must answer near the exact point and never route the descent
        # through a heavy edge (reveal rule and child choice must share one
        # float comparison)
        rng = random.Random(8)
        for trial in range(25):
            session = AdversarySession(P60)
            x = Fraction(rng.randrange(1, 3**10), 3**10)
            mass = session.answer_eval(0, x)
            for eps in (0.0, 5e-17, -5e-17, 1e-15):
                r = mass + eps
                if r < 0:
                    continue
                y = session.answer_cut(0, r)
                if y is not None:
                    assert abs(y - float(x)) < 1e-9, (trial, eps)
                assert session.max_revealed_heavy() <= 2 * session.m
            for seed in range(2):
                replay_transcript(session.log, session.complete_labeling(seed=seed))

    def test_deep_tree_sessions(self):
        # exact rational coordinates keep sessions workable at depth 200
        params = TreeParams.from_depth(200)
        session = AdversarySession(params)
        assert params.threshold == 17
        rng = random.Random(12)
        grid = 3**12
        for _ in range(15):
            if rng.random() < 0.5:
                a, b = sorted(Fraction(rng.randrange(0, grid + 1), grid) for _ in range(2))
                session.answer_eval(a, b)
            else:
                session.answer_cut(Fraction(rng.randrange(0, grid + 1), grid), rng.random())
            assert session.max_revealed_heavy() <= 2 * session.m
            assert session.revealed_is_connected()
        assert session.revealed_critical_nodes() == []
        completion = session.complete_labeling(seed=1)
        assert replay_transcript(session.log, completion)
        verify_labeling(completion, sample_count=10, sample_seed=1)

    def test_eval_reveals_keep_on_path_edges_light(self):
        session = AdversarySession(P60)
        x = Fraction(11, 3**5)
        session.answer_eval(x, x)
        prefix = b""
        for digit in leaf_path(x, 60):
            kinds = session.revealed[prefix]
            assert kinds[digit] == LIGHT
            assert sorted(kinds) == [HEAVY, LIGHT, LIGHT]
            prefix += bytes((digit,))

    def test_grid_endpoints_reveal_their_whole_leaf_paths(self):
        """1/3 and 2/3 start nodes at depth 1, where a tree's prefix walk
        stops; a session still reveals every node on both leaf paths."""
        session = AdversarySession(P60)
        x, y = Fraction(1, 3), Fraction(2, 3)
        session.eval(x, y)
        prefixes = {leaf[:i] for leaf in (leaf_path(x, 60), leaf_path(y, 60)) for i in range(60)}
        assert len(prefixes) == 1 + 2 * 59  # the two paths share only the root
        assert set(session.revealed) == prefixes
        assert [path for path, _ in session.take_reveals()] == list(session.revealed)

    def test_walks_go_the_full_depth_where_the_float_is_settled(self):
        """A tree's prefix walk and descent stop about 35 levels down at
        3^60, once the rest cannot change the float; a session's reveals
        are its transcript, so it still reveals every new eval endpoint's
        whole leaf path, and a fresh session's first cut reveals ``depth``
        nodes down to the leaf cell of its answer."""
        depth, n = P60.depth, P60.n
        session = AdversarySession(P60)
        y = session.answer_cut(Fraction(1, 7), 0.3)
        deepest, _ = session.log[-1].reveals[-1]
        assert len(deepest) == depth - 1
        assert all(deepest[:i] in session.revealed for i in range(depth))
        lo = 3 * int(deepest.translate(bytes.maketrans(b"\x00\x01\x02", b"012")), 3)
        assert lo / n <= y <= (lo + 3) / n
        endpoints = [(Fraction(1, 5), Fraction(2, 7)), (Fraction(3, 10), Fraction(10**9 + 7, 10**9 + 9))]
        for a, b in endpoints:
            session.answer_eval(a, b)
            for t in (a, b):
                leaf = leaf_path(t, depth)
                assert all(leaf[:i] in session.revealed for i in range(depth))


class TestOracles:
    """The session keeps its heavy-edge maximum and critical nodes as it
    reveals; full traversals of the revealed labels must agree."""

    @staticmethod
    def assert_heavy_matches(session):
        expected = oracles.max_revealed_heavy(session.revealed)
        assert session.max_revealed_heavy() == expected
        assert session.heavy_trace[-1] == expected
        assert len(session.heavy_trace) == session.m
        assert session.revealed_is_connected() == oracles.revealed_is_connected(session.revealed)

    def test_seeded_sessions(self):
        rng = random.Random(4242)
        for _ in range(8):
            session = AdversarySession(P60)
            for _ in range(30):
                random_queries(session, 1, rng)
                self.assert_heavy_matches(session)

    def test_ulp_boundary_cuts(self):
        # the drive of TestInvariants.test_ulp_boundary_cut_masses
        rng = random.Random(8)
        for _ in range(25):
            session = AdversarySession(P60)
            x = Fraction(rng.randrange(1, 3**10), 3**10)
            mass = session.answer_eval(0, x)
            self.assert_heavy_matches(session)
            for eps in (0.0, 5e-17, -5e-17, 1e-15):
                if mass + eps >= 0:
                    session.answer_cut(0, mass + eps)
                    self.assert_heavy_matches(session)

    def test_depth_200_session(self):
        session = AdversarySession(TreeParams.from_depth(200))
        rng = random.Random(12)
        grid = 3**12
        for _ in range(15):
            if rng.random() < 0.5:
                a, b = sorted(Fraction(rng.randrange(0, grid + 1), grid) for _ in range(2))
                session.answer_eval(a, b)
            else:
                session.answer_cut(Fraction(rng.randrange(0, grid + 1), grid), rng.random())
            self.assert_heavy_matches(session)

    def test_critical_nodes_past_threshold(self):
        params = TreeParams.from_depth(11)
        rng = random.Random(77)
        session = AdversarySession(params)
        for _ in range(40):
            random_queries(session, 1, rng)
            self.assert_heavy_matches(session)
        expected = oracles.revealed_critical_nodes(session.revealed, params)
        assert expected, "the drive should reach critical nodes"
        self.assert_critical_matches(session, expected)

    def test_critical_nodes_below_a_critical_node(self):
        # at depth 6 a heavy child of the root is critical and its light
        # children are not: they inherit the flag but fail the test at
        # their own counts, so only the node's own test lists them right
        params = TreeParams.from_depth(6, permissive=True)
        rng = random.Random(0)
        session = AdversarySession(params)
        for _ in range(12):
            random_queries(session, 1, rng)
            self.assert_heavy_matches(session)
        expected = oracles.revealed_critical_nodes(session.revealed, params)
        below = [p for p in session.revealed if p and p[:-1] in expected and p not in expected]
        assert below, "the drive should reveal a non-critical child of a critical node"
        self.assert_critical_matches(session, expected)

    @staticmethod
    def assert_critical_matches(session, expected):
        found = session.revealed_critical_nodes()
        assert set(found) == expected
        # in reveal order: session.revealed keeps insertion order
        assert found == [p for p in session.revealed if p in expected]

    def test_connectivity_check_sees_an_orphan(self):
        session = AdversarySession(P60)
        session.answer_eval(0, Fraction(1, 3))
        assert session.revealed_is_connected()
        # no walk reveals a node before its parent; force one past the walks
        three_light = P60.root.step(LIGHT).step(LIGHT).step(LIGHT)  # h = 0, q = 3
        session._reveal({bytes((2, 2, 2)): (HEAVY, LIGHT, LIGHT)}, three_light.h + 1)
        assert not oracles.revealed_is_connected(session.revealed)
        assert not session.revealed_is_connected()

    @pytest.mark.parametrize("kinds", [(HEAVY, LIGHT, LIGHT), (THIRD, THIRD, THIRD)])
    def test_a_forced_orphan_deeper_than_the_maximum_counts_its_own_edges(self, kinds):
        session = AdversarySession(P60)
        session.answer_eval(0, Fraction(1, 3))
        # the root and its child 1 are revealed with the heavy edge on child
        # 1, so every edge of the all-1 path is heavy once it is revealed
        depth = session.max_revealed_heavy() + 3
        path = bytes((1,) * depth)
        sigs = [P60.root]
        for _ in path:
            sigs.append(sigs[-1].step(HEAVY))
        session._reveal({path: kinds}, sigs[-1].h + (HEAVY in kinds))
        session.answer_eval(0, Fraction(1, 3))  # reveals nothing; records the maximum
        assert session.heavy_trace[-1] == depth + (HEAVY in kinds)
        # reveal the orphan's missing ancestors as its signature counts them
        for i in range(depth):
            if path[:i] not in session.revealed:
                session._reveal({path[:i]: (LIGHT, HEAVY, LIGHT)}, sigs[i].h + 1)
        session.answer_eval(0, Fraction(1, 3))
        assert session.heavy_trace[-1] == oracles.max_revealed_heavy(session.revealed)
        assert session.heavy_trace[-1] == depth + (HEAVY in kinds)
        # the traversal reaches the orphan now, but it came before its parent
        assert oracles.revealed_is_connected(session.revealed)
        assert not session.revealed_is_connected()


#: positions a property's queries repeat often: the ends, grid points and
#: a point inside a depth-9 cell
REPEATED = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2), Fraction(7, 3**9))


def session_queries(depth):
    """Lists of ``("eval", x, y)`` and ``("cut", x, r)`` queries, with
    repeated endpoints, t = 0 and 1, r = 0 and over-full cuts."""
    position = st.one_of(
        st.sampled_from(REPEATED),
        st.integers(0, 3**9).map(lambda i: Fraction(i, 3**9)),
        st.integers(0, 3**depth).map(lambda i: Fraction(i, 3**depth)),
    )
    mass = st.one_of(st.sampled_from((0, 1, 1.5)), st.floats(0, 1.5))
    query = st.one_of(
        st.tuples(st.just("eval"), position, position),
        st.tuples(st.just("cut"), position, mass),
    )
    return st.lists(query, min_size=1, max_size=12)


@pytest.mark.parametrize("depth", [11, 60])
def test_known_and_new_nodes_keep_the_books_the_oracles_keep(depth):
    """A node already revealed is looked up and a new one revealed; after
    every query the heavy maximum, the critical nodes, the connectivity
    verdict and the transcript must be what full traversals give."""
    params = TreeParams.from_depth(depth)

    @settings(max_examples=40, deadline=None)
    @given(queries=session_queries(depth))
    def check(queries):
        session = AdversarySession(params)
        for kind, x, arg in queries:
            if kind == "eval":
                session.answer_eval(*sorted((x, arg)))
            else:
                session.answer_cut(x, arg)
            revealed = session.revealed
            # _reveal counts a chain's heavy edges from its deepest node,
            # which holds as every revealed node carries one heavy edge
            assert all(kinds in _HEAVY_AT for kinds in revealed.values())
            assert session.heavy_trace[-1] == oracles.max_revealed_heavy(revealed)
            critical = oracles.revealed_critical_nodes(revealed, params)
            TestOracles.assert_critical_matches(session, critical)
            assert session.revealed_is_connected() == oracles.revealed_is_connected(revealed)
            assert session.transcript_lines() == oracles.transcript_lines_as_first_written(session)

    check()


def chain_queries(depth):
    """Lists of eval and cut queries on grid positions (the 3^9 lattice
    and the leaf grid) and off it, with r = 0, r = 1 and r > 1 among the
    cut masses."""
    position = st.one_of(
        st.sampled_from(REPEATED),
        st.integers(0, 3**9).map(lambda i: Fraction(i, 3**9)),
        st.integers(0, 3**depth).map(lambda i: Fraction(i, 3**depth)),
        st.fractions(0, 1, max_denominator=10**6),
    )
    mass = st.one_of(st.sampled_from((0, 1, 1.5)), st.floats(0, 1.5))
    query = st.one_of(
        st.tuples(st.just("eval"), position, position),
        st.tuples(st.just("cut"), position, mass),
    )
    return st.lists(query, min_size=1, max_size=12)


@pytest.mark.parametrize(
    "params",
    [P60, P11, TreeParams.from_depth(6, permissive=True), TreeParams.from_depth(7, permissive=True)],
    ids=["60", "11", "permissive-6", "permissive-7"],
)
def test_chain_reveals_match_the_per_node_session(params):
    """A session reveals each walk's new nodes as one chain; the session
    that reveals level by level must give the same answers, the same
    reveals in the same order, transcripts, heavy trace, critical nodes and
    connectivity verdict after every query.  At permissive depths a
    descent can cross a heavy edge, so its chain keeps each node's own
    books."""

    @settings(max_examples=40, deadline=None)
    @given(queries=chain_queries(params.depth))
    def check(queries):
        session, reference = AdversarySession(params), oracles.PerNodeSession(params)
        for kind, x, arg in queries:
            if kind == "eval":
                x, arg = sorted((x, arg))
                answers = session.answer_eval(x, arg), reference.answer_eval(x, arg)
            else:
                answers = session.answer_cut(x, arg), reference.answer_cut(x, arg)
            assert repr(answers[0]) == repr(answers[1])
            assert list(session.revealed.items()) == list(reference.revealed.items())
            assert session.transcript_lines() == reference.transcript_lines()
            assert session.heavy_trace == reference.heavy_trace
            assert session.revealed_critical_nodes() == reference.revealed_critical_nodes()
            assert session.revealed_is_connected() == reference.revealed_is_connected()

    check()


GRID_PARAMS = [
    P11,
    P60,
    TreeParams.from_depth(200),
    TreeParams.from_depth(4, permissive=True),
    TreeParams.from_depth(7, permissive=True),
]
GRID_IDS = ["11", "60", "200", "permissive-4", "permissive-7"]


@st.composite
def coprime_to_three(draw, j):
    """A numerator in [1, 3**j) not divisible by 3, or 1 at j = 0."""
    if j == 0:
        return 1
    return 3 * draw(st.integers(0, 3 ** (j - 1) - 1)) + draw(st.sampled_from((1, 2)))


def endpoint_chain(leaf: bytes) -> list:
    """The reveals of a fresh session's first ask of a position whose leaf
    path is ``leaf``: every node above the leaf, the on-path edge light."""
    return [(leaf[:i], adversary._ENDPOINT_LABELS[c]) for i, c in enumerate(leaf)]


@pytest.mark.parametrize("params", GRID_PARAMS, ids=GRID_IDS)
def test_grid_positions_make_their_paths_from_their_own_digits(params):
    """t = num / 3^j in lowest terms, j <= depth, starts the node whose
    path is num's j digits: that is the leaf path of t without its
    trailing 0 digits, and a fresh session reveals t's whole leaf path.
    A denominator 3^j with j > depth, or one that is not a power of 3,
    takes the leaf path of t's cell, for the walk and the reveals alike."""
    depth, n = params.depth, params.n

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        j = data.draw(st.integers(0, depth))
        num = data.draw(coprime_to_three(j))
        t = Fraction(num, 3**j)
        leaf = index_path(min(math.floor(t * n), n - 1), depth)
        if t < 1:
            assert num == t.numerator
            node = AdversarySession(params)._prefix_node(num, 3**j, *divmod(num * n, 3**j))
            assert node == leaf.rstrip(b"\x00")
        session = AdversarySession(params)
        session.eval(t, t)
        assert list(session.take_reveals()) == endpoint_chain(leaf)

        # off the grid: too fine a power of 3, or another denominator
        k = data.draw(st.integers(1, 5))
        fine = Fraction(data.draw(coprime_to_three(depth + k)), 3 ** (depth + k))
        other = Fraction(data.draw(st.integers(1, 10**30)), data.draw(st.integers(2, 10**30)))
        for off in (fine, other % 1):
            if off == 0 or off.denominator in {3**i for i in range(depth + 1)}:
                continue
            num, den = off.numerator, off.denominator
            index, rem = divmod(num * n, den)
            assert rem
            session = AdversarySession(params)
            assert session._prefix_node(num, den, index, rem) == index_path(index, depth)
            session.eval(off, off)
            assert list(session.take_reveals()) == endpoint_chain(index_path(index, depth))

    check()


@pytest.mark.parametrize("depth", [60, 200])
def test_a_session_prefix_walk_settles_off_the_grid(depth):
    """A session reveals an off-grid endpoint's whole leaf path, then walks
    it only down to where its float is settled: fewer levels than the
    depth, for the full-depth oracle's mass."""
    params = TreeParams.from_depth(depth)
    for t in (Fraction(1, 7), Fraction(2, 5), Fraction(123456, 1000003), Fraction(9, 10)):
        session = AdversarySession(params)
        walked = []
        walk = session._walk

        def counting_walk(node, check=None, settle=None):
            mass, sig = walk(node, check, settle)
            if settle is not None:
                walked.append(sig.h + sig.q + sig.z)
            return mass, sig

        session._walk = counting_walk
        mass = session._prefix(t)
        assert len(session.revealed) == depth
        assert len(walked) == 1 and walked[0] < depth
        assert mass == oracles.full_depth_prefix(session, t)


class TestInspection:
    """Only eval and cut reveal nodes; the node lookups a session inherits
    read revealed nodes and refuse the others."""

    LEAF = b"\x01" * 11

    def test_inspection_reveals_nothing(self):
        session = AdversarySession(P11)
        for path in (b"", b"\x01", self.LEAF):
            with pytest.raises(PreconditionViolation):
                session.node(path)
        with pytest.raises(PreconditionViolation):
            session.classify_leaf(self.LEAF)
        assert session.revealed == {}
        fresh = AdversarySession(P11)
        assert session.answer_eval(0, Fraction(1, 2)) == fresh.answer_eval(0, Fraction(1, 2))
        assert session.log == fresh.log

    def test_classify_leaf_refuses_an_internal_path_before_walking(self):
        with pytest.raises(InvalidInput, match="not a leaf"):
            AdversarySession(P11).classify_leaf(b"\x01")

    def test_iter_nodes_is_a_typed_error(self):
        with pytest.raises(PreconditionViolation):
            next(AdversarySession(P11).iter_nodes())

    def test_revealed_nodes_can_be_inspected(self):
        session = AdversarySession(P11)
        x = Fraction(5, 3**11)
        session.answer_eval(x, x)
        revealed = len(session.revealed)
        leaf = bytes(oracles.divmod_digits_of_index(5, 11))
        completion = session.complete_labeling(seed=0)
        for path in [leaf[:i] for i in range(12)]:
            assert session.node(path) == completion.node(path)
        assert session.classify_leaf(leaf) == completion.classify_leaf(leaf)
        assert len(session.revealed) == revealed and session.m == 1

    def test_verify_labeling_reads_revealed_paths_only(self):
        session = AdversarySession(P60)
        x = Fraction(11, 3**5)
        session.eval(x, Fraction(1, 2))  # asked without a referee: its reveals wait untaken
        revealed, m = list(session.revealed.items()), session.m
        assert verify_labeling(session, [leaf_path(x, 60)], sample_count=0) == 60
        assert b"\x02" not in session.revealed
        with pytest.raises(PreconditionViolation):
            verify_labeling(session, [b"\x02" * 60], sample_count=0)
        assert list(session.revealed.items()) == revealed and session.m == m
        assert session.take_reveals() == tuple(revealed)

    @pytest.mark.parametrize("source", ["session", "completion"])
    def test_a_checker_sees_every_revealed_label(self, source):
        """A checker handed to a walk replaces a session's or a
        completion's revealed labels, read inline otherwise: a counting
        checker is called at every level, and verify_labeling's checker
        refuses a revealed label flipped to thirds on a non-critical node."""
        session = AdversarySession(P60)
        x = Fraction(11, 3**5)
        session.answer_eval(x, Fraction(1, 2))
        tree = session if source == "session" else session.complete_labeling(seed=0)
        revealed = session.revealed if source == "session" else tree._known
        leaves = [leaf_path(x, 60), leaf_path(Fraction(1, 2), 60)]
        for leaf in leaves:
            seen = []
            tree._walk(leaf, lambda path, sig: seen.append(path) or tree._labels(path, sig))
            assert seen == [leaf[:i] for i in range(60)]
        assert verify_labeling(tree, leaves, sample_count=0) == 120
        node = leaves[0][:7]
        assert not tree.node(node).critical
        revealed[node] = (THIRD, THIRD, THIRD)
        with pytest.raises(InvalidInput, match="non-critical node"):
            verify_labeling(tree, leaves, sample_count=0)

    def test_a_completion_override_reads_revealed_labels_without_a_call(self):
        """A completion's walks read its revealed labels before its
        reader, even one a subclass overrides: walks down fully revealed
        leaf paths call ``_labels`` nowhere, and answer as the completion
        does."""

        class CountingCompletion(CompletedTree):
            calls = 0

            def _labels(self, path, sig):
                self.calls += 1
                return CompletedTree._labels(self, path, sig)

        session = AdversarySession(P60)
        x, y = Fraction(11, 3**5), Fraction(1, 2)
        answer = session.answer_eval(x, y)
        tree = CountingCompletion(P60, dict(session.revealed), seed=0)
        leaf = leaf_path(x, 60)
        assert all(leaf[:i] in session.revealed for i in range(60))
        assert tree.node(leaf) == session.complete_labeling(seed=0).node(leaf)
        assert tree.eval(x, y) == answer
        assert tree.calls == 0

    def test_leaf_masses_read_revealed_leaves_only(self):
        session = AdversarySession(P60)
        x = Fraction(11, 3**5)
        session.answer_eval(x, Fraction(1, 2))
        revealed, m = dict(session.revealed), session.m
        cell = Fraction(1, P60.n)
        piece = Piece.of((x, x + cell / 2))
        completion = session.complete_labeling(seed=0)
        assert session.leaf_masses(piece) == completion.leaf_masses(piece)
        with pytest.raises(PreconditionViolation):
            session.leaf_masses(Piece.of((Fraction(5, 6), Fraction(5, 6) + cell)))
        with pytest.raises(PreconditionViolation, match="wider than"):
            completion.leaf_masses(Piece.of((x, x + 2 * cell)))
        assert session.revealed == revealed and session.m == m

    def test_unrevealed_child_of_a_revealed_node_is_refused(self):
        session = AdversarySession(P11)
        session.answer_eval(0, Fraction(1, 3))
        revealed = dict(session.revealed)
        assert b"" in revealed and b"\x02" not in revealed
        completion = session.complete_labeling(seed=0)
        assert session.node(b"") == completion.node(b"")
        with pytest.raises(PreconditionViolation):
            session.node(b"\x02")
        assert session.revealed == revealed and session.m == 1


class TestCompletions:
    def test_empty_session_completion_is_seeded_tree(self):
        session = AdversarySession(P11)
        completion = session.complete_labeling(seed=3)
        verify_labeling(completion, sample_count=50, sample_seed=1)
        assert abs(completion.eval(0, 1) - 1.0) < 1e-12

    def test_replay_matches_for_many_completions(self):
        rng = random.Random(17)
        session = AdversarySession(P60)
        random_queries(session, 10, rng)
        for seed in range(20):
            completion = session.complete_labeling(seed=seed)
            assert replay_transcript(session.log, completion)

    def test_completions_replay_answers_exactly(self):
        # sessions, completions and hashed trees share one walk, so on the
        # revealed labels a completion gives the session's floats bit for bit
        for depth, seed in ((11, 1), (60, 2), (200, 3)):
            rng = random.Random(seed)
            session = AdversarySession(TreeParams.from_depth(depth))
            random_queries(session, 20, rng)
            for fill_seed in range(3):
                completion = session.complete_labeling(seed=fill_seed)
                assert replay_transcript(session.log, completion, tol=0.0)

    def test_replay_divergence_is_a_typed_error(self):
        rng = random.Random(29)
        session = AdversarySession(P60)
        random_queries(session, 6, rng)
        other = AdversarySession(P60)
        random_queries(other, 6, random.Random(30))
        with pytest.raises(ReplayMismatch):
            replay_transcript(session.log, other.complete_labeling(seed=0), tol=0.0)

    def test_snapshot_isolated_from_later_queries(self):
        rng = random.Random(23)
        session = AdversarySession(P60)
        random_queries(session, 5, rng)
        completion = session.complete_labeling(seed=0)
        log_before = list(session.log)
        random_queries(session, 5, rng)
        assert replay_transcript(log_before, completion)

    def test_light_preference_suppresses_density(self):
        session = AdversarySession(P60)
        target = b"\x01" * 60
        completion = session.complete_labeling(seed=0, light_leaves=[target])
        leaf = completion.node(target)
        assert leaf.h == 0 and not leaf.critical
        # density (3/2 - beta/2)^60 is far below 1/2
        assert math.exp(P60.log_density(leaf.h, leaf.q)) < 0.5

    def test_completion_agrees_with_reveals(self):
        rng = random.Random(29)
        session = AdversarySession(P60)
        random_queries(session, 8, rng)
        completion = session.complete_labeling(seed=9)
        for path, kinds in session.revealed.items():
            assert completion.node(path).label_kinds == kinds


class TestRefutation:
    def test_wide_claim_refuted_by_width_alone(self):
        session = AdversarySession(P60)
        outcome = session.refute_claim(Piece.of((0, "1/3")))
        assert isinstance(outcome, Refutation)
        assert outcome.violated == "width"
        assert outcome.completion is None

    def test_blind_claim_refuted_by_value(self):
        session = AdversarySession(P60)
        cell = Fraction(1, P60.n)
        outcome = session.refute_claim(Piece.of((0, cell)))
        assert isinstance(outcome, Refutation)
        assert outcome.violated == "value"
        assert outcome.value < float(outcome.value_bound)
        verify_labeling(outcome.completion, paths=claim_leaves(outcome.claim, P60))

    def test_empty_claim_rejected(self):
        session = AdversarySession(P60)
        with pytest.raises(Exception):
            session.refute_claim(Piece())

    @pytest.mark.parametrize("claim", [(0, 1), [(0, Fraction(1, 3))], None])
    def test_a_claim_that_is_not_a_piece_is_refused(self, claim):
        session = AdversarySession(P60)
        with pytest.raises(InvalidInput, match="must be a Piece"):
            session.refute_claim(claim)

    def test_refutation_consistent_with_transcript(self):
        rng = random.Random(31)
        session = AdversarySession(P60)
        random_queries(session, 4, rng)
        cell = Fraction(1, P60.n)
        outcome = session.refute_claim(Piece.of((Fraction(1, 2), Fraction(1, 2) + cell)))
        assert isinstance(outcome, Refutation)
        assert replay_transcript(session.log, outcome.completion)

    def test_multi_interval_claim(self):
        session = AdversarySession(P60)
        cell = Fraction(1, P60.n)
        piece = Piece.of((0, cell / 2), (Fraction(1, 2), Fraction(1, 2) + cell / 4))
        outcome = session.refute_claim(piece)
        assert isinstance(outcome, Refutation)

    def test_past_threshold_answers_stay_honest(self):
        # past the threshold the targeted completion may leave the claim
        # heavy; whatever comes back must be truthful: a Refutation really
        # falsifies heaviness, a CannotRefute says the piece stayed heavy
        session = AdversarySession(P11)
        target = Fraction(1, 2)
        for _ in range(20):
            session.answer_eval(0, target)
            session.answer_cut(0, session.answer_eval(0, target) / 2)
        assert session.m > P11.threshold
        index = math.floor(target * P11.n)
        claim = Piece.of((Fraction(index, P11.n), Fraction(index + 1, P11.n)))
        outcome = session.refute_claim(claim)
        if isinstance(outcome, Refutation):
            assert outcome.violated == "value"
            assert outcome.value < float(outcome.value_bound)
            assert replay_transcript(session.log, outcome.completion)
        else:
            assert isinstance(outcome, CannotRefute)


class TestSerialization:
    def test_transcript_jsonl(self):
        import json

        session = AdversarySession(P60)
        session.answer_eval(0, Fraction(1, 3))
        session.answer_cut(Fraction(1, 3), 0.25)
        session.answer_cut(Fraction(2, 3), 1.5)  # no answer
        lines = [json.loads(line) for line in session.transcript_lines()]
        assert len(lines) == 3
        assert lines[0]["kind"] == "eval" and lines[0]["args"] == ["0", "1/3"]
        assert lines[0]["reveals"] and all(
            set(r) == {"path", "labels"} for r in lines[0]["reveals"]
        )
        assert lines[2]["answer"] is None

    @pytest.mark.parametrize("depth", [11, 60, 200])
    def test_transcript_matches_the_first_encoder(self, depth):
        session = AdversarySession(TreeParams.from_depth(depth))
        session.answer_eval(0, Fraction(1, 3))  # an endpoint at 0: the root is revealed
        session.answer_eval("2/9", 1)  # a "p/q" string, and an int endpoint at 1
        session.answer_eval(0, 1)
        session.answer_eval(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 3**depth))  # a tiny mass
        session.answer_cut(Fraction(1, 9), 0)  # r = 0
        session.answer_cut(1, 0)
        session.answer_cut("1/3", 0.1)  # inexact float repr
        session.answer_cut(0, 1e-300)  # float repr with an exponent
        session.answer_cut(0, 1)  # int mass
        session.answer_cut(Fraction(2, 3), 1.5)  # over-full: no answer
        session.answer_cut("1/2", "3/4")
        random_queries(session, 20, random.Random(depth))
        lines = session.transcript_lines()
        assert lines == oracles.transcript_lines_as_first_written(session)
        assert '{"path":[],' in lines[0]
        assert any(rec.answer is None for rec in session.log)
        assert any("e-" in line.split(',"reveals":')[0] for line in lines)

    @settings(max_examples=200, deadline=None)
    @given(
        walks=st.lists(
            st.tuples(
                st.lists(st.integers(0, 2), max_size=6),  # where a walk starts
                st.lists(st.tuples(st.integers(0, 2), st.sampled_from(KINDS)), max_size=6),
                st.sampled_from(KINDS),
            ),
            max_size=6,
        )
    )
    def test_a_record_writes_its_reveals_as_each_reveal_alone(self, walks):
        reveals = []
        for start, steps, kinds in walks:
            path = bytes(start)
            reveals.append((path, kinds))
            for digit, kinds in steps:
                path += bytes((digit,))
                reveals.append((path, kinds))
        expected = ",".join(
            json.dumps({"path": list(path), "labels": list(kinds)}, separators=(",", ":"))
            for path, kinds in reveals
        )
        assert adversary._reveals_json(reveals) == expected

    def test_refutation_json_fields(self):
        session = AdversarySession(P60)
        cell = Fraction(1, P60.n)
        outcome = session.refute_claim(Piece.of((0, cell)))
        obj = outcome.to_json()
        assert set(obj) == {
            "refuted", "claimed_piece", "width", "width_bound", "value", "value_bound", "violated"
        }
        assert obj["refuted"] is True
        assert obj["violated"] == "value"
        assert obj["claimed_piece"] == [["0", str(cell)]]
        assert obj["value"] < obj["value_bound"]


class TestClaimLeaves:
    def test_single_cell(self):
        cell = Fraction(1, P11.n)
        piece = Piece.of((cell * 5, cell * 6))
        assert claim_leaves(piece, P11) == [index_path(5, 11)]

    def test_straddle(self):
        cell = Fraction(1, P11.n)
        piece = Piece.of((cell * 5 + cell / 2, cell * 6 + cell / 2))
        assert claim_leaves(piece, P11) == [index_path(5, 11), index_path(6, 11)]


class TestStrategiesAndGame:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_within_budget_and_refuted_at_threshold(self, name):
        for seed in range(6):
            report = run_heavy_piece_game(P60, name, budget=4, seed=seed)
            assert report.queries_used <= 4
            assert report.threshold == 4
            assert report.refuted
            assert all(
                h <= 2 * (i + 1) for i, h in enumerate(report.max_revealed_heavy_trace)
            )

    def test_zero_budget_blind_claim_refuted(self):
        report = run_heavy_piece_game(P60, "blind", budget=0, seed=1)
        assert report.queries_used == 0
        assert report.refuted

    def test_claim_width_is_legal(self):
        for name in STRATEGIES:
            report = run_heavy_piece_game(P60, name, budget=4, seed=2)
            assert report.claim.width <= Fraction(1, P60.n)

    def test_overspending_finder_is_a_protocol_violation(self, monkeypatch):
        def overspend(player, params, budget, seed):
            for _ in range(budget + 1):
                player.eval(0, Fraction(1, 3))
            return STRATEGIES["blind"](player, params, budget, seed)

        monkeypatch.setitem(STRATEGIES, "overspend", overspend)
        with pytest.raises(ProtocolViolation, match="2 > 1 queries"):
            run_heavy_piece_game(P60, "overspend", budget=1, seed=0)

    def test_overspending_query_is_refused_before_it_is_answered(self, monkeypatch):
        queries = [(0, Fraction(1, 3)), (Fraction(1, 9), Fraction(7, 9))]
        # answered, the second query would reveal nodes the first did not
        fresh = AdversarySession(P60)
        fresh.answer_eval(*queries[0])
        first_reveals = dict(fresh.revealed)
        fresh.answer_eval(*queries[1])
        assert len(fresh.revealed) > len(first_reveals)

        sessions = []

        class RecordedSession(AdversarySession):
            def __init__(self, params):
                super().__init__(params)
                sessions.append(self)

        def overspend(player, params, budget, seed):
            for query in queries:
                player.eval(*query)
            return STRATEGIES["blind"](player, params, budget, seed)

        monkeypatch.setattr(adversary, "AdversarySession", RecordedSession)
        monkeypatch.setitem(STRATEGIES, "overspend", overspend)
        with pytest.raises(ProtocolViolation, match="used 2 > 1 queries"):
            run_heavy_piece_game(P60, "overspend", budget=1, seed=0)
        [session] = sessions
        assert session.m == 1
        assert session.revealed == first_reveals

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    @pytest.mark.parametrize("budget", [None, -1, True, 1.5, "3"])
    def test_a_budget_that_is_not_an_int_at_least_0_is_refused(self, monkeypatch, name, budget):
        sessions = []

        class RecordedSession(AdversarySession):
            def __init__(self, params):
                super().__init__(params)
                sessions.append(self)

        monkeypatch.setattr(adversary, "AdversarySession", RecordedSession)
        with pytest.raises(InvalidInput, match="budget must be an int >= 0"):
            run_heavy_piece_game(P60, name, budget, 0)
        assert sessions == []

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_heavy_piece_game(P60, "psychic", budget=4, seed=0)

    def test_report_json(self):
        report = run_heavy_piece_game(P60, "greedy-dense", budget=4, seed=3)
        obj = report.to_json()
        assert obj["k"] == 60 and obj["threshold"] == 4
        assert obj["outcome"]["refuted"] is True
        assert obj["within_threshold"] is True


def _refuted_claim_values(budget):
    """For greedy-dense games at 3^60, seeds 0-4: the exact value of each
    value-refuted claim under its own refuting completion."""
    values = []
    for seed in range(5):
        outcome = run_heavy_piece_game(P60, "greedy-dense", budget=budget, seed=seed).outcome
        if isinstance(outcome, Refutation) and outcome.violated == "value":
            values.append(oracles.exact_piece_value(outcome.completion, outcome.claim))
    return values


@pytest.mark.parametrize("budget", [0, 4])
def test_refutations_within_the_threshold_are_genuine(budget):
    values = _refuted_claim_values(budget)
    assert len(values) == 5
    assert all(value < Fraction(1, 2 * P60.n) for value in values), [float(v) for v in values]


@pytest.mark.parametrize("budget", [40, 80])
def test_refutations_past_the_threshold_are_genuine(budget):
    values = _refuted_claim_values(budget)
    assert all(value < Fraction(1, 2 * P60.n) for value in values), [float(v) for v in values]


def _exact_value(tree, piece):
    return sum(mass for _, _, mass in tree.leaf_masses(piece))


def _game_and_session(monkeypatch, params, name, budget, seed):
    """A game's report, and the session the finder played against."""
    sessions = []

    class RecordedSession(AdversarySession):
        def __init__(self, params):
            super().__init__(params)
            sessions.append(self)

    monkeypatch.setattr(adversary, "AdversarySession", RecordedSession)
    report = run_heavy_piece_game(params, name, budget=budget, seed=seed)
    return report, sessions.pop()


def test_criterion_11_refutations_are_exact():
    """Every claim refuted in criterion 11's games (3^60, budget 4, seeds
    0-49 per finder) has the oracle's exact value, and reports its float."""
    for name in sorted(STRATEGIES):
        for seed in range(50):
            outcome = run_heavy_piece_game(P60, name, budget=4, seed=seed).outcome
            exact = _exact_value(outcome.completion, outcome.claim)
            assert exact == oracles.exact_piece_value(outcome.completion, outcome.claim)
            assert outcome.value == float(exact)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_refutation_replays_from_the_reveals_and_the_claim(monkeypatch, name):
    report, session = _game_and_session(monkeypatch, P60, name, budget=4, seed=7)
    completion = report.outcome.completion
    leaves = claim_leaves(report.claim, P60)
    rebuilt = CompletedTree(P60, dict(session.revealed), 0, leaves)
    for leaf in leaves:
        for depth in range(P60.depth):
            assert rebuilt.node(leaf[:depth]) == completion.node(leaf[:depth])
    assert _exact_value(rebuilt, report.claim) == _exact_value(completion, report.claim)


@pytest.mark.parametrize("budget", [40, 80])
def test_claims_heavy_under_the_targeted_completion_are_not_refuted(monkeypatch, budget):
    """Past the threshold greedy-dense finds claims that stay heavy under
    the targeted completion, which the oracle confirms."""
    for seed in range(3):
        report, session = _game_and_session(monkeypatch, P60, "greedy-dense", budget, seed)
        assert isinstance(report.outcome, CannotRefute)
        completion = session.complete_labeling(0, light_leaves=claim_leaves(report.claim, P60))
        assert oracles.exact_piece_value(completion, report.claim) >= Fraction(1, 2 * P60.n)


def test_referee_over_sessions():
    # a session is a tree valuation, so a referee can hold sessions as
    # players; the referee's records carry every reveal each session made,
    # in the order it made them
    sessions = [AdversarySession(P60) for _ in range(9)]
    referee = QueryReferee(sessions)
    allocation = even_paz(referee, "cake")
    for i, session in enumerate(sessions):
        assert referee.counts[i] == session.m
        reveals = [reveal for rec in referee.log if rec.player == i for reveal in rec.reveals]
        assert reveals == list(session.revealed.items())
        assert session.max_revealed_heavy() <= 2 * session.m
    completions = [session.complete_labeling(seed=i) for i, session in enumerate(sessions)]
    assert replay_log(referee.log, completions, tol=1e-9)
    assert check_proportional(allocation, completions, "cake", tol=1e-9).ok


class TestOneRecordPerQuery:
    def test_a_game_keeps_one_record_per_query(self, monkeypatch):
        made = []

        class RecordedReferee(QueryReferee):
            def __init__(self, valuations, budget=None):
                super().__init__(valuations, budget)
                made.append(self)

        monkeypatch.setattr(adversary, "QueryReferee", RecordedReferee)
        for name in STRATEGIES:
            report = run_heavy_piece_game(P60, name, budget=4, seed=1)
            referee = made.pop()
            session = referee.valuation(0)
            assert len(referee.log) == report.queries_used == session.m
            assert sum(len(rec.reveals) for rec in referee.log) == len(session.revealed)
            assert session.log == []

    def test_answer_methods_log_what_a_referee_logs(self):
        queries = [
            ("eval", 0, Fraction(1, 3)),
            ("eval", "2/9", 1),
            ("cut", Fraction(1, 9), 0),
            ("cut", "1/3", 0.1),
            ("cut", 0, Fraction(1, 3)),
            ("cut", Fraction(2, 3), 1.5),
            ("cut", "1/2", "3/4"),
        ]
        rng = random.Random(5)
        for _ in range(20):
            a, b = sorted(Fraction(rng.randrange(0, GRID + 1), GRID) for _ in range(2))
            queries.append(("eval", a, b) if rng.random() < 0.5 else ("cut", a, rng.random()))
        standalone = AdversarySession(P60)
        referee = QueryReferee([AdversarySession(P60)])
        for kind, a, b in queries:
            if kind == "eval":
                assert standalone.answer_eval(a, b) == referee.eval(0, a, b)
            else:
                assert standalone.answer_cut(a, b) == referee.cut(0, a, b)
        assert standalone.log == referee.log
        assert any(rec.reveals for rec in referee.log)

    def test_a_direct_query_leaves_no_reveals_behind(self):
        session = AdversarySession(P60)
        session.eval(0, Fraction(1, 3))  # asked without a referee: no record
        before = dict(session.revealed)
        assert before and session.log == []
        session.answer_eval(Fraction(1, 9), Fraction(7, 9))
        [rec] = session.log
        assert rec.reveals
        assert list(rec.reveals) == [item for item in session.revealed.items() if item[0] not in before]
        assert session.m == 2

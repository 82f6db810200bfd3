import math
import random
from fractions import Fraction

import pytest

from fairslice import adversary
from fairslice.adversary import (
    STRATEGIES,
    AdversarySession,
    CannotRefute,
    Refutation,
    claim_leaves,
    replay_transcript,
    run_heavy_piece_game,
)
from fairslice.errors import InvalidInput, PreconditionViolation, ProtocolViolation, ReplayMismatch
from fairslice.geometry import Piece
from fairslice.protocols import check_proportional, even_paz
from fairslice.referee import QueryReferee, replay_log
from fairslice.valuetree import HEAVY, LIGHT, TreeParams, index_path, leaf_path, verify_labeling

import oracles

P60 = TreeParams.from_depth(60)
P11 = TreeParams.from_depth(11)

GRID = 3**9  # query coordinates land on this lattice in the random drivers


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
        found = session.revealed_critical_nodes()
        assert len(found) == len(set(found))
        assert set(found) == expected

    def test_connectivity_check_sees_an_orphan(self):
        session = AdversarySession(P60)
        session.answer_eval(0, Fraction(1, 3))
        assert session.revealed_is_connected()
        # no walk reveals a node before its parent; force one past the walks
        session._answering = True
        three_light = P60.root.step(LIGHT).step(LIGHT).step(LIGHT)  # h = 0, q = 3
        session._reveal(bytes((2, 2, 2)), three_light, (HEAVY, LIGHT, LIGHT))
        assert not oracles.revealed_is_connected(session.revealed)
        assert not session.revealed_is_connected()


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
            for completion_seed in range(3):
                completion = session.complete_labeling(seed=completion_seed)
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
        # past the threshold refutation is best effort; whatever comes back
        # must be truthful: a Refutation really falsifies heaviness, a
        # CannotRefute reports the attempts made
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
            assert outcome.attempts > 0


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

    def test_refutation_json_fields(self):
        session = AdversarySession(P60)
        cell = Fraction(1, P60.n)
        outcome = session.refute_claim(Piece.of((0, cell)))
        obj = outcome.to_json()
        assert obj["refuted"] is True
        assert obj["violated"] == "value"
        assert obj["claimed_piece"] == [["0", str(cell)]]
        assert obj["completion_seed"] is not None
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

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_heavy_piece_game(P60, "psychic", budget=4, seed=0)

    def test_report_json(self):
        report = run_heavy_piece_game(P60, "greedy-dense", budget=4, seed=3)
        obj = report.to_json()
        assert obj["k"] == 60 and obj["threshold"] == 4
        assert obj["outcome"]["refuted"] is True
        assert obj["within_threshold"] is True


def test_referee_over_sessions():
    # a session is a tree valuation, so a referee can hold sessions as
    # players; the referee's counts and log agree with each session's own
    sessions = [AdversarySession(P60) for _ in range(9)]
    referee = QueryReferee(sessions)
    allocation = even_paz(referee, "cake")
    for i, session in enumerate(sessions):
        assert referee.counts[i] == session.m
        assert [rec.answer for rec in session.log] == [
            rec.answer for rec in referee.log if rec.player == i
        ]
        assert session.max_revealed_heavy() <= 2 * session.m
    completions = [session.complete_labeling(seed=i) for i, session in enumerate(sessions)]
    assert replay_log(referee.log, completions, tol=1e-9)
    assert check_proportional(allocation, completions, "cake", tol=1e-9).ok

"""Bit-for-bit golden digests of tree answers, adversary transcripts, game
reports, step-valuation answers, division reports and reduction reports,
plus whole-tree enumeration and leaf-profile tables.

The replay checks elsewhere allow 1e-9; these pin the exact float answers
(via ``repr``), every reveal and its order, and every report byte, so a
refactor of the tree walks or the step queries can show it changed nothing.
Each digest is the sha256 of the newline-joined lines a helper below
produces.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from fairslice.adversary import STRATEGIES, AdversarySession, run_heavy_piece_game
from fairslice.dual import reduction_pipeline
from fairslice.protocols import check_proportional, even_paz
from fairslice.referee import QueryReferee
from fairslice.valuation import DensityBounds, PiecewiseConstantValuation, random_dense_valuation
from fairslice.valuetree import BalancedValueTree, TreeParams, index_path, leaf_profiles


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def random_point(rng: random.Random, depth: int) -> Fraction:
    """A query coordinate: an endpoint, a coarse or leaf-level 3-adic point,
    or a point with a non-3-adic denominator."""
    roll = rng.random()
    if roll < 0.1:
        return Fraction(rng.choice((0, 1)))
    if roll < 0.4:
        return Fraction(rng.randrange(0, 3**9 + 1), 3**9)
    if roll < 0.7:
        return Fraction(rng.randrange(0, 3**depth + 1), 3**depth)
    return Fraction(rng.randrange(0, 10**6 + 1), 10**6 + 7)


def drive_session(session: AdversarySession, rng: random.Random, count: int) -> list[str]:
    """Random eval/cut queries (zero and over-full cuts included); returns
    max_revealed_heavy after each one."""
    depth = session.params.depth
    heavy = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:
            a, b = sorted(random_point(rng, depth) for _ in range(2))
            session.answer_eval(a, b)
        elif roll < 0.5:
            session.answer_cut(random_point(rng, depth), 0)
        else:
            session.answer_cut(random_point(rng, depth), rng.random() * 1.2)
        heavy.append(str(session.max_revealed_heavy()))
    return heavy


def session_lines(depth: int, seed: int, count: int) -> list[str]:
    session = AdversarySession(TreeParams.from_depth(depth))
    heavy = drive_session(session, random.Random(seed), count)
    return session.transcript_lines() + [",".join(heavy)]


def game_lines(depth: int, budgets, seeds) -> list[str]:
    params = TreeParams.from_depth(depth)
    lines = []
    for name in sorted(STRATEGIES):
        for budget in budgets:
            for seed in seeds:
                report = run_heavy_piece_game(params, name, budget=budget, seed=seed)
                lines.append(json.dumps(report.to_json(), sort_keys=True))
    return lines


def answer_lines(tree, rng: random.Random, count: int) -> list[str]:
    """repr of eval and cut answers, plus node values and profiles on a few
    leaf paths."""
    depth = tree.params.depth
    lines = []
    for _ in range(count):
        a, b = sorted(random_point(rng, depth) for _ in range(2))
        lines.append(repr(tree.eval(a, b)))
        x = random_point(rng, depth)
        r = rng.choice((0.0, rng.random(), rng.random() * 1.2, tree.eval(x, 1)))
        lines.append(repr(tree.cut(x, r)))
    for _ in range(5):
        path = index_path(rng.randrange(tree.params.n), depth)
        node = tree.node(path)
        lines.append(f"{node.value!r} {node.h} {node.q} {node.z} {node.critical}")
    return lines


def completion_for(depth: int, seed: int):
    params = TreeParams.from_depth(depth)
    session = AdversarySession(params)
    rng = random.Random(seed)
    drive_session(session, rng, 12)
    light = [index_path(rng.randrange(params.n), depth)]
    return session.complete_labeling(seed=seed, light_leaves=light), rng


SESSION_DIGESTS = {
    (60, 1): "4e1f0a27336832e1a4669f3656d4fcba31602f8601137ae6da094eb3b3ab58e6",
    (60, 2): "ac536f513abd1849dba555d9df507255069bab25ba1daa1ea3a5a251ae0dbbdc",
    (200, 3): "e245b7616513869b98d9c34a4d41cda12dae9e880a7926f9a06dabb70efc8411",
}


@pytest.mark.parametrize("depth,seed", sorted(SESSION_DIGESTS))
def test_session_transcripts(depth, seed):
    assert digest(session_lines(depth, seed, 40)) == SESSION_DIGESTS[depth, seed]


GAME_DIGESTS = {
    60: "6ebc18e7df09ccdfc4b97d47d2898e8fdc4ab0a51ad06b4b9e07654f1606701b",
    200: "4c6150b96bde567536dc815d8ac93053b5c78618ccdc9686d4fc1100c285c9d9",
}


@pytest.mark.parametrize("depth", sorted(GAME_DIGESTS))
def test_game_reports(depth):
    assert digest(game_lines(depth, budgets=(0, 4, 9), seeds=range(3))) == GAME_DIGESTS[depth]


TREE_DIGESTS = {
    11: "3dc67d0925ef8eeffd1e8b1419faf943fa0bdc22b500a2532aba28ebdd50313c",
    60: "ad0b8ab2d818245d3da32dd8479f18f3eff461365ff4755dfc738d58409afcaa",
}


@pytest.mark.parametrize("depth", sorted(TREE_DIGESTS))
def test_balanced_tree_answers(depth):
    tree = BalancedValueTree(TreeParams.from_depth(depth), seed=depth)
    assert digest(answer_lines(tree, random.Random(depth), 60)) == TREE_DIGESTS[depth]


COMPLETION_DIGESTS = {
    11: "4143378515dbcdca0c4ed14ffa71bcd521a3999a4be1e5bb6f96e64d77aaddfe",
    60: "0ced9601bb120d3325a3e6afac04d3341516ba611cd9ea725e6f3be930840ae0",
}


@pytest.mark.parametrize("depth", sorted(COMPLETION_DIGESTS))
def test_completed_tree_answers(depth):
    completion, rng = completion_for(depth, seed=depth + 1)
    assert digest(answer_lines(completion, rng, 60)) == COMPLETION_DIGESTS[depth]


def dense_valuations(n: int, segments: int, bounds: DensityBounds, seed: int):
    rng = random.Random(seed)
    return [random_dense_valuation(segments, bounds, seed=rng.randrange(2**63)) for _ in range(n)]


def divide_lines(n: int, seed: int) -> list[str]:
    """Even-Paz cake and chore: allocation, proportionality report, counts
    and the referee log of each run."""
    valuations = dense_valuations(n, 6, DensityBounds(Fraction(1, 2), Fraction(2)), seed)
    lines = []
    for mode in ("cake", "chore"):
        referee = QueryReferee(valuations)
        allocation = even_paz(referee, mode)
        report = check_proportional(allocation, valuations, mode)
        payload = {
            "allocation": allocation.to_json(),
            "proportionality": report.to_json(),
            "per_player": referee.counts,
        }
        lines.append(json.dumps(payload, sort_keys=True))
        lines.extend(referee.log_lines())
    return lines


def reduction_lines(seed: int) -> list[str]:
    """reduction_pipeline at n=27 on 64-segment (0,2)-dense steps: the
    report, then the dual referee's log, then the base referee's log."""
    valuations = dense_valuations(27, 64, DensityBounds(Fraction(0), Fraction(2)), seed)
    referees = []

    def protocol(referee, mode):
        referees.append(referee)
        return even_paz(referee, mode)

    report = reduction_pipeline(valuations, protocol)
    dual_referee = referees[0]
    base_referee = dual_referee.valuation(0).base._referee
    return [json.dumps(report.to_json(), sort_keys=True), *dual_referee.log_lines(), *base_referee.log_lines()]


def random_step(rng: random.Random) -> PiecewiseConstantValuation:
    """A normalized step valuation of 1..12 segments whose breakpoints have
    mixed denominators and whose densities include zeros."""
    den = rng.choice((2, 7, 64, 3**5, 10**6 + 3))
    k = rng.randint(1, min(12, den))
    interior = sorted(Fraction(i, den) for i in rng.sample(range(1, den), k - 1))
    bps = [Fraction(0), *interior, Fraction(1)]
    weights = [Fraction(rng.choice((0, 0, 1, 2, 5, 13)), rng.choice((1, 3, 11))) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = Fraction(1)
    total = sum(w * (b - a) for a, b, w in zip(bps, bps[1:], weights))
    return PiecewiseConstantValuation(bps, [w / total for w in weights])


def step_point(rng: random.Random, v: PiecewiseConstantValuation) -> Fraction:
    roll = rng.random()
    if roll < 0.15:
        return Fraction(rng.choice((0, 1)))
    if roll < 0.45:
        return rng.choice(v.breakpoints)
    if roll < 0.75:
        return Fraction(rng.randrange(0, 3**20 + 1), 3**20)
    return Fraction(rng.randrange(0, 1000 + 1), 1000)


def step_answer_lines(seed: int, count: int) -> list[str]:
    """repr of eval and cut answers: zero cuts, cuts of the exact remaining
    mass and cuts just past it included."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        v = random_step(rng)
        for _ in range(8):
            a, b = sorted(step_point(rng, v) for _ in range(2))
            lines.append(repr(v.eval(a, b)))
            x = step_point(rng, v)
            rest = v.eval(x, 1)
            r = rng.choice((Fraction(0), rest, rest + Fraction(1, 3**20), rest * Fraction(rng.randrange(101), 100)))
            lines.append(f"{v.cut(x, r)!r} {v.cut(x, rng.random())!r}")
    return lines


DIVIDE_DIGESTS = {
    27: "234abac1325e5e81abaeac0fa89750e5e6dc8019b06cd00a5792d073d75bd29a",
    243: "5d0b39ae2552655681ca400c92e00070e4af5cce3f6f8239182420972f30a2e0",
}


@pytest.mark.parametrize("n", sorted(DIVIDE_DIGESTS))
def test_even_paz_step_reports(n):
    assert digest(divide_lines(n, seed=n)) == DIVIDE_DIGESTS[n]


REDUCTION_DIGEST = "cc7e07604d90bd0fa5cc8a58393f85595b65849c2e66810c6f349a19117f5290"


def test_reduction_report_and_logs():
    assert digest(reduction_lines(seed=64)) == REDUCTION_DIGEST


STEP_ANSWER_DIGEST = "412f0b18fbde6d90fc300c24d2876d762ac090e447836e8608e5843779c23bd7"


def test_step_answers():
    assert digest(step_answer_lines(seed=5, count=60)) == STEP_ANSWER_DIGEST


def tree_divide_lines(depth: int, seeds) -> list[str]:
    """Even-Paz cake on hashed trees, each read back by its own
    ``from_json`` (equal but distinct params): the report the CLI prints
    and the referee log, for the given player order and its reverse."""
    lines = []
    for order in (list(seeds), list(reversed(seeds))):
        trees = [BalancedValueTree.from_json({"type": "balanced_value_tree", "k": depth, "seed": s}) for s in order]
        referee = QueryReferee(trees)
        allocation = even_paz(referee, "cake")
        report = check_proportional(allocation, trees, "cake", tol=1e-9)
        payload = {
            "allocation": allocation.to_json(),
            "proportionality": report.to_json(),
            "per_player": referee.counts,
        }
        lines.append(json.dumps(payload, sort_keys=True))
        lines.extend(referee.log_lines())
    return lines


TREE_DIVIDE_DIGEST = "ffc111144d00311372f459ad59747fe091e6c3e97abf1e18d0e698afbe043b66"


def test_tree_even_paz_reports():
    assert digest(tree_divide_lines(60, seeds=[7 + 31 * i for i in range(9)])) == TREE_DIVIDE_DIGEST


def iter_nodes_lines(tree) -> list[str]:
    return [
        f"{v.depth} {v.h} {v.q} {v.z} {v.critical} {v.value!r} {v.label_kinds}"
        for v in tree.iter_nodes()
    ]


ITER_NODES_DIGEST = "10180ce0343a2e295ec24ccc49fde0881d2a0cbacd619f6fe47e687fdf0bd953"


def test_iter_nodes_stream():
    tree = BalancedValueTree(TreeParams.from_depth(11), seed=11)
    assert digest(iter_nodes_lines(tree)) == ITER_NODES_DIGEST


def test_max_leaf_density():
    tree = BalancedValueTree(TreeParams.from_depth(11), seed=11)
    assert repr(tree.max_leaf_density()) == "1.9903032297681105"


LEAF_PROFILE_DIGESTS = {
    11: "5dccd5adbe616fd040190800c0de66c4770258b98ddff21cf9f861702fc1003c",
    60: "afeae1c27e4b9eb9541a13691818d2594e6f6efa3f340035d8260ab737890a22",
}


@pytest.mark.parametrize("depth", sorted(LEAF_PROFILE_DIGESTS))
def test_leaf_profiles(depth):
    lines = [f"{p.h} {p.q} {p.z} {p.classification}" for p in leaf_profiles(TreeParams.from_depth(depth))]
    assert digest(lines) == LEAF_PROFILE_DIGESTS[depth]

"""Bit-for-bit golden digests of tree answers, adversary transcripts and
game reports.

The replay checks elsewhere allow 1e-9; these pin the exact float answers
(via ``repr``), every reveal and its order, and every report byte, so a
refactor of the tree walks can show it changed nothing.  Each digest is the
sha256 of the newline-joined lines a helper below produces.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from fairslice.adversary import STRATEGIES, AdversarySession, run_heavy_piece_game
from fairslice.valuetree import BalancedValueTree, TreeParams, digits_of_index


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
        path = digits_of_index(rng.randrange(tree.params.n), depth)
        profile = tree.node_profile(path)
        lines.append(f"{tree.node_value(path)!r} {profile.h} {profile.q} {profile.z} {profile.critical}")
    return lines


def completion_for(depth: int, seed: int):
    params = TreeParams.from_depth(depth)
    session = AdversarySession(params)
    rng = random.Random(seed)
    drive_session(session, rng, 12)
    light = [digits_of_index(rng.randrange(params.n), depth)]
    return session.complete_labeling(seed=seed, light_leaves=light), rng


SESSION_DIGESTS = {
    (60, 1): "7208da5264a57b856ef73e5994ecd0911d53e56bcaec94fcb7a0c306aabdc6d0",
    (60, 2): "7e5be7ff78dd8ebaa52c21f4c2ec1dffee31fbaa0b36655fb71b94c2c300edf7",
    (200, 3): "69fab2a1021b419c2f696a1c0a62d76ea542cbd484f49d12dd23533d09f4feb2",
}


@pytest.mark.parametrize("depth,seed", sorted(SESSION_DIGESTS))
def test_session_transcripts(depth, seed):
    assert digest(session_lines(depth, seed, 40)) == SESSION_DIGESTS[depth, seed]


GAME_DIGESTS = {
    60: "9c5b20433f5ba14cd0e8f15816c00974a15da88a06a17c00fa08b00ef66fa0ff",
    200: "243ffdcf353f125cc28f06ecb74ad57c33f1a89ae79b7348c83abda1c1c7c52c",
}


@pytest.mark.parametrize("depth", sorted(GAME_DIGESTS))
def test_game_reports(depth):
    assert digest(game_lines(depth, budgets=(0, 4, 9), seeds=range(3))) == GAME_DIGESTS[depth]


TREE_DIGESTS = {
    11: "193cc1d32685c1138e65a1aa901b338690a91eb34e978a04ed1add6478a43301",
    60: "5d70f8b18132bcb348ef1525458dc1fe95b72a173938f027eecf692df8ffebe7",
}


@pytest.mark.parametrize("depth", sorted(TREE_DIGESTS))
def test_balanced_tree_answers(depth):
    tree = BalancedValueTree(TreeParams.from_depth(depth), seed=depth)
    assert digest(answer_lines(tree, random.Random(depth), 60)) == TREE_DIGESTS[depth]


COMPLETION_DIGESTS = {
    11: "6cb1bf6a3e5a68596d7b72cb28479424adbfab591e65626d3f900e0ab79b4f75",
    60: "a0641481c6d9b0b1d46f431c932fae14f450b1f03e0b5412cf29422576769855",
}


@pytest.mark.parametrize("depth", sorted(COMPLETION_DIGESTS))
def test_completed_tree_answers(depth):
    completion, rng = completion_for(depth, seed=depth + 1)
    assert digest(answer_lines(completion, rng, 60)) == COMPLETION_DIGESTS[depth]

"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line (visible under ``pytest -s``) naming the
criterion it certifies; pytest failure output is the FAIL side.  Derived
expected values in these tests were cross-checked against the independent
oracles in ``oracles.py`` before being frozen.
"""

import csv
import io
import math
import random
import time
from fractions import Fraction

from fairslice.adversary import (
    STRATEGIES,
    AdversarySession,
    Refutation,
    claim_leaves,
    replay_transcript,
    run_heavy_piece_game,
)
from fairslice.cli import main as cli_main
from fairslice.dual import DualValuation, dual_pwc_closed_form, reduction_pipeline
from fairslice.protocols import (
    check_proportional,
    count_light_pieces,
    count_narrow_pieces,
    even_paz,
)
from fairslice.referee import QueryReferee
from fairslice.valuation import DensityBounds, random_dense_valuation
from fairslice.valuetree import (
    LOW_HEAVY_DENSITY_LIMIT,
    BalancedValueTree,
    TreeParams,
    leaf_profiles,
    low_heavy_density_cap,
    verify_labeling,
)

BAND = DensityBounds(0, 2)


def _positive_valuation(seed, max_segments=8):
    segments = 1 + seed % max_segments
    return random_dense_valuation(segments, BAND, seed=seed)


def test_criterion_1_dual_roundtrip_exact():
    """Dual of the dual is the original valuation, exactly, 200 instances."""
    start = time.time()
    for seed in range(200):
        segments = 1 + (seed * 13) % 32
        v = random_dense_valuation(segments, BAND, seed=seed)
        assert dual_pwc_closed_form(dual_pwc_closed_form(v)) == v
    elapsed = time.time() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    print(f"\nACCEPTANCE 1 PASS: dual round-trip exact on 200 valuations ({elapsed:.2f}s)")


def test_criterion_2_dual_query_cost_exactly_two():
    """Every dual eval and dual cut costs exactly 2 base queries, 1000 queries."""
    rng = random.Random(2024)
    evals = cuts = 0
    for seed in range(10):
        base = _positive_valuation(seed)
        referee = QueryReferee([base])
        dual = DualValuation(referee.view(0))
        for _ in range(100):
            before = referee.total
            if rng.random() < 0.5:
                x, y = sorted(Fraction(rng.randrange(0, 97), 96) for _ in range(2))
                dual.eval(x, y)
                evals += 1
            else:
                x = Fraction(rng.randrange(0, 97), 96)
                dual.cut(x, Fraction(rng.randrange(0, 130), 96))
                cuts += 1
            assert referee.total - before == 2
    assert evals + cuts == 1000
    print(f"\nACCEPTANCE 2 PASS: 2 base queries per dual query ({evals} evals, {cuts} cuts)")


def test_criterion_3_dual_density_floor_and_agreement():
    """Duals of positive (0,2)-dense valuations are (1/2,inf)-dense; the
    black-box wrapper agrees with the closed form exactly."""
    rng = random.Random(3)
    for seed in range(100):
        v = _positive_valuation(seed)
        closed = dual_pwc_closed_form(v)
        assert all(d >= Fraction(1, 2) for d in closed.densities)
        wrapper = DualValuation(v)
        for _ in range(100):
            if rng.random() < 0.5:
                x, y = sorted(Fraction(rng.randrange(0, 61), 60) for _ in range(2))
                assert wrapper.eval(x, y) == closed.eval(x, y)
            else:
                x = Fraction(rng.randrange(0, 61), 60)
                r = Fraction(rng.randrange(0, 75), 60)
                assert wrapper.cut(x, r) == closed.cut(x, r)
    print("\nACCEPTANCE 3 PASS: dual densities >= 1/2 and wrapper==closed form, 100x100 queries")


def test_criterion_4_proportionality_sweep():
    """Even-Paz cake and chore stay proportional with exact comparisons:
    every n in 2..243 once per mode, plus 50 seeds at n in {2,3,27,243}."""
    violations = 0
    for n in range(2, 244):
        for mode in ("chore", "cake"):
            vs = [random_dense_valuation(6, BAND, seed=n * 7919 + i) for i in range(n)]
            referee = QueryReferee(vs)
            allocation = even_paz(referee, mode)
            report = check_proportional(allocation, vs, mode)
            violations += sum(1 for s in report.shares if not s.ok)
    for n in (2, 3, 27, 243):
        for seed in range(50):
            for mode in ("chore", "cake"):
                vs = [
                    random_dense_valuation(6, BAND, seed=seed * 100_000 + n * 97 + i)
                    for i in range(n)
                ]
                referee = QueryReferee(vs)
                allocation = even_paz(referee, mode)
                report = check_proportional(allocation, vs, mode)
                violations += sum(1 for s in report.shares if not s.ok)
    assert violations == 0
    print("\nACCEPTANCE 4 PASS: zero proportionality violations (n=2..243 sweep + 50-seed stress)")


def test_criterion_5_query_scaling(tmp_path):
    """Even-Paz stays within 2*n*ceil(log2 n); last-diminisher stays O(n^2);
    ratios land in a CSV."""
    start = time.time()
    out = tmp_path / "scaling.csv"
    code = cli_main([
        "scaling",
        "--ns", "2,3,4,5,8,9,16,27,32,64,81,128,243",
        "--protocols", "even-paz,last-diminisher",
        "--mode", "chore",
        "--seed", "11",
        "--out", str(out),
    ])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows, "CSV is empty"
    ld_ratios = []
    for row in rows:
        n = int(row["n"])
        queries = int(row["queries"])
        if row["protocol"] == "even-paz":
            assert queries <= 2 * n * math.ceil(math.log2(n)), row
        else:
            ld_ratios.append(queries / (n * n))
    assert ld_ratios and max(ld_ratios) <= 1.0
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    print(
        f"\nACCEPTANCE 5 PASS: even-paz <= 2n*ceil(log2 n), "
        f"last-diminisher/n^2 <= {max(ld_ratios):.3f} ({elapsed:.1f}s, CSV at {out})"
    )


def test_criterion_6_light_piece_counts():
    """Proportional chore splits of (1/2,inf)-dense duals leave at least
    ceil(n/3) light pieces and at most 2n/3 narrow ones, exactly."""
    checked = 0
    for seed in range(5):
        for n in (9, 27, 81, 243):
            base = [
                random_dense_valuation(6, BAND, seed=seed * 9973 + n * 31 + i)
                for i in range(n)
            ]
            duals = [dual_pwc_closed_form(v) for v in base]
            referee = QueryReferee(duals)
            allocation = even_paz(referee, "chore")
            assert check_proportional(allocation, duals, "chore").ok
            light = count_light_pieces(allocation, duals)
            narrow = count_narrow_pieces(allocation)
            assert light >= math.ceil(n / 3), (seed, n, light)
            assert narrow <= Fraction(2 * n, 3), (seed, n, narrow)
            checked += 1
    assert checked == 20
    print("\nACCEPTANCE 6 PASS: light >= ceil(n/3) and narrow <= 2n/3 on 20 seeded instances")


def test_criterion_7_reduction_certificates():
    """The reduction pipeline returns >= ceil(n/3) exactly-verified heavy
    certificates for n in {9, 81, 243}, 10 seeds each."""
    for n in (9, 81, 243):
        floor = math.ceil(n / 3)
        for seed in range(10):
            vs = [
                random_dense_valuation(1 + (seed + i) % 8, BAND, seed=seed * 4447 + n + i)
                for i in range(n)
            ]
            report = reduction_pipeline(vs, even_paz)
            certificates = report.certificates
            assert len(certificates) >= floor, (n, seed, len(certificates))
            for player, piece in certificates:
                assert piece.width <= Fraction(1, n)
                assert vs[player].value_of_piece(piece) >= Fraction(1, 2 * n)
    print("\nACCEPTANCE 7 PASS: >= ceil(n/3) verified heavy certificates, n in {9,81,243} x 10 seeds")


def test_criterion_8_value_tree_structure():
    """At 3^11 leaves: children sum to the parent within 1e-12 relative, the
    density closed form matches the direct product within 1e-9, and no leaf
    density exceeds 2 + 1e-9.  Five seeds, under 30 s."""
    start = time.time()
    params = TreeParams.from_depth(11)
    for seed in range(5):
        tree = BalancedValueTree(params, seed=seed)
        max_density = 0.0
        for visit in tree.iter_nodes():
            if visit.is_leaf:
                density = math.exp(params.log_density(visit.h, visit.q))
                if density > max_density:
                    max_density = density
            else:
                children = sum(visit.value * params.label_values[k] for k in visit.label_kinds)
                assert abs(children - visit.value) <= 1e-12 * visit.value
            direct = visit.value * 3.0**visit.depth
            closed = math.exp(params.log_density(visit.h, visit.q))
            assert abs(direct - closed) <= 1e-9 * closed
        assert max_density <= 2 + 1e-9, (seed, max_density)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    print(f"\nACCEPTANCE 8 PASS: tree structure at n=3^11, 5 seeds ({elapsed:.1f}s)")


def test_criterion_9_heavy_run_floor_and_density_cap():
    """Exhaustive leaf signatures at depth 11 put every rich/critical leaf at
    h >= 2 > ln(n)/6 - 1; the low-heavy density cap increases in n and its
    limit matches 0.426 within 1e-3."""
    params = TreeParams.from_depth(11)
    floor = math.log(params.n) / 6 - 1
    assert abs(floor - 1.0141) < 1e-3
    profiles = leaf_profiles(params)
    assert profiles
    for profile in profiles:
        if profile.classification in ("rich", "critical"):
            assert profile.h >= 2 > floor, profile
    caps = [low_heavy_density_cap(k) for k in range(11, 201)]
    assert all(a < b for a, b in zip(caps, caps[1:])), "cap not increasing"
    assert abs(LOW_HEAVY_DENSITY_LIMIT - 0.426) < 1e-3
    # convergence is ~1/ln n, so demonstrate the limit at a genuinely large n
    assert abs(low_heavy_density_cap(20_000) - LOW_HEAVY_DENSITY_LIMIT) < 1e-3
    print("\nACCEPTANCE 9 PASS: rich/critical leaves need h >= 2; density cap increasing, limit ~0.426")


def test_criterion_10_adversary_invariants():
    """100 random query sequences at n=3^60: heavy-edge budget 2m after every
    query, connectivity, all-or-none reveals; 20 completions replay every
    transcript answer within 1e-9."""
    grid = 3**9
    rng = random.Random(1060)
    for trial in range(100):
        session = AdversarySession(TreeParams.from_depth(60))
        length = rng.randrange(1, 51)
        for _ in range(length):
            if rng.random() < 0.5:
                a, b = sorted(Fraction(rng.randrange(0, grid + 1), grid) for _ in range(2))
                session.answer_eval(a, b)
            else:
                x = Fraction(rng.randrange(0, grid + 1), grid)
                session.answer_cut(x, rng.random() * 1.2)
            assert session.max_revealed_heavy() <= 2 * session.m
            assert session.revealed_is_connected()
            assert all(len(kinds) == 3 for kinds in session.revealed.values())
        for fill_seed in range(20):
            completion = session.complete_labeling(seed=fill_seed)
            assert replay_transcript(session.log, completion, tol=1e-9)
    print("\nACCEPTANCE 10 PASS: adversary invariants + 20-completion replay, 100 sequences at 3^60")


def test_criterion_11_lower_bound_demonstration():
    """At n=3^60 every built-in finder limited to the threshold (4 queries)
    has its claim refuted by an explicit completion that is itself a valid
    labeling.  50 seeds per strategy, under 30 s."""
    start = time.time()
    params = TreeParams.from_depth(60)
    refuted = 0
    for name in sorted(STRATEGIES):
        for seed in range(50):
            report = run_heavy_piece_game(params, name, budget=4, seed=seed)
            assert report.queries_used <= 4
            assert report.refuted, (name, seed, report.outcome)
            outcome = report.outcome
            assert isinstance(outcome, Refutation)
            # built-in finders claim width-legal pieces, so the refutation
            # must rest on an explicit low-value completion
            assert outcome.violated == "value" and outcome.completion is not None
            verify_labeling(
                outcome.completion,
                paths=claim_leaves(outcome.claim, params),
                sample_count=5,
                sample_seed=seed,
            )
            refuted += 1
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    print(
        f"\nACCEPTANCE 11 PASS: {refuted} claims refuted within threshold at 3^60 ({elapsed:.1f}s)"
    )

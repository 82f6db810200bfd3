"""The four benchmark workloads.

Each workload makes its inputs from a seed with the library's own seeded
generators (``generate``), builds fresh library objects for one instance
outside the timed region (``prepare``), runs the instance as the CLI
command would, output encoding included (``run``), and checks the output
(``check``).  Only ``run`` is timed.

Fresh objects per instance keep any lazily built per-valuation state cold,
as it is for a CLI user; precomputation done at construction shows up in
``setup_s`` instead, through ``generate``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from fairslice import (
    AdversarySession,
    BalancedValueTree,
    DensityBounds,
    PiecewiseConstantValuation,
    QueryReferee,
    TreeParams,
    build_tree,
    check_proportional,
    even_paz,
    random_dense_valuation,
    reduction_pipeline,
    replay_transcript,
)

from bench_trace import TracedReferee, TracedStep, TracedTree, den_bits


@dataclass
class Outcome:
    """What one instance produced: its query count, the encoded report the
    CLI would print, the object whose log or transcript it wrote, problems
    found while it ran, and per-instance figures for the traced run."""

    queries: int
    report: str
    source: object
    problems: list[str] = field(default_factory=list)
    figures: dict = field(default_factory=dict)

    def log_lines(self) -> list[str]:
        if isinstance(self.source, QueryReferee):
            return self.source.log_lines()
        if isinstance(self.source, AdversarySession):
            return self.source.transcript_lines()
        return []


def even_paz_queries(n: int) -> int:
    """Exact Even-Paz query count for n players: one cut per player in
    every block of two or more, and one eval per player entering a
    sub-block of two or more.  It depends on n alone."""
    if n <= 1:
        return 0
    k = n // 2
    evals = (k if k > 1 else 0) + (n - k if n - k > 1 else 0)
    return n + evals + even_paz_queries(k) + even_paz_queries(n - k)


def fresh_step(v: PiecewiseConstantValuation, tracer) -> PiecewiseConstantValuation:
    if tracer.on:
        return TracedStep(v.breakpoints, v.densities, tracer)
    return PiecewiseConstantValuation(v.breakpoints, v.densities)


def fresh_tree(v: BalancedValueTree, tracer) -> BalancedValueTree:
    if tracer.on:
        return TracedTree(v.params, v.seed, tracer)
    return BalancedValueTree(v.params, v.seed)


def divide_report(mode: str, allocation, report, referee: QueryReferee) -> str:
    """The report ``fairslice divide --protocol even-paz`` prints."""
    payload = {
        "command": "divide",
        "protocol": "even-paz",
        "mode": mode,
        "n": referee.n_players,
        "allocation": allocation.to_json(),
        "proportionality": report.to_json(),
        "query_counts": {"total": referee.total, "per_player": list(referee.counts)},
    }
    return json.dumps(payload, indent=2) + "\n"


def run_divide(valuations, mode: str, tol, tracer) -> Outcome:
    referee = QueryReferee(valuations)
    view = TracedReferee(referee, tracer, "referee") if tracer.on else referee
    tracer.begin("protocols")
    allocation = even_paz(view, mode)
    tracer.end()
    tracer.begin("protocols.check")
    report = check_proportional(allocation, valuations, mode, tol=tol)
    tracer.end()
    tracer.begin("cli.report")
    text = divide_report(mode, allocation, report, referee)
    tracer.end()
    problems = [] if report.ok else [f"{mode} n={referee.n_players}: not proportional"]
    return Outcome(referee.total, text, referee, problems, {"front_queries": referee.total})


def check_divide(n: int, outcome: Outcome) -> list[str]:
    expected = even_paz_queries(n)
    if outcome.queries != expected:
        return [f"n={n}: {outcome.queries} queries, Even-Paz makes {expected}"]
    return []


class Workload:
    """One workload; ``query_span`` names the span of its protocol-facing
    queries, whose count the traced run checks against ``front_queries``."""

    name: str
    query_span: str = "referee"
    #: distinct passes generated; a run cycles through them
    passes = 4

    def generate(self, seed: int) -> list[list]:
        """Passes of instance inputs, all drawn from ``seed``.  Every pass
        makes the same number of queries, whatever the seed."""
        rng = random.Random(seed)
        return [self.generate_pass(rng) for _ in range(self.passes)]

    def generate_pass(self, rng: random.Random) -> list:
        raise NotImplementedError

    def prepare(self, spec, tracer):
        raise NotImplementedError

    def run(self, spec, inputs, tracer) -> Outcome:
        raise NotImplementedError

    def check(self, spec, outcome: Outcome) -> list[str]:
        return []


@dataclass(frozen=True)
class DivideSpec:
    n: int
    mode: str
    valuations: tuple


class StepSweep(Workload):
    """Even-Paz cake and chore over n = 3..243 on 6-segment step valuations.

    A pass holds every (n, mode) pair once, so the median instance is an
    n = 27 run and the tail an n = 243 run on every seed.
    """

    name = "step_sweep"
    ladder = (3, 9, 27, 81, 243)
    segments = 6
    bounds = DensityBounds(Fraction(1, 2), Fraction(2))

    passes = 3

    def generate_pass(self, rng: random.Random) -> list[DivideSpec]:
        specs = []
        for n in self.ladder:
            valuations = tuple(
                random_dense_valuation(self.segments, self.bounds, seed=rng.randrange(2**63))
                for _ in range(n)
            )
            for mode in ("cake", "chore"):
                specs.append(DivideSpec(n, mode, valuations))
        return specs

    def prepare(self, spec: DivideSpec, tracer):
        return [fresh_step(v, tracer) for v in spec.valuations]

    def run(self, spec: DivideSpec, inputs, tracer) -> Outcome:
        return run_divide(inputs, spec.mode, 0, tracer)

    def check(self, spec: DivideSpec, outcome: Outcome) -> list[str]:
        return check_divide(spec.n, outcome)


@dataclass(frozen=True)
class ReductionSpec:
    valuations: tuple


class ReductionWide(Workload):
    """``reduction_pipeline(vs, even_paz)`` on positive (0,2)-dense step
    valuations with 64 segments: every base query scans from segment 0."""

    name = "reduction_wide"
    query_span = "dual.query"
    n = 27
    segments = 64
    instances = 4
    bounds = DensityBounds(Fraction(0), Fraction(2))

    def generate_pass(self, rng: random.Random) -> list[ReductionSpec]:
        return [
            ReductionSpec(tuple(
                random_dense_valuation(self.segments, self.bounds, seed=rng.randrange(2**63))
                for _ in range(self.n)
            ))
            for _ in range(self.instances)
        ]

    def prepare(self, spec: ReductionSpec, tracer):
        return [fresh_step(v, tracer) for v in spec.valuations]

    def run(self, spec: ReductionSpec, inputs, tracer) -> Outcome:
        protocol: Callable = even_paz
        if tracer.on:
            def protocol(referee, mode):
                tracer.begin("protocols")
                try:
                    return even_paz(TracedReferee(referee, tracer, "dual.query"), mode)
                finally:
                    tracer.end()
        tracer.begin("dual.pipeline")
        report = reduction_pipeline(inputs, protocol)
        tracer.end()
        tracer.begin("cli.report")
        text = json.dumps({"command": "reduce", "protocol": "even-paz", **report.to_json()}, indent=2) + "\n"
        tracer.end()
        figures = {
            "front_queries": report.dual_queries,
            "base_protocol": report.base_queries_protocol,
            "certificate_ratio": len(report.certificates) / report.required_certificates,
        }
        return Outcome(report.base_queries_total, text, report, figures=figures)

    def check(self, spec: ReductionSpec, outcome: Outcome) -> list[str]:
        report = outcome.source
        n = report.n
        problems = []
        if len(report.certificates) < report.required_certificates:
            problems.append(f"{len(report.certificates)} certificates < ceil(n/3) = {report.required_certificates}")
        for player, piece in report.certificates:
            if piece.width > Fraction(1, n) or spec.valuations[player].value_of_piece(piece) < Fraction(1, 2 * n):
                problems.append(f"player {player}: certificate is not heavy")
        if report.base_queries_protocol != 2 * report.dual_queries:
            problems.append(
                f"base protocol queries {report.base_queries_protocol} != 2 x dual {report.dual_queries}"
            )
        if report.dual_queries != even_paz_queries(n):
            problems.append(f"{report.dual_queries} dual queries, Even-Paz makes {even_paz_queries(n)}")
        return problems


@dataclass(frozen=True)
class SessionSpec:
    queries: tuple
    completion_seeds: tuple


class Adversary3e60(Workload):
    """Adversary sessions at depth 60 with 1..50 mixed queries on a 3^9 grid.

    A pass plays every session length 1..50 once, in a seeded order, so the
    length mix (and the query count of a pass) is the same on every seed.
    """

    name = "adversary_3e60"
    query_span = "adversary.answer"
    grid = 3**9
    lengths = range(1, 51)
    completions = 3

    def __init__(self):
        self.params = TreeParams.from_depth(60)

    def generate_pass(self, rng: random.Random) -> list[SessionSpec]:
        lengths = list(self.lengths)
        rng.shuffle(lengths)
        specs = []
        for length in lengths:
            kinds = ["eval"] * (length // 2) + ["cut"] * (length - length // 2)
            rng.shuffle(kinds)
            queries = []
            for kind in kinds:
                if kind == "eval":
                    a, b = sorted(Fraction(rng.randrange(0, self.grid + 1), self.grid) for _ in range(2))
                    queries.append(("eval", a, b))
                else:
                    x = Fraction(rng.randrange(0, self.grid + 1), self.grid)
                    queries.append(("cut", x, rng.random() * 1.2))
            seeds = tuple(rng.randrange(2**32) for _ in range(self.completions))
            specs.append(SessionSpec(tuple(queries), seeds))
        return specs

    def prepare(self, spec: SessionSpec, tracer):
        return AdversarySession(self.params)

    def run(self, spec: SessionSpec, session: AdversarySession, tracer) -> Outcome:
        problems = []
        trace = []
        for kind, a, b in spec.queries:
            tracer.begin("adversary.answer")
            if kind == "eval":
                session.answer_eval(a, b)
            else:
                session.answer_cut(a, b)
            tracer.end()
            tracer.begin("adversary.trace")
            heavy = session.max_revealed_heavy()
            tracer.end()
            trace.append(heavy)
            if heavy > 2 * session.m:
                problems.append(f"{heavy} revealed heavy edges on a path after {session.m} queries")
        tracer.begin("adversary.check")
        connected = session.revealed_is_connected()
        tracer.end()
        if not connected:
            problems.append("revealed nodes are not connected")
        for seed in spec.completion_seeds:
            tracer.begin("adversary.complete")
            completion = session.complete_labeling(seed=seed)
            tracer.end()
            tracer.begin("valuetree.replay")
            replay_transcript(session.log, completion, tol=1e-9)
            tracer.end()
        tracer.begin("cli.report")
        text = json.dumps(
            {"transcript": session.transcript_lines(), "max_revealed_heavy_trace": trace}, indent=2
        ) + "\n"
        tracer.end()
        figures = {
            "front_queries": session.m,
            "reveals": sum(len(rec.reveals) for rec in session.log),
            "revealed_nodes": len(session.revealed),
            "replayed": len(session.log) * len(spec.completion_seeds),
            "den_bits": max(
                (den_bits(rec.answer) for rec in session.log if rec.kind == "cut" and rec.answer is not None),
                default=0,
            ),
        }
        return Outcome(session.m, text, session, problems, figures)

    def check(self, spec: SessionSpec, outcome: Outcome) -> list[str]:
        if outcome.queries != len(spec.queries):
            return [f"session counted {outcome.queries} queries, {len(spec.queries)} were asked"]
        return []


@dataclass(frozen=True)
class TreeSpec:
    trees: tuple


class TreeDivide3e60(Workload):
    """Even-Paz cake mode on n = 27 hashed value trees at depth 60."""

    name = "tree_divide_3e60"
    n = 27
    instances = 4

    def generate_pass(self, rng: random.Random) -> list[TreeSpec]:
        params = TreeParams.from_depth(60)
        return [
            TreeSpec(tuple(build_tree(params, rng.randrange(2**63)) for _ in range(self.n)))
            for _ in range(self.instances)
        ]

    def prepare(self, spec: TreeSpec, tracer):
        return [fresh_tree(v, tracer) for v in spec.trees]

    def run(self, spec: TreeSpec, inputs, tracer) -> Outcome:
        return run_divide(inputs, "cake", 1e-9, tracer)

    def check(self, spec: TreeSpec, outcome: Outcome) -> list[str]:
        return check_divide(self.n, outcome)


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (StepSweep, ReductionWide, Adversary3e60, TreeDivide3e60)
}

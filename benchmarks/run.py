"""Layered benchmark for fairslice.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload step_sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

One workload runs per process, as a closed loop: one caller, no threads,
the next instance starting when the previous one has finished.  ``all``
runs every workload in its own process, one after another, and prints a
table of every metric with its unit, ``failed_frac`` included.

A run sets up several times (a fresh-interpreter import of ``fairslice``
plus input generation) and reports the median as ``setup_s``.  It then
runs one untimed warm-up instance, collects garbage, and times whole
passes over the generated instances until ``--seconds`` have gone by.
Every instance's output is checked; a repeat of an instance must give the
same query count and report as its first run.  ``queries_total`` is the
query count of one pass; for the seeds in ``record.json`` it must equal
the recorded count exactly.

Times are reported at a reference machine speed.  On a shared host the
interpreter's speed changes by a third from one second to the next and
from one minute to the next, which no amount of work within one run
averages out.  So the run times ``calibration_kernel``, fixed work on the
standard library alone, right before and right after every instance and
every set-up, and scales that instance's time by ``KERNEL_REF_S`` over the
mean of the two kernel times.  Per-layer times are scaled by the traced
passes' overall factor.  The ``info`` line before the result gives the
unscaled figures.

With ``--trace 1`` untraced and traced passes alternate (see ``measure``
and ``bench_trace.py``); the run prints the per-layer metrics and writes
the raw spans to ``.bench_traces/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 7
#: a run times whole passes until --seconds are up and it has this many instances
MIN_INSTANCES = 40

#: reference speed: times are reported as if ``calibration_kernel`` took 1 ms
KERNEL_REF_S = 1.0e-3
#: units of time-valued per-layer metrics, with the power of the speed factor they scale by
TIME_UNITS = {"s": 1, "ms": 1, "us": 1, "1/s": -1}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fairslice; print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no BENCHMARK.json)."""


def load_library():
    """Import fairslice from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "fairslice" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no fairslice source at {init}")
    sys.path.insert(0, str(SRC))
    import fairslice

    if Path(fairslice.__file__).resolve() != init.resolve():
        raise BenchError(f"imported fairslice from {fairslice.__file__}, not {init}")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path}")
    with open(path) as fp:
        return json.load(fp)


def load_record() -> dict:
    with open(HERE / "record.json") as fp:
        return json.load(fp)


def run_info() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def import_seconds() -> float:
    """Time of ``import fairslice`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def calibration_kernel() -> int:
    """Fixed work on the standard library only, about 1 ms: rational
    arithmetic and tuple-keyed dict stores, like fairslice's own hot paths.
    Its time moves with the machine's speed and never with fairslice."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 400):
        total += Fraction(1, i)
        seen[(i, i % 7)] = total
    return len(seen)


def kernel_seconds() -> float:
    """The kernel's time with the cyclic collector off, so that the heap the
    workload left behind does not enter it."""
    gc.disable()
    try:
        t0 = perf_counter()
        calibration_kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def at_reference(elapsed: float, kernel_before: float, kernel_after: float) -> float:
    return elapsed * 2 * KERNEL_REF_S / (kernel_before + kernel_after)


def calibrated(work) -> tuple[float, float]:
    """Run ``work()``; return its time at the reference speed and as measured."""
    before = kernel_seconds()
    t0 = perf_counter()
    work()
    elapsed = perf_counter() - t0
    return at_reference(elapsed, before, kernel_seconds()), elapsed


class Phase:
    """Timings (at the reference speed and as measured), failures and
    outcome figures of whole passes over the instances."""

    def __init__(self):
        self.attempted = 0
        self.times: list[float] = []
        self.measured: list[float] = []
        self.failed = 0
        self.passes = 0
        self.pass_queries: list[int] = []
        self.figures: list[dict] = []

    @property
    def instances(self) -> int:
        return len(self.times)

    def rate(self) -> float:
        return len(self.times) / sum(self.times)

    def speed_factor(self) -> float:
        """Reference-speed time over measured time, across the whole phase."""
        return sum(self.times) / sum(self.measured)

    def total(self, key: str) -> float:
        return sum(f.get(key, 0) for f in self.figures)


def run_pass(workload, specs: list, p: int, tracer, phase: Phase, refs: dict) -> None:
    queries = 0
    for i, spec in enumerate(specs):
        inputs = workload.prepare(spec, tracer)
        tracer.instance += 1
        phase.attempted += 1
        outcomes = []

        def instance():
            tracer.begin("instance")
            outcomes.append(workload.run(spec, inputs, tracer))
            tracer.end()

        try:
            scaled, measured = calibrated(instance)
        except Exception:  # an instance that raises is a failed instance
            tracer.abandon()
            phase.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        phase.times.append(scaled)
        phase.measured.append(measured)
        outcome = outcomes[0]
        problems = outcome.problems + workload.check(spec, outcome)
        output = (outcome.queries, hashlib.blake2b(outcome.report.encode()).digest())
        if refs.setdefault((p, i), output) != output:
            problems.append("output differs from the first run of this instance")
        if problems:
            phase.failed += 1
            print(f"{workload.name} pass {p} instance {i}: {'; '.join(problems)}", file=sys.stderr)
        queries += outcome.queries
        phase.figures.append(outcome.figures)
    phase.passes += 1
    phase.pass_queries.append(queries)


def measure(workload, passes: list, tracers: list, seconds: float) -> list[Phase]:
    """Whole passes, one per tracer in turn, until ``seconds`` are up.

    With an untraced and a traced tracer the two alternate pass by pass
    over the same instances, so machine speed drift cancels out of
    ``trace_overhead`` and every traced output is checked against the
    untraced one."""
    phases = [Phase() for _ in tracers]
    refs: dict = {}
    start = perf_counter()
    for k in itertools.count():
        for tracer, phase in zip(tracers, phases):
            run_pass(workload, passes[k % len(passes)], k % len(passes), tracer, phase, refs)
        if perf_counter() - start >= seconds and all(ph.instances >= MIN_INSTANCES for ph in phases):
            return phases


def timings(times: list[float], setups: list[float]) -> dict:
    times = sorted(times)
    return {
        "setup_s": statistics.median(setups),
        "instances_per_s": len(times) / sum(times),
        "instance_ms_p50": statistics.median(times) * 1e3,
        "instance_ms_tail": times[max(len(times) - 11, 0)] * 1e3,
    }


def end_to_end(phase: Phase, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    metrics = {
        **timings(phase.times, [at_reference for at_reference, _ in setups]),
        "queries_total": phase.pass_queries[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(phase.times)
    info = {
        "samples": n,
        "tail_percentile": 100 * (max(n - 11, 0) + 1) / n,
        "passes": phase.passes,
        "measured": timings(phase.measured, [measured for _, measured in setups]),
    }
    return metrics, info


def per_layer(tracer, untraced: Phase, traced: Phase, imports, gens) -> dict:
    tr = tracer
    passes = traced.passes
    instances = traced.instances

    def per_call_us(*names):
        calls = sum(tr.count(name) for name in names)
        return sum(tr.self_ns(name) for name in names) / calls / 1e3 if calls else 0.0

    dual_queries = tr.count("dual.query")
    pipeline_ns = tr.inclusive_ns("dual.pipeline")
    replayed = traced.total("replayed")
    sessions = sum(1 for f in traced.figures if "revealed_nodes" in f)
    return {
        "valuation.step.eval_calls": tr.count("valuation.step.eval") // passes,
        "valuation.step.cut_calls": tr.count("valuation.step.cut") // passes,
        "valuation.step.query_us": per_call_us("valuation.step.eval", "valuation.step.cut"),
        "valuation.generate_s": statistics.median(gens),
        "valuation.answer_den_bits_max": tr.maxima.get("valuation.answer_den_bits_max", 0),
        "referee.queries": sum(traced.pass_queries) // passes,
        "referee.overhead_us": per_call_us("referee"),
        "protocols.self_s": tr.self_ns("protocols") / instances / 1e9,
        "protocols.check_s": tr.inclusive_ns("protocols.check") / instances / 1e9,
        "dual.queries": dual_queries // passes,
        "dual.base_per_dual": traced.total("base_protocol") / dual_queries if dual_queries else 0,
        "dual.self_us": per_call_us("dual.query"),
        "dual.verify_s": (pipeline_ns - tr.inclusive_ns("protocols")) / instances / 1e9 if pipeline_ns else 0.0,
        "dual.certificate_ratio": traced.total("certificate_ratio") / instances,
        "valuetree.eval_us": per_call_us("valuetree.eval"),
        "valuetree.cut_us": per_call_us("valuetree.cut"),
        "valuetree.replay_query_us": tr.inclusive_ns("valuetree.replay") / replayed / 1e3 if replayed else 0.0,
        "valuetree.answer_den_bits_max": max(
            tr.maxima.get("valuetree.answer_den_bits_max", 0),
            max((f.get("den_bits", 0) for f in traced.figures), default=0),
        ),
        "adversary.answer_us": per_call_us("adversary.answer"),
        "adversary.trace_us": per_call_us("adversary.trace"),
        "adversary.complete_us": per_call_us("adversary.complete"),
        "adversary.reveals_per_query": (
            traced.total("reveals") / traced.total("front_queries") if sessions else 0.0
        ),
        "adversary.revealed_nodes": traced.total("revealed_nodes") / sessions if sessions else 0.0,
        "cli.import_s": statistics.median(imports),
        "cli.report_us": tr.inclusive_ns("cli.report") / instances / 1e3,
        "unattributed_s": tr.self_ns("instance") / instances / 1e9,
        "trace_overhead": traced.rate() / untraced.rate(),
    }


def trace_problems(workload, tracer, untraced: Phase, traced: Phase) -> list[str]:
    """The traced run must issue exactly the queries the untraced run did."""
    problems = []
    if set(traced.pass_queries) != {untraced.pass_queries[0]}:
        problems.append(f"traced pass queries {traced.pass_queries} != untraced {untraced.pass_queries[0]}")
    spans, front = tracer.count(workload.query_span), traced.total("front_queries")
    if spans != front:
        problems.append(f"{spans} {workload.query_span} spans for {front} protocol-facing queries")
    return problems


def layer_shares(tracer) -> dict:
    total = tracer.inclusive_ns("instance")
    return {layer: round(ns / total, 4) for layer, ns in sorted(tracer.layer_self_ns().items())}


def write_spans(workload_name: str, seed: int, tracer, info: dict) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload_name}-seed{seed}.json"
    with open(path, "w") as fp:
        json.dump(
            {
                "info": info,
                "fields": ["id", "parent", "instance", "name", "start_ns", "end_ns"],
                "spans": tracer.spans,
                "stats": {name: {"count": c, "inclusive_ns": i, "self_ns": s} for name, (c, i, s) in tracer.stats.items()},
            },
            fp,
        )
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    from bench_trace import NullTracer, Tracer
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[name]()
    imports, gens, setups = [], [], []
    for _ in range(SETUP_REPEATS):
        before = kernel_seconds()
        imports.append(import_seconds())
        t0 = perf_counter()
        passes = workload.generate(seed)
        gens.append(perf_counter() - t0)
        elapsed = imports[-1] + gens[-1]
        setups.append((at_reference(elapsed, before, kernel_seconds()), elapsed))

    null = NullTracer()
    first = passes[0][0]
    workload.run(first, workload.prepare(first, null), null)
    gc.collect()
    gc.freeze()

    tracers = [null, Tracer()] if trace else [null]
    phases = measure(workload, passes, tracers, seconds)
    untraced = phases[0]
    metrics, info = end_to_end(untraced, setups)
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), **run_info(), **info}
    problems = []
    if len(set(untraced.pass_queries)) != 1:
        problems.append(f"passes differ in query count: {untraced.pass_queries}")
    expected = load_record()["queries_total"].get(name, {}).get(str(seed))
    if expected is not None and expected != metrics["queries_total"]:
        problems.append(f"queries_total {metrics['queries_total']} != recorded {expected} for seed {seed}")
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    if trace:
        tracer, traced = tracers[1], phases[1]
        problems += trace_problems(workload, tracer, untraced, traced)
        factor = traced.speed_factor()
        measured = per_layer(tracer, untraced, traced, imports, gens)
        metrics = {
            m: value * factor ** TIME_UNITS[units[m]] if units[m] in TIME_UNITS else value
            for m, value in measured.items()
        }
        info.update(speed_factor=factor, measured=measured, layer_shares=layer_shares(tracer))
        info["spans_file"] = str(write_spans(name, seed, tracer, info).relative_to(ROOT))
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in names},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool, spec: dict) -> int:
    """Every workload in its own process, one after another, then a table."""
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"{name} {line}")
        results[name] = json.loads(lines[-1])
    print()
    for name, result in results.items():
        print(f"== {name}  correct={result['correct']}  attempted={result['attempted']}  failed={result['failed']}")
        print(f"   {'failed_frac':32} {result['failed'] / result['attempted']:>16.6g} ratio")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:32} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: record.json's)")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        load_library()
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    seed = load_record()["default_seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(seed, seconds, bool(args.trace), spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, seed, seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())

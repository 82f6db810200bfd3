"""The traced run answers exactly as the untraced run does.

For every workload, a sample of instances runs once with plain library
objects and once with the timing subclasses and proxies; query logs,
session transcripts, reports and query counts must be identical.

    python3 -m pytest benchmarks/test_trace_equivalence.py -q
"""

import pytest

import run

run.load_library()

from fairslice import DensityBounds, QueryReferee, even_paz, random_dense_valuation  # noqa: E402

from bench_trace import NullTracer, Tracer  # noqa: E402
from bench_workloads import WORKLOADS, even_paz_queries  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_instances_match_untraced(name):
    workload = WORKLOADS[name]()
    for spec in workload.generate(seed=3)[0][::3]:
        null = NullTracer()
        plain = workload.run(spec, workload.prepare(spec, null), null)
        tracer = Tracer()
        traced = workload.run(spec, workload.prepare(spec, tracer), tracer)
        assert traced.report == plain.report
        assert traced.log_lines() == plain.log_lines()
        assert traced.queries == plain.queries
        assert not plain.problems and not workload.check(spec, plain)
        assert tracer.count(workload.query_span) == traced.figures["front_queries"] > 0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 27, 100])
def test_even_paz_query_count_matches_the_referee(n):
    valuations = [random_dense_valuation(3, DensityBounds(0, 2), seed=n * 31 + i) for i in range(n)]
    for mode in ("cake", "chore"):
        referee = QueryReferee(valuations)
        even_paz(referee, mode)
        assert referee.total == even_paz_queries(n)

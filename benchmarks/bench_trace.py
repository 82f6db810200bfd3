"""Spans recorded from outside the library, around calls into its modules.

Nothing here patches ``fairslice``: the traced run hands the library
timing subclasses and proxies through its public arguments (valuation
lists, the referee given to a protocol, the protocol given to
``reduction_pipeline``).  Subclasses keep the library's ``isinstance``
checks passing and delegate every call to the parent class, so traced and
untraced runs produce the same logs, transcripts and reports.

A span's layer is the part of its name before the first dot; its self
time is its duration minus the durations of its child spans.  Spans are
aggregated as they end, and the first ``keep`` raw spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

from time import perf_counter_ns

from fairslice import BalancedValueTree, PiecewiseConstantValuation


class NullTracer:
    """The untraced run: span calls are no-ops."""

    on = False
    instance = 0

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def abandon(self) -> None:
        pass


class Tracer:
    """Aggregates spans per name: count, inclusive and self nanoseconds."""

    on = True

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.instance = 0
        self.stats: dict[str, list[int]] = {}
        self.maxima: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, perf_counter_ns(), 0, self._next_id])

    def end(self) -> None:
        now = perf_counter_ns()
        name, start, child_ns, span_id = self._stack.pop()
        duration = now - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_ns
        if len(self.spans) < self.keep:
            self.spans.append(
                (span_id, parent[3] if parent else 0, self.instance, name, start, now)
            )

    def abandon(self) -> None:
        """Drop spans left open by an instance that raised."""
        while self._stack:
            self.end()

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def count(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def inclusive_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[1]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[2]

    def layer_self_ns(self) -> dict[str, int]:
        layers: dict[str, int] = {}
        for name, (_, _, self_ns) in self.stats.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + self_ns
        return layers


class TracedStep(PiecewiseConstantValuation):
    """A step valuation whose eval/cut calls are spans of the valuation layer."""

    def __init__(self, breakpoints, densities, tracer: Tracer):
        super().__init__(breakpoints, densities)
        self._tracer = tracer

    def eval(self, x, y):
        tracer = self._tracer
        tracer.begin("valuation.step.eval")
        try:
            return super().eval(x, y)
        finally:
            tracer.end()

    def cut(self, x, r):
        tracer = self._tracer
        tracer.begin("valuation.step.cut")
        try:
            answer = super().cut(x, r)
            if answer is not None:
                tracer.note_max("valuation.answer_den_bits_max", answer.denominator.bit_length())
            return answer
        finally:
            tracer.end()


class TracedTree(BalancedValueTree):
    """A hashed value tree whose eval/cut calls are spans of the valuetree layer."""

    def __init__(self, params, seed: int, tracer: Tracer):
        super().__init__(params, seed)
        self._tracer = tracer

    def eval(self, x, y):
        tracer = self._tracer
        tracer.begin("valuetree.eval")
        try:
            return super().eval(x, y)
        finally:
            tracer.end()

    def cut(self, x, r):
        tracer = self._tracer
        tracer.begin("valuetree.cut")
        try:
            answer = super().cut(x, r)
            if answer is not None:
                tracer.note_max("valuetree.answer_den_bits_max", den_bits(answer))
            return answer
        finally:
            tracer.end()


class TracedReferee:
    """The referee as a protocol sees it, with each query a span named ``span``.

    Protocols read only ``n_players``, ``eval`` and ``cut``; the wrapped
    referee still counts and logs every query itself.
    """

    def __init__(self, referee, tracer: Tracer, span: str):
        self._referee = referee
        self._tracer = tracer
        self._span = span

    @property
    def n_players(self) -> int:
        return self._referee.n_players

    def eval(self, player, x, y):
        self._tracer.begin(self._span)
        try:
            return self._referee.eval(player, x, y)
        finally:
            self._tracer.end()

    def cut(self, player, x, r):
        self._tracer.begin(self._span)
        try:
            return self._referee.cut(player, x, r)
        finally:
            self._tracer.end()


def den_bits(position) -> int:
    """Bit length of the denominator of a position, a Fraction or a float."""
    if isinstance(position, float):
        return position.as_integer_ratio()[1].bit_length()
    return position.denominator.bit_length()

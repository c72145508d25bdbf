"""Spans around the benchmark's calls into each jugglechain layer.

A span records one call (or one loop of calls to the same function) made
from the benchmark's own files: its name, start, end, the round it belongs
to, the span that caused it, and how many units of work it covered.  Coin
flips are not spans: a counting wrapper around the flip source adds each
flip's count and time to the innermost open span.  Spans stay in memory
and are written out when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

NULL_SPAN = nullcontext()


@dataclass
class Span:
    round: int
    id: int
    parent: Optional[int]
    name: str
    units: int
    start_ns: int = 0
    end_ns: int = 0
    coins: int = 0
    coin_ns: int = 0

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class LayerTotals:
    """Everything the spans of one name add up to."""

    calls: int = 0
    units: int = 0
    ns: int = 0
    self_ns: int = 0  # ns minus child spans minus coin time
    coins: int = 0
    coin_ns: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = 0
        self._open: list[Span] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, units: int = 0):
        parent = self._open[-1].id if self._open else None
        s = Span(self.round, self._next_id, parent, name, units)
        self._next_id += 1
        self._open.append(s)
        s.start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            s.end_ns = time.perf_counter_ns()
            self._open.pop()
            self.spans.append(s)

    def add_coin(self, elapsed_ns: int) -> None:
        if self._open:
            top = self._open[-1]
            top.coins += 1
            top.coin_ns += elapsed_ns

    def totals(self) -> dict[str, LayerTotals]:
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.ns
        out: dict[str, LayerTotals] = {}
        for s in self.spans:
            t = out.setdefault(s.name, LayerTotals())
            t.calls += 1
            t.units += s.units
            t.ns += s.ns
            t.self_ns += s.ns - child_ns.get(s.id, 0) - s.coin_ns
            t.coins += s.coins
            t.coin_ns += s.coin_ns
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


class CountingFlips:
    """A FlipSource that times and counts every flip of the source it wraps,
    charging them to the tracer's innermost open span."""

    def __init__(self, source, tracer: Tracer) -> None:
        self._source = source
        self._tracer = tracer
        self.seed = getattr(source, "seed", -1)

    def heads(self, probability) -> bool:
        t0 = time.perf_counter_ns()
        out = self._source.heads(probability)
        self._tracer.add_coin(time.perf_counter_ns() - t0)
        return out

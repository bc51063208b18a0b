"""The benchmark's own arithmetic: spans, self time and the tail rule.

Nothing here imports lch, so these functions can be tested without it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

TAIL_BEYOND = 10


@dataclass(frozen=True)
class Span:
    """One timed call: `name` is "<layer>.<call>", items are "bench.item"."""

    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in the same list
    item: str


class Tracer:
    """Times calls into the program from outside it.

    Disabled, `call` is a plain call.  Enabled, every call becomes a span
    whose parent is the innermost open span, and `count` adds to named
    counters.  Spans stay in memory until the caller collects them.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Optional[Span]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._item = ""

    def _open(self, name: str) -> tuple[int, str, float]:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, name, time.perf_counter()

    def _close(self, opened: tuple[int, str, float]) -> None:
        end = time.perf_counter()
        index, name, start = opened
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = Span(name, start, end, parent, self._item)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        opened = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(opened)

    @contextmanager
    def item(self, item_id: str):
        if not self.enabled:
            yield
            return
        self._item = item_id
        opened = self._open("bench.item")
        try:
            yield
        finally:
            self._close(opened)
            self._item = ""

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals inside the parent is subtracted.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        pieces = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                        for c in children[i])
        covered = 0.0
        reach = s.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer, the layer being the name's first part."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def call_totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed duration and number of calls per span name."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        seconds[s.name] = seconds.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
    return seconds, calls


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile with ten samples beyond.

    With n samples sorted ascending, the value at rank n - 10 has exactly
    ten samples ranked above it, and it is the percentile 100 (n - 10) / n
    by the nearest-rank rule.  Below twenty samples that would fall under
    the median, so the median is returned instead, with the smaller count
    of samples beyond it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = max(n - TAIL_BEYOND, math.ceil(n / 2))
    ordered = sorted(samples)
    return ordered[rank - 1], 100.0 * rank / n, n - rank

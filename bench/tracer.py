"""In-memory spans and counters for one traced benchmark operation.

A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the index
of the enclosing span (-1 at the top).  Spans stay in memory; the benchmark
reduces them to per-layer numbers when the operation ends.  Nothing here
knows about sdemodulus: ``layers.py`` decides which calls become spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    """Records nested spans and named counts for a single thread."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    def begin(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        self.spans[i][1] = self.clock()
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = self.clock()
        if not self._stack or self._stack.pop() != i:
            raise RuntimeError(f"span {self.spans[i][0]!r} closed out of order")


def covered_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, s, e, parent in spans:
        if parent >= 0:
            children[parent].append((s, e))
    return [(e - s) - covered_length(children[i], s, e) for i, (_, s, e, _) in enumerate(spans)]


def summarize(spans) -> dict:
    """Per span name: ``calls``, ``busy_ns`` and ``self_ns``.

    ``busy_ns`` sums the durations of the outermost spans of that name only,
    so a name nested inside itself is not counted twice.
    """
    selfs = self_times(spans)
    out: dict = {}
    for i, (name, s, e, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["self_ns"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["busy_ns"] += e - s
    return out

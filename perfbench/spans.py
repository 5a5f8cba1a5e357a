"""In-memory span recorder and the self-time reduction over its spans.

A span is recorded around each call the benchmark makes into a layer of
``qrollout``, and around the benchmark's own passes and jobs.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
part of it that its child spans cover.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    job: str | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Records spans when enabled; when disabled, ``span`` only runs its block.

    ``span`` yields a dict in which the caller stores the counts of the work
    the span did (computed from the call's inputs and results).  The dict is
    kept with the span, so counts sit at the same boundary as the times.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.job: str | None = None
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), parent, name, self.job, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp.counts
        finally:
            sp.end = time.perf_counter()
            self._open.pop()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Map span id to its duration minus the union of its children's
    intervals, each clipped to the parent."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for lo, hi in sorted(children[sp.id]):
            lo, hi = max(lo, reach), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def descendants(spans: list[Span], root: int) -> list[Span]:
    """The span ``root`` and every span below it (spans are in start order)."""
    inside = {root}
    out = []
    for sp in spans:
        if sp.id == root or sp.parent in inside:
            inside.add(sp.id)
            out.append(sp)
    return out

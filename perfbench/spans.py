"""In-memory spans around calls into qaspectral's public functions.

A span is (name, start, end, parent, op, same_inputs).  Children are
not nested in time: after a call returns, the public calls it is made
of are re-run on the same inputs as child spans, so a layer's self time
is its duration minus the durations of its children.  Children that
stand in for inputs a parent generates internally carry
same_inputs=False: they come from the same distribution, not the same
draws.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    same_inputs: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []

    def run(self, name, fn, *args, children=None, same_inputs=True, **kwargs):
        """Time fn(*args, **kwargs) as a span; then run children(result) beneath it."""
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            same_inputs = same_inputs and self.spans[parent].same_inputs
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append(Span(name, start, end, parent, self.op, same_inputs))
        if children is not None:
            self._stack.append(len(self.spans) - 1)
            try:
                children(out)
            finally:
                self._stack.pop()
        return out

    def layers(self) -> dict:
        """Per span name: calls, busy_s (sum of durations), self_s."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "same_inputs": True})
        for i, s in enumerate(self.spans):
            row = out[s.name]
            row["calls"] += 1
            row["busy_s"] += s.duration
            row["self_s"] += s.duration - child_time[i]
            row["same_inputs"] = row["same_inputs"] and s.same_inputs
        return dict(out)

    def write(self, path) -> None:
        payload = {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}
        path.write_text(json.dumps(payload) + "\n")

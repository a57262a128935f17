"""Benchmark-side spans: the per-layer numbers are measured from outside.

The traced pass wraps every call it makes into a layer's public
function in a span (name, start, end, parent, unit id). Spans stay in
memory and are written once, when the run ends. A span's self time is
its duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median


class SpanLog:
    """An append-only list of nested timed spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.unit = 0  # spans of one replayed unit share this id

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else -1,
            "unit": self.unit,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def timed(self, name: str, fn, reps: int = 1):
        """Run ``fn`` ``reps`` times, one span each; last result returned."""
        result = None
        for _ in range(max(1, reps)):
            with self.span(name):
                result = fn()
        return result

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        ]

    def median_s(self, name: str) -> float:
        return median(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name (duration minus children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child):
            own = max(0.0, s["end"] - s["start"] - covered)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))

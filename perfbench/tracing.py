"""In-memory spans recorded around the benchmark's calls into gtool.

Spans are opened only from the benchmark's own files, one per call (or
per timed round of calls) into a gtool module, so the library itself
carries no instrumentation.  A span holds its name, start and end in
``perf_counter_ns`` units, its parent span, the job it belongs to, and
counts (pairs, probes, bytes) recorded at the same boundary.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, job: int | None = None, **counts):
        """Record one span; the yielded dict takes counts known only after."""
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "job": job,
               "parent": self._stack[-1] if self._stack else None,
               "start": 0, "end": 0, "counts": dict(counts)}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = perf_counter_ns()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = perf_counter_ns()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> list[int]:
        """Each span's duration minus the part its children cover."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def dump(self, path) -> None:
        out = [dict(s, self=st) for s, st in zip(self.spans, self.self_times())]
        with open(path, "w") as fh:
            json.dump({"unit": "ns", "spans": out}, fh)


class NullTracer:
    """Tracing off: every span is a no-op context."""

    def span(self, name: str, job: int | None = None, **counts):
        return nullcontext({})


def seconds(spans) -> float:
    """Summed duration of spans, in seconds."""
    return sum(s["end"] - s["start"] for s in spans) / 1e9

"""In-memory spans recorded around the benchmark's calls into ``repro``.

A span has a name, start, end, the span that caused it (the innermost open
span of the same thread) and, for an open-loop request, a request id.  A
layer's self time is its span's duration minus the part its child spans
cover.
With tracing off every method is a no-op, so the untraced run measures the
program alone and the difference between the two runs is the overhead.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: "list[dict]" = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def record(self, name: str, start: float, end: float, request_id: int) -> None:
        """Add a span timed elsewhere, such as a request's due-to-done time."""
        if not self.enabled:
            return
        with self._lock:
            self.spans.append({
                "id": len(self.spans), "name": name, "parent": None,
                "thread": None, "start": start,
                "end": end, "request_id": request_id,
            })

    def self_times(self) -> "dict[int, float]":
        """Self time of every closed span, by span id."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans if "end" in s}
        for s in self.spans:
            if s["parent"] is not None and s["id"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_seconds(self, name: str) -> float:
        """Median self time of one ``name`` span; 0 when the workload never
        calls that layer."""
        own = self.self_times()
        times = [own[s["id"]] for s in self.spans if s["name"] == name and s["id"] in own]
        return statistics.median(times) if times else 0.0

    def dump(self, path) -> None:
        """Write the spans out once the run has ended."""
        with open(path, "w") as handle:
            json.dump(self.spans, handle)

"""In-memory span log for the traced pass.

Spans are ``(name, start, end, parent, trace_id)``, recorded by the
benchmark's own files around each call into a layer, kept in a list and
written to ``spans.jsonl`` when the run ends.  One trace id covers one
epoch, one publish or one request.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanLog:
    """Append-only span list; a span's id is its index."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.rows: list[list] = []   # [name, start, end, parent, trace_id]

    def begin(self, name: str, parent: "int | None" = None,
              trace_id: "str | None" = None) -> int:
        self.rows.append([name, self.clock(), None, parent, trace_id])
        return len(self.rows) - 1

    def end(self, span_id: int) -> None:
        self.rows[span_id][2] = self.clock()

    def add(self, name: str, start: float, end: float,
            parent: "int | None" = None, trace_id: "str | None" = None) -> int:
        """Record a span measured elsewhere (worker rings, latency lists)."""
        self.rows.append([name, start, end, parent, trace_id])
        return len(self.rows) - 1

    @contextmanager
    def span(self, name: str, parent: "int | None" = None,
             trace_id: "str | None" = None):
        span_id = self.begin(name, parent, trace_id)
        try:
            yield span_id
        finally:
            self.end(span_id)

    # -- queries ---------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [r[2] - r[1] for r in self.rows if r[0] == name and r[2] is not None]

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        out = {
            i: r[2] - r[1] for i, r in enumerate(self.rows) if r[2] is not None
        }
        for r in self.rows:
            if r[2] is not None and r[3] in out:
                out[r[3]] -= r[2] - r[1]
        return out

    def write(self, path: str, origin: float = 0.0) -> None:
        """One JSON object per line; times in seconds since ``origin``."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, trace_id) in enumerate(self.rows):
                if end is None:
                    continue
                fh.write(json.dumps({
                    "id": i, "name": name,
                    "start": start - origin, "end": end - origin,
                    "parent": parent, "trace_id": trace_id,
                    "self": selfs[i],
                }) + "\n")

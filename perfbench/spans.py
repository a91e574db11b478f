"""In-memory spans for the traced run.

A span records a name, start, end, the span that caused it and the op it
belongs to.  Spans stay in memory and are written out once, when the run
ends.  A span's self time is its duration minus the time its child spans
cover; children of one span never overlap because the benchmark is a single
closed-loop client.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: int):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def busy_by_op(self, name: str) -> dict[int, float]:
        """Summed self time of the spans called ``name``, per op."""
        own = self.self_times()
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name:
                out[s["op"]] += own[s["id"]]
        return dict(out)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "self_s": self.self_times()}))

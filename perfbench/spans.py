"""In-memory spans for the traced run, and self time per module.

A span is opened around each benchmark operation and around each public call
the benchmark makes into cubecolor (or each CLI child it starts).  Spans are
named "<module>.<call>"; operation spans use the module "op".  The benchmark
is single-threaded, so child spans nest and never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    enabled = False

    def span(self, name: str, op_id: str | None = None):
        return nullcontext()


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, op_id: str | None = None):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op_id if op_id is not None else (parent["op"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_time_by_module(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed per module."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            module = s["name"].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (s["end"] - s["start"]) - child_time[s["id"]]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

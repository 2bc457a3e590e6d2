"""Spans recorded by the benchmark around its calls into each layer.

Spans live in memory and are written out when the run ends.  A span is
``{name, start, end, parent, op_id}``; the part of a name before the
first dot is the layer.  A layer's self time is its spans' duration
minus the part their child spans cover.  Spans *inside* ``src/`` are a
later change (ROADMAP item 4); everything here is measured from
outside.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: str):
        """Time the enclosed block as a child of the enclosing span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op_id": op_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, seconds: float, parent: int,
            op_id: str) -> int:
        """Record a span whose duration another process reported (the
        daemon's ``timing`` block, a PLINGER worker's busy time)."""
        self.spans.append({"name": name, "start": start,
                           "end": start + seconds, "parent": parent,
                           "op_id": op_id})
        return len(self.spans) - 1

    # -- accounting ---------------------------------------------------------

    def duration(self, index: int) -> float:
        s = self.spans[index]
        return s["end"] - s["start"]

    def self_seconds(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [self.duration(i) for i in range(len(self.spans))]
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                own[s["parent"]] -= self.duration(i)
        return own

    def _under(self, root_name: str) -> dict[int, int]:
        """span index -> index of its enclosing ``root_name`` span."""
        found: dict[int, int] = {}
        for i, s in enumerate(self.spans):
            if s["name"] == root_name:
                found[i] = i
            elif s["parent"] in found:  # parents precede their children
                found[i] = found[s["parent"]]
        return found

    def durations(self, name: str, under: str) -> list[float]:
        """Durations of the spans called ``name`` inside ``under`` spans."""
        inside = self._under(under)
        return [self.duration(i) for i in inside
                if self.spans[i]["name"] == name]

    def shares(self, root_name: str) -> tuple[dict[str, float], float]:
        """Per-layer share of the wall time under spans named
        ``root_name``, and the roots' own (unattributed) share."""
        own = self.self_seconds()
        inside = self._under(root_name)
        total = sum(self.duration(i) for i, r in inside.items() if i == r)
        layers: dict[str, float] = {}
        unattributed = 0.0
        for i, root in inside.items():
            if i == root:
                unattributed += own[i]
                continue
            layer = self.spans[i]["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own[i]
        return ({k: v / total for k, v in layers.items()},
                unattributed / total)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, indent=0)

"""In-memory spans for the traced run, and their reduction to self times.

A span is ``(name, start_ns, end_ns, parent, request_id)``; ``parent``
is the index of the enclosing span or ``None``.  Spans are recorded
from the benchmark's own code around calls into the program's layers
(nothing under ``src/`` is instrumented), kept in a list, written out
as JSON lines when the run ends, and reduced to per-name self times:
a span's duration minus the part its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from repro.util import format_table


class Tracer:
    """Collects spans in memory; nesting follows a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, rid=None):
        """Time the block as one span nested under the open span."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent, rid]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def record(self, name: str, start_ns: int, end_ns: int, rid=None) -> None:
        """Add one already-timed span under the open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start_ns, end_ns, parent, rid])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "rid": rid},
                    separators=(",", ":"),
                ) + "\n")

    def self_times(self, rid=None) -> Dict[str, dict]:
        """Per span name: ``calls`` and summed ``self_ns``, each span's
        duration minus the part its children cover.  With *rid*, only
        the spans of that request id."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Dict[str, dict] = {}
        for i, (name, start, end, _, span_rid) in enumerate(self.spans):
            if rid is not None and span_rid != rid:
                continue
            row = out.setdefault(name, {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += end - start - child_ns[i]
        return out


def mean_us(self_times: Dict[str, dict], name: str) -> float:
    """Mean self time of one span name in microseconds (0 if absent)."""
    row = self_times.get(name)
    return row["self_ns"] / row["calls"] / 1e3 if row else 0.0


def stage_table(title: str, rows: List[list], notes: Optional[List[str]] = None) -> str:
    """Render a stage table: ``[stage, layer, calls, mean_us, per_request_us]``
    rows, then one line per note (ratios with their bases, remainders)."""
    text = format_table(
        ["stage", "layer", "calls", "mean_us", "per_request_us"],
        [[s, layer, calls, round(mean, 3), round(per, 3)]
         for s, layer, calls, mean, per in rows],
        title=title,
    )
    if notes:
        text += "\n" + "\n".join(f"  {note}" for note in notes)
    return text

"""The benchmark's metrics, as ``BENCHMARK.json`` defines them.

End-to-end metrics are reported by every workload, each for the
operation that workload times (see ``perfbench/README.md``).  Per-layer
metrics come from the traced run; one that a workload does not exercise
reads 0 there.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END: List[str] = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER: List[str] = [m["name"] for m in SPEC["per_layer"]]
UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    report: List[str] = field(default_factory=list)
    tracer: Optional[object] = None  # the traced window's Tracer


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def metrics_block(values: Dict[str, float], names: List[str]) -> dict:
    """The result line's ``metrics`` object for *names* (missing -> 0)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]}
        for name in names
    }

"""Machine-readable export of telemetry snapshots.

``repro <cmd> --metrics-out m.json`` and the benchmark plumbing both
emit the payload produced here, so downstream tooling (and later PRs
diffing perf baselines) can rely on one format: ``repro-metrics/1``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import metrics as _global_metrics

__all__ = [
    "bench_payload",
    "git_sha",
    "metrics_payload",
    "write_bench_json",
    "write_metrics_json",
]


#: Per-process memo for :func:`git_sha`, keyed by cwd.  The SHA cannot
#: change under a running process in any workflow this repo has, and
#: ``bench_payload`` is called once per record — serve/loadgen bench
#: emission was shelling out to ``git rev-parse`` on every record.
_git_sha_cache: Dict[Optional[str], str] = {}


def git_sha(cwd: Optional[str] = None) -> str:
    """HEAD's SHA of the checkout holding the ``repro`` package (of
    *cwd* when given), or ``"unknown"`` outside a checkout.

    The default follows the program, not the caller's working
    directory, so a bench run from anywhere stamps the code it ran.
    Cached per ``(process, cwd)``: the first call shells out, every
    later call is a dict hit.
    """
    if cwd in _git_sha_cache:
        return _git_sha_cache[cwd]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd if cwd is not None else Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    else:
        sha = out.stdout.strip() if out.returncode == 0 else "unknown"
    _git_sha_cache[cwd] = sha
    return sha


def bench_payload(
    name: str,
    *,
    header=None,
    rows=None,
    table: Optional[str] = None,
    meta: Optional[Dict] = None,
    test: Optional[str] = None,
    unix_time: Optional[float] = None,
    cwd: Optional[str] = None,
) -> Dict:
    """A ``repro-bench/1`` record: the one shape every benchmark artifact
    uses (``benchmarks/results/*.json``, ``BENCH_serve.json``), so the
    perf trajectory stays diffable across PRs."""
    payload: Dict = {
        "format": "repro-bench/1",
        "name": name,
        "git_sha": git_sha(cwd=cwd),
    }
    if test is not None:
        payload["test"] = test
    if unix_time is not None:
        payload["unix_time"] = round(unix_time, 3)
    payload["header"] = header
    payload["rows"] = rows
    if table is not None:
        payload["table"] = table
    if meta:
        payload["meta"] = meta
    return payload


def write_bench_json(path, name: str, **kwargs) -> Dict:
    """Write :func:`bench_payload` to *path*; returns the payload."""
    payload = bench_payload(name, **kwargs)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=repr)
        handle.write("\n")
    return payload


def metrics_payload(
    registry: Optional[MetricsRegistry] = None,
    extra: Optional[Dict] = None,
) -> Dict:
    """JSON-serializable snapshot of *registry* (the global one by default)."""
    registry = registry if registry is not None else _global_metrics
    payload: Dict = {"format": "repro-metrics/1"}
    if extra:
        payload.update(extra)
    payload["metrics"] = registry.snapshot()
    return payload


def write_metrics_json(
    path,
    registry: Optional[MetricsRegistry] = None,
    extra: Optional[Dict] = None,
) -> Dict:
    """Write :func:`metrics_payload` to *path*; returns the payload."""
    payload = metrics_payload(registry, extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=repr)
        handle.write("\n")
    return payload

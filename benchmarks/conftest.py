"""Shared benchmark plumbing.

Every experiment bench prints its paper-style table (visible with
``pytest -s``) and persists it twice under ``benchmarks/results/``:

* ``<name>.txt`` — the rendered table, diff-friendly, as before;
* ``<name>.json`` — a structured ``repro-bench/1`` record (header +
  rows + git SHA + wall-clock) so the perf trajectory is
  machine-readable and future PRs can diff against a baseline.

At session end, every bench test that ran is merged into
``BENCH_baseline.json`` at the repo root: its entry (wall-clock,
outcome, git SHA) replaces any earlier one of the same test, and
entries of tests that did not run are kept as they were.
EXPERIMENTS.md is the curated record of one run of these benches.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.obs import git_sha
from repro.obs.export import bench_payload

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_baseline.json"

# nodeid -> wall-clock seconds for bench tests that ran this session.
_BENCH_DURATIONS = {}


@pytest.fixture
def record_table(request):
    """Print a rendered table and persist it (txt + json) under
    benchmarks/results/.

    ``rows``/``header`` are optional structured copies of the table
    contents; pass them so the JSON record carries real values instead
    of only the rendered text.
    """

    def _record(name: str, table: str, rows=None, header=None, meta=None) -> None:
        print()
        print(table)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")
        payload = bench_payload(
            name,
            header=header,
            rows=rows,
            table=table,
            meta=meta,
            test=request.node.nodeid,
            unix_time=time.time(),
            cwd=str(REPO_ROOT),
        )
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=2, default=repr) + "\n"
        )

    return _record


def pytest_runtest_logreport(report):
    """Collect per-test wall-clock for the baseline aggregate."""
    if report.when == "call" and "benchmarks/" in report.nodeid.replace("\\", "/"):
        _BENCH_DURATIONS[report.nodeid] = {
            "seconds": round(report.duration, 4),
            "outcome": report.outcome,
        }


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's bench tests into BENCH_baseline.json."""
    if not _BENCH_DURATIONS:
        return
    experiments = {}
    if BASELINE_PATH.exists():
        experiments = json.loads(BASELINE_PATH.read_text())["experiments"]
    sha = git_sha(cwd=str(REPO_ROOT))
    for nodeid, entry in _BENCH_DURATIONS.items():
        experiments[nodeid] = {**entry, "git_sha": sha}
    payload = {
        "format": "repro-bench-baseline/1",
        "unix_time": round(time.time(), 3),
        "experiments": dict(sorted(experiments.items())),
        "total_seconds": round(
            sum(entry["seconds"] for entry in experiments.values()), 3
        ),
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def sample_pairs(graph, count: int, seed: int = 0):
    rng = random.Random(seed)
    vertices = sorted(graph.vertices(), key=repr)
    pairs = []
    while len(pairs) < count:
        u = vertices[rng.randrange(len(vertices))]
        v = vertices[rng.randrange(len(vertices))]
        if u != v:
            pairs.append((u, v))
    return pairs

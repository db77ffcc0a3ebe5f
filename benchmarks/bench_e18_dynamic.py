"""E18 — dynamic updates: incremental relabel vs from-scratch rebuild.

The claim behind `repro.dynamic`: an edge reweight invalidates only the
separator units whose paths contain the edge, so recomputing those
units is far cheaper than rebuilding every label — while producing the
*byte-identical* labeling (same tree, same entry order).  Shapes:

* per-family scaling (delaunay, partial 3-tree) up to n = 2048;
* mean incremental update cost vs one full ``build_labeling`` on the
  same fixed tree — the speedup must widen with n and clear 5x at the
  largest size, where it is the median of :data:`GATE_RUNS` runs (a
  single run moved by a third between runs on a shared host).  Each
  run times a full build before its updates and the byte-identity
  rebuild after them, and counts the cheaper of the two;
* update throughput (updates/s) and the touched-entry counts that
  explain it;
* at n = 2048, the same updates again with the per-labeling unit
  distance cache switched off (``nocache_ms``: every affected unit
  recomputes cold), which is what the cache is worth.

Persists the standing record to ``BENCH_dynamic.json`` at the repo
root (a ``repro-bench/1`` payload, like ``BENCH_serve.json``) next to
the usual ``benchmarks/results/e18_dynamic.*`` pair.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from repro.core import build_decomposition, build_labeling
from repro.core.serialize import dump_labeling
from repro.dynamic import EdgeUpdate, delta_to_dict, incremental_relabel
from repro.dynamic import rebuild
from repro.generators import k_tree, random_delaunay_graph
from repro.obs.export import write_bench_json
from repro.util import format_table

EPS = 0.25
UPDATES = 20
SIZES = (512, 2048)
#: Build/update runs per family at the largest size; the 5x gate reads
#: their median speedup.
GATE_RUNS = 3
FAMILIES = {
    "delaunay": lambda n: random_delaunay_graph(n, seed=n)[0],
    "ktree3": lambda n: k_tree(n, 3, seed=n)[0],
}
BENCH_OUT = Path(__file__).parent.parent / "BENCH_dynamic.json"


def reweight(rng: random.Random, graph) -> EdgeUpdate:
    edges = sorted(graph.edges(), key=repr)
    u, v, w = edges[rng.randrange(len(edges))]
    new_w = round(float(w) * rng.uniform(0.5, 2.0), 9)
    if new_w <= 0 or new_w == float(w):
        new_w = float(w) + 0.5
    return EdgeUpdate(u, v, new_w)


def relabel_sequence(family: str, n: int, seed: int):
    """Build one case from scratch and apply its reweight sequence:
    ``(graph, tree, labeling, full build seconds, per-update seconds,
    deltas in wire form)``."""
    graph = FAMILIES[family](n)
    tree = build_decomposition(graph)

    full_start = time.perf_counter()
    labeling = build_labeling(graph, tree, epsilon=EPS)
    full_s = time.perf_counter() - full_start

    rng = random.Random(seed)
    incr_s = []
    deltas = []
    for _ in range(UPDATES):
        update = reweight(rng, graph)
        start = time.perf_counter()
        delta = incremental_relabel(labeling, update)
        incr_s.append(time.perf_counter() - start)
        deltas.append(delta_to_dict(delta))
    return graph, tree, labeling, full_s, incr_s, deltas


def timed_run(family: str, n: int, monkeypatch, seed: int):
    """One build/update run.  The full build cost is the cheaper of the
    build before the updates and the byte-identity rebuild after them
    (same graph, same tree, post-update weights).  At the largest size
    the updates run again with the cache off."""
    graph, tree, labeling, build_s, incr_s, deltas = relabel_sequence(
        family, n, seed
    )
    rebuild_start = time.perf_counter()
    fresh = build_labeling(graph, tree, epsilon=EPS)
    rebuild_s = time.perf_counter() - rebuild_start
    identical = dump_labeling(labeling) == dump_labeling(fresh)

    nocache_s = None
    if n == max(SIZES):
        # A fresh, empty cache per update: every affected unit recomputes
        # cold.  The deltas must not depend on the cache.
        with monkeypatch.context() as patch:
            patch.setattr(
                rebuild, "_dist_cache", lambda labeling: rebuild._UnitDistCache()
            )
            _, _, _, _, cold_s, cold_deltas = relabel_sequence(family, n, seed)
        nocache_s = sum(cold_s) / len(cold_s)
        identical = identical and cold_deltas == deltas

    full_s = min(build_s, rebuild_s)
    mean_incr = sum(incr_s) / len(incr_s)
    return {
        "family": family,
        "n": n,
        "edges": graph.num_edges,
        "labels": len(labeling.labels),
        "full_s": full_s,
        "mean_incr_s": mean_incr,
        "mean_nocache_s": nocache_s,
        "speedup": full_s / mean_incr if mean_incr > 0 else float("inf"),
        "updates_per_s": 1.0 / mean_incr if mean_incr > 0 else float("inf"),
        "mean_touched_entries": sum(len(d["changes"]) + len(d["removals"])
                                    for d in deltas) / UPDATES,
        "mean_affected_units": sum(d["units"] for d in deltas) / UPDATES,
        "identical": identical,
    }


def run_case(family: str, n: int, monkeypatch, seed: int = 18):
    """The case's median run by speedup, carrying every run's speedup
    and whether every run was byte-identical."""
    runs = [
        timed_run(family, n, monkeypatch, seed)
        for _ in range(GATE_RUNS if n == max(SIZES) else 1)
    ]
    case = dict(sorted(runs, key=lambda c: c["speedup"])[len(runs) // 2])
    case["run_speedups"] = [c["speedup"] for c in runs]
    case["identical"] = all(c["identical"] for c in runs)
    return case


def test_e18_bench_dynamic(record_table, monkeypatch):
    cases = [
        run_case(family, n, monkeypatch)
        for family in sorted(FAMILIES)
        for n in SIZES
    ]
    header = [
        "family",
        "n",
        "full_ms",
        "incr_ms",
        "nocache_ms",
        "speedup",
        "upd/s",
        "entries",
        "units",
        "identical",
    ]
    rows = [
        [
            c["family"],
            c["n"],
            round(1e3 * c["full_s"], 2),
            round(1e3 * c["mean_incr_s"], 3),
            None
            if c["mean_nocache_s"] is None
            else round(1e3 * c["mean_nocache_s"], 3),
            round(c["speedup"], 1),
            round(c["updates_per_s"], 1),
            round(c["mean_touched_entries"], 1),
            round(c["mean_affected_units"], 1),
            c["identical"],
        ]
        for c in cases
    ]
    meta = {
        "epsilon": EPS,
        "updates_per_case": UPDATES,
        "sizes": list(SIZES),
        "gate_runs": GATE_RUNS,
        "cases": cases,
    }
    table = format_table(
        header,
        rows,
        title=f"E18: incremental relabel vs full rebuild "
        f"({UPDATES} reweights/case, eps={EPS})",
    )
    record_table("e18_dynamic", table, rows=rows, header=header, meta=meta)
    write_bench_json(
        BENCH_OUT,
        "dynamic",
        header=header,
        rows=rows,
        meta=meta,
        unix_time=time.time(),
        cwd=str(BENCH_OUT.parent),
    )
    # Acceptance gates: every run stayed byte-identical to the
    # from-scratch rebuild (and, at the largest size, gave the same
    # deltas without the cache), and at the largest size the median
    # run's incremental path is >= 5x cheaper than a full relabel.
    assert all(c["identical"] for c in cases), cases
    largest = [c for c in cases if c["n"] == max(SIZES)]
    for c in largest:
        assert c["speedup"] >= 5, (c["family"], c["speedup"])

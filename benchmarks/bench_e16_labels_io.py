"""E16 — label I/O: JSON (/1) vs packed binary (/2) footprint + startup.

The claim behind `repro.core.binfmt`: a serve node holding `/2` labels
opens its store in O(1) — map the file, read 80 bytes — where the `/1`
JSON path must parse every label before the first query.  Shapes to
verify on an E13-size labeling (delaunay n = 512):

* cold start: the mapped `ShardedLabelStore` open is >= 10x faster
  than the eager JSON parse of the same label set;
* first queries straight off the cold map answer byte-identically to
  the eager store (lazy decode changes latency, never bytes);
* footprint: bytes on disk per codec, mapped bytes, and the resident
  delta of parse-everything vs map-and-touch;
* what one cold label costs: the mean ``get_flat`` time per label off a
  freshly opened reader, and the ``estimate`` time per pair on a
  freshly opened mapped store, where every pair's two labels are
  decoded and combined for the first time (recorded, not gated).

Persists the standing record to ``BENCH_labels_io.json`` at the repo
root (a ``repro-bench/1`` payload, like ``BENCH_serve.json``) next to
the usual ``benchmarks/results/e16_labels_io.*`` pair.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core import build_decomposition, build_labeling
from repro.core.binfmt import BinaryLabelReader
from repro.core.serialize import dump_labeling, load_labeling
from repro.generators import random_delaunay_graph
from repro.obs.export import write_bench_json
from repro.obs.timeseries import process_rss_bytes
from repro.serve.store import ShardedLabelStore
from repro.util import format_table

N = 512
EPS = 0.25
NUM_SHARDS = 8
REPEATS = 5
QUERY_SAMPLE = 50
BENCH_OUT = Path(__file__).parent.parent / "BENCH_labels_io.json"


def build_remote():
    graph = random_delaunay_graph(N, seed=N)[0]
    labeling = build_labeling(graph, build_decomposition(graph), epsilon=EPS)
    return load_labeling(dump_labeling(labeling))


def _best_of(fn, repeats: int = REPEATS) -> float:
    """Min wall-clock over *repeats* runs: the least-noise estimator
    for a cold-start cost that has no warmup to amortize."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _cold_get_flat_us(bin_path: Path, vertices) -> float:
    """Best-of mean ``get_flat`` time per label, each label decoded
    once off a freshly opened reader."""

    def decode_all():
        with BinaryLabelReader(bin_path) as reader:
            for v in vertices:
                reader.get_flat(v)

    return 1e6 * _best_of(decode_all) / len(vertices)


def _first_touch_estimate_us(bin_path: Path, pairs) -> float:
    """Best-of ``estimate`` time per pair on a freshly opened mapped
    store; *pairs* share no vertex, so every label is touched first
    here.  The open itself is outside the clock."""
    best = float("inf")
    for _ in range(REPEATS):
        store = ShardedLabelStore.mapped(bin_path)
        start = time.perf_counter()
        for u, v in pairs:
            store.estimate(u, v)
        best = min(best, time.perf_counter() - start)
        store.close()
    return 1e6 * best / len(pairs)


def run_experiment(tmp_dir: Path):
    remote = build_remote()
    json_path = tmp_dir / "labels.json"
    bin_path = tmp_dir / "labels.bin"
    dump_labeling(remote, json_path)
    dump_labeling(remote, bin_path, codec="binary", num_shards=NUM_SHARDS)

    json_bytes = json_path.stat().st_size
    bin_bytes = bin_path.stat().st_size

    rss_before = process_rss_bytes()
    json_start = _best_of(lambda: ShardedLabelStore.load(json_path, NUM_SHARDS))
    rss_after_json = process_rss_bytes()
    bin_start = _best_of(lambda: ShardedLabelStore.mapped(bin_path).close())

    # Cold open + first queries: lazy decode must not change a byte.
    mapped = ShardedLabelStore.mapped(bin_path)
    eager = ShardedLabelStore.load(json_path, NUM_SHARDS)
    vertices = sorted(remote.vertices())
    sample = list(zip(vertices, reversed(vertices)))[:QUERY_SAMPLE]
    first_query_start = time.perf_counter()
    for u, v in sample:
        assert mapped.estimate(u, v) == eager.estimate(u, v)
    first_queries_s = time.perf_counter() - first_query_start
    rss_after_map = process_rss_bytes()
    cold_get_flat_us = _cold_get_flat_us(bin_path, vertices)
    # Every vertex once: half the vertices paired with the other half.
    cold_pairs = list(zip(vertices, reversed(vertices)))[: len(vertices) // 2]
    first_touch_us = _first_touch_estimate_us(bin_path, cold_pairs)

    speedup = json_start / bin_start if bin_start > 0 else float("inf")
    rows = [
        ["json /1", json_bytes, round(1e3 * json_start, 3), 0, "parse all"],
        [
            "binary /2",
            bin_bytes,
            round(1e3 * bin_start, 3),
            mapped.mapped_bytes,
            f"mmap, {speedup:.0f}x faster open",
        ],
    ]
    meta = {
        "n": N,
        "labels": remote.num_labels,
        "epsilon": EPS,
        "num_shards": NUM_SHARDS,
        "bytes_on_disk": {"json": json_bytes, "binary": bin_bytes},
        "startup_s": {"json": json_start, "binary": bin_start},
        "startup_speedup": round(speedup, 1),
        "mapped_bytes": mapped.mapped_bytes,
        "first_queries": {
            "count": len(sample),
            "seconds": round(first_queries_s, 6),
        },
        "cold_label": {
            "get_flat_us_per_label": round(cold_get_flat_us, 2),
            "labels": len(vertices),
            "first_touch_estimate_us_per_pair": round(first_touch_us, 2),
            "pairs": len(cold_pairs),
        },
        "rss_bytes": {
            "before": rss_before,
            "after_json_parse": rss_after_json,
            "after_map_and_queries": rss_after_map,
        },
    }
    mapped.close()
    return rows, meta


def test_e16_bench_labels_io(record_table, tmp_path):
    rows, meta = run_experiment(tmp_path)
    header = ["codec", "bytes", "open_ms", "mapped_bytes", "note"]
    table = format_table(
        header,
        rows,
        title=f"E16: label store cold start, delaunay n={N} "
        f"({meta['labels']} labels, eps={EPS})",
    )
    record_table("e16_labels_io", table, rows=rows, header=header, meta=meta)
    write_bench_json(
        BENCH_OUT,
        "labels_io",
        header=header,
        rows=rows,
        meta=meta,
        unix_time=time.time(),
        cwd=str(BENCH_OUT.parent),
    )
    # The acceptance gate: a serve node opens a /2 store >= 10x faster
    # than parsing the same labels from /1 JSON.
    assert meta["startup_speedup"] >= 10, meta["startup_s"]
    # Lazy decode answered every sampled query identically (asserted
    # in run_experiment) and the map covers the whole file.
    assert meta["mapped_bytes"] == meta["bytes_on_disk"]["binary"]

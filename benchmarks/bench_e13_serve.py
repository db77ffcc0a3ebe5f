"""E13 — the serving layer: QPS and latency of the asyncio query service.

Shapes to verify:
* a single server process sustains thousands of closed-loop QPS on
  one-label-pair DIST requests;
* batching (BATCH) amortizes protocol overhead: per-pair latency
  drops as the batch grows;
* the LRU pair cache lifts QPS on repeated (Zipf-ish) workloads
  without changing a single answer (the loadgen verifies estimates
  against the offline labels on every run).
"""

from __future__ import annotations

import asyncio

from repro.core import build_decomposition, build_labeling
from repro.core.serialize import dump_labeling, load_labeling
from repro.generators import random_delaunay_graph
from repro.serve import (
    OracleServer,
    ShardedLabelStore,
    StoreCatalog,
    run_loadgen,
    synthesize_pairs,
)
from repro.util import format_table

N = 512
QUERIES = 600
CONCURRENCY = 8
EPS = 0.25


def build_remote():
    graph = random_delaunay_graph(N, seed=N)[0]
    labeling = build_labeling(graph, build_decomposition(graph), epsilon=EPS)
    return load_labeling(dump_labeling(labeling))


def run_experiment():
    remote = build_remote()
    pairs = synthesize_pairs(list(remote.vertices()), QUERIES, seed=13)
    # Repeat a small hot set so the cache configuration has hits to serve.
    hot = pairs[:25] * (QUERIES // 25)

    configs = [
        ("dist c=8", dict(cache=0), dict(batch=1), pairs),
        ("dist c=8 cache=4k", dict(cache=4096), dict(batch=1), hot),
        ("batch=16 c=8", dict(cache=0), dict(batch=16), pairs),
        ("batch=64 c=8", dict(cache=0), dict(batch=64), pairs),
    ]

    async def measure(server_opts, client_opts, workload):
        catalog = StoreCatalog()
        catalog.add(ShardedLabelStore.from_remote("bench", remote))
        server = OracleServer(
            catalog, port=0, cache_size=server_opts["cache"]
        )
        await server.start()
        # Warm up connections + cache, then measure.
        await run_loadgen(
            "127.0.0.1", server.port, workload[:50],
            concurrency=CONCURRENCY, **client_opts,
        )
        report = await run_loadgen(
            "127.0.0.1", server.port, workload,
            concurrency=CONCURRENCY, verify=remote, **client_opts,
        )
        await server.shutdown()
        return report

    rows = []
    for name, server_opts, client_opts, workload in configs:
        report = asyncio.run(measure(server_opts, client_opts, workload))
        assert report.errors == 0, report.error_samples
        assert report.mismatches == 0, report.error_samples
        rows.append(
            [
                name,
                report.ok,
                round(report.qps),
                round(report.latency_ms(50), 3),
                round(report.latency_ms(90), 3),
                round(report.latency_ms(99), 3),
            ]
        )
    return rows


def test_e13_bench_serve(record_table):
    rows = run_experiment()
    header = ["config", "queries", "qps", "p50_ms", "p90_ms", "p99_ms"]
    table = format_table(
        header,
        rows,
        title=f"E13: serving layer on delaunay n={N} ({QUERIES} queries, "
        f"{CONCURRENCY} connections)",
    )
    record_table(
        "e13_serve", table, rows=rows, header=header,
        meta={"n": N, "queries": QUERIES, "concurrency": CONCURRENCY},
    )
    qps = {row[0]: row[2] for row in rows}
    # Batching must beat single-DIST throughput (per-request overhead
    # is amortized over 16+ pairs).
    assert qps["batch=16 c=8"] > qps["dist c=8"]

"""A BATCH at or above ``BATCH_KERNEL_PAIRS`` is combined in one kernel call.

``OracleServer._batch`` resolves every pair's labels inside the pair's
own ``serve.estimate`` span, then combines all resolved pairs with one
``flat_estimate_many`` call.  The same request stream — BATCHes with a
repeated pair, a vertex paired with itself and an unknown vertex, on a
``/1`` store and on a churned ``/2`` store — must give the reply bytes,
the STATS cache counters, the pair cache's final entries and order,
and the span tree of the per-pair path (the kernel threshold raised
past every batch), with the pair cache off, small and large, traced
and untraced.
"""

import asyncio
import json
import random

import pytest

from repro.core import build_decomposition, build_labeling
from repro.core.binfmt import write_labeling_binary
from repro.core.serialize import dump_labeling, encode_vertex, load_labeling
from repro.generators import grid_2d
from repro.obs import CollectingSink, use_sink
from repro.serve import OracleServer, ShardedLabelStore, StoreCatalog
from repro.serve import server as server_mod

from tests.serve.conftest import rpc


@pytest.fixture(scope="module")
def labels_bin(tmp_path_factory):
    graph = grid_2d(8, weight_range=(1.0, 5.0), seed=4)
    labeling = build_labeling(graph, build_decomposition(graph), epsilon=0.25)
    path = tmp_path_factory.mktemp("kernel") / "grid.bin"
    write_labeling_binary(labeling, path, num_shards=4)
    return labeling, path


def stream(vertices):
    rng = random.Random(5)
    requests = []
    for i, store in enumerate(["json", "bin", "json"]):
        pairs = [
            [encode_vertex(rng.choice(vertices)), encode_vertex(rng.choice(vertices))]
            for _ in range(40)
        ]
        pairs[4] = pairs[7] = pairs[3]  # repeated inside the batch ...
        pairs[30] = pairs[3]  # ... and again once a small cache evicted it
        pairs[11] = [pairs[11][0], pairs[11][0]]  # a vertex with itself
        pairs[20] = [pairs[20][0], encode_vertex((99, 99))]  # unknown vertex
        requests.append({"id": i, "op": "BATCH", "store": store, "pairs": pairs})
    first = requests[0]["pairs"]
    requests.append({"id": 9, "op": "BATCH", "store": "json", "pairs": first})
    u, v = first[3]
    requests.append({"id": 10, "op": "DIST", "store": "json", "u": u, "v": v})
    requests.append({"id": 11, "op": "STATS"})
    return requests


def serve(labels_bin, cache_size, kernel_pairs, monkeypatch):
    labeling, path = labels_bin
    monkeypatch.setattr(server_mod, "BATCH_KERNEL_PAIRS", kernel_pairs)
    catalog = StoreCatalog()
    catalog.add(ShardedLabelStore.from_remote(
        "json", load_labeling(dump_labeling(labeling)), num_shards=4
    ))
    # A decode cache smaller than the file: churned labels, as batch-mmap.
    catalog.add(ShardedLabelStore.mapped(path, name="bin", label_cache=8))

    async def main():
        server = OracleServer(catalog, port=0, cache_size=cache_size)
        await server.start()
        try:
            replies = await rpc(server.port, stream(list(labeling.labels)))
            return replies, list(server.cache._data.items())
        finally:
            await server.shutdown()

    try:
        return asyncio.run(main())
    finally:
        for store in catalog:
            store.close()


def span_names(node):
    return [node.name, node.error, [span_names(child) for child in node.children]]


@pytest.mark.parametrize("cache_size", [0, 3, 1024])
@pytest.mark.parametrize("traced", [False, True])
def test_kernel_batches_answer_like_per_pair_batches(
    labels_bin, cache_size, traced, monkeypatch
):
    runs = []
    for kernel_pairs in (server_mod.BATCH_KERNEL_PAIRS, 10**9):
        collector = CollectingSink()
        if traced:
            with use_sink(collector):
                replies, cache = serve(labels_bin, cache_size, kernel_pairs, monkeypatch)
        else:
            replies, cache = serve(labels_bin, cache_size, kernel_pairs, monkeypatch)
        roots = [span_names(root) for root in collector.roots]
        runs.append((replies, cache, roots))
    (kernel, kernel_cache, kernel_spans), (per_pair, per_pair_cache, per_pair_spans) = runs

    assert kernel[:-1] == per_pair[:-1]
    stats = [json.loads(line) for line in (kernel[-1], per_pair[-1])]
    for key in ("cache", "counters"):
        assert stats[0][key] == stats[1][key]
    assert [(k, repr(v)) for k, v in kernel_cache] == [
        (k, repr(v)) for k, v in per_pair_cache
    ]
    assert all(type(v) is float for _, v in kernel_cache)
    assert kernel_spans == per_pair_spans
    if traced:
        batch = kernel_spans[0]
        estimates = [c for c in batch[2] if c[0] == "serve.estimate"]
        assert ["serve.estimate", "GraphError", []] in estimates

    batch = json.loads(kernel[0])
    assert batch["ok"] and len(batch["results"]) == 40
    results = batch["results"]
    assert results[20]["ok"] is False
    assert results[20]["error"]["code"] == "unknown_vertex"
    assert results[11] == {"ok": True, "estimate": 0.0}
    assert results[3] == results[4] == results[7] == results[30]
    counters = stats[0]["counters"]
    if cache_size:
        assert counters["cache_hits"] > 0
    else:
        assert counters["cache_hits"] == counters["cache_misses"] == 0

"""Differential test wall: every production path equals the dict reference.

The reference is the dict build of ``tests/reference_labeling.py``:
every unit through ``batched_dijkstra`` and ``epsilon_cover_portals_at``
as ``(vertex, key, portals)`` triples, merged into one ``VertexLabel``
dict per vertex, and combined by ``dict_estimate``.  An update is
applied to it by a from-scratch rebuild.  Against that reference, byte
for byte (the reference dumps through ``ReferenceLabeling.flat``):

* construction — the production build's ``dump_labeling`` JSON text
  and packed ``/2`` blob, across **all five separator engines**, serial
  and parallel;
* estimates — ``flat_estimate`` over the production labels, on every
  pair;
* deltas — each production delta, replayed onto the reference's labels
  from before the update, gives the rebuilt reference labels;
* serving — DIST and BATCH reply *lines* of a server over the one
  store (JSON codec, mmap'd binary codec, and a cluster node's view
  over shard packs) must equal lines encoded from the reference
  estimates, before and after deltas pushed through the DELTA op.

This wall runs unconditionally: numpy/scipy are required, so nothing
here can skip.
"""

import asyncio
import copy
import json
import random

import pytest

from repro.cluster.files import split_labels
from repro.cluster.map import ClusterMap, ClusterNodeState, store_name_for_shard
from repro.core import (
    CenterBagEngine,
    GreedyPeelingEngine,
    StrongGreedyEngine,
    TreeCentroidEngine,
    build_decomposition,
    build_labeling,
    dump_labeling,
    flat_estimate,
    load_labeling,
)
from repro.core import flat_build
from repro.core.binfmt import pack_labeling
from repro.dynamic import incremental_relabel
from repro.dynamic.rebuild import delta_from_dict, delta_to_dict
from repro.generators import (
    grid_2d,
    k_tree,
    random_delaunay_graph,
    random_planar_graph,
    random_tree,
)
from repro.planar import PlanarCycleEngine
from repro.serve import OracleServer, ShardedLabelStore, StoreCatalog
from repro.serve.loadgen import synthesize_pairs
from repro.serve.protocol import encode_response, estimate_field, ok_response

from tests.dynamic.test_rebuild import random_reweight
from tests.serve.conftest import rpc
from tests.reference_labeling import (
    apply_delta_to_dict_labels,
    dict_estimate,
    reference_build_labeling,
    reference_relabel,
)
from tests.serve.test_server import wire

# One graph family per engine, matched to what the engine is for:
# greedy peeling likes bounded-degree meshes, center-bag needs a
# chordal-ish k-tree, the centroid engine requires a tree, strong
# greedy eats dense-ish grids, and the planar engine planar graphs.
ENGINE_CASES = [
    pytest.param(
        lambda: random_delaunay_graph(36, seed=3)[0],
        lambda: GreedyPeelingEngine(seed=7),
        id="delaunay-greedy",
    ),
    pytest.param(
        lambda: k_tree(36, 3, seed=1)[0],
        lambda: CenterBagEngine(order="min_degree"),
        id="ktree-centerbag",
    ),
    pytest.param(
        lambda: random_tree(40, weight_range=(1.0, 3.0), seed=2),
        lambda: TreeCentroidEngine(),
        id="tree-centroid",
    ),
    pytest.param(
        lambda: grid_2d(6, weight_range=(1.0, 5.0), seed=4),
        lambda: StrongGreedyEngine(seed=5),
        id="grid-stronggreedy",
    ),
    pytest.param(
        lambda: random_planar_graph(36, seed=6),
        lambda: PlanarCycleEngine(),
        id="planar-planarcycle",
    ),
]

EPSILON = 0.25


def reference_labeling(graph, tree, epsilon=EPSILON):
    return reference_build_labeling(graph, tree, epsilon=epsilon)


def _build_pair(make_graph, make_engine, epsilon=EPSILON):
    """The production labeling and the reference labeling of one
    (graph, tree), each over its own copy so relabels stay independent."""
    graph = make_graph()
    tree = build_decomposition(graph, engine=make_engine())
    ref_graph, ref_tree = copy.deepcopy((graph, tree))
    ref = reference_labeling(ref_graph, ref_tree, epsilon)
    prod = build_labeling(graph, tree, epsilon=epsilon)
    return graph, tree, ref, prod


def reference_lines(ref, pairs):
    """The DIST lines then the BATCH line a server must send for
    :func:`query_requests`, encoded from the reference estimates."""
    labels = ref.labels
    fields = [
        estimate_field(dict_estimate(labels[u], labels[v]))
        for u, v in pairs
    ]
    lines = [
        encode_response(
            ok_response(i, {"op": "DIST", "epsilon": ref.epsilon, **f})
        )
        for i, f in enumerate(fields)
    ]
    batch = {
        "op": "BATCH",
        "epsilon": ref.epsilon,
        "results": [{"ok": True, **f} for f in fields],
    }
    lines.append(encode_response(ok_response(len(pairs), batch)))
    return lines


def query_requests(pairs):
    requests = [
        {"id": i, "op": "DIST", "u": wire(u), "v": wire(v)}
        for i, (u, v) in enumerate(pairs)
    ]
    requests.append(
        {
            "id": len(pairs),
            "op": "BATCH",
            "pairs": [[wire(u), wire(v)] for u, v in pairs],
        }
    )
    return requests


def wall_pairs(vertices, count, seed):
    """Sampled pairs plus their reversals, so the pair cache (on in
    every wall server) sees both orders of each pair."""
    pairs = synthesize_pairs(list(vertices), count, seed=seed)
    return pairs + [(v, u) for u, v in pairs]


def serve_steps(catalog, steps, cluster=None):
    """Reply lines for each request list in *steps*, all sent to one
    server (pair cache on) over fresh connections, in order."""

    async def main():
        server = OracleServer(catalog, port=0, cache_size=64, cluster=cluster)
        await server.start()
        try:
            return [await rpc(server.port, requests) for requests in steps]
        finally:
            await server.shutdown()

    return asyncio.run(main())


def catalog_of(store):
    catalog = StoreCatalog()
    catalog.add(store)
    return catalog


def updates_in_lockstep(prod, ref, count, seed):
    """Apply *count* random reweights to both labelings; yields the
    production delta (epoch-stamped) after each one, having checked
    that it turns the reference's old labels into its rebuilt ones."""
    rng = random.Random(seed)
    for epoch in range(1, count + 1):
        update = random_reweight(rng, prod.graph)
        delta = incremental_relabel(prod, update)
        replayed = reference_relabel(ref, update)
        apply_delta_to_dict_labels(replayed, delta_from_dict(delta_to_dict(delta)))
        assert list(replayed) == list(ref.labels)
        for v, label in ref.labels.items():
            assert list(replayed[v].entries.items()) == list(
                label.entries.items()
            ), v
        assert dump_labeling(prod) == dump_labeling(ref.flat())
        delta.epoch = epoch
        yield delta


def delta_request(delta, request_id):
    return {
        "id": request_id,
        "op": "DELTA",
        "action": "apply",
        "delta": delta_to_dict(delta),
    }


def assert_lines_match_reference_through_deltas(
    catalog, prod, ref, pairs, updates=3, seed=29, cluster=None
):
    """One server over *catalog*: query, then (DELTA, query) *updates*
    times; every query stage must equal the reference lines."""
    steps, expected = [query_requests(pairs)], [reference_lines(ref, pairs)]
    for delta in updates_in_lockstep(prod, ref, updates, seed):
        steps.append([delta_request(delta, f"delta-{delta.epoch}")])
        expected.append(delta.epoch)
        steps.append(query_requests(pairs))
        expected.append(reference_lines(ref, pairs))
    replies = serve_steps(catalog, steps, cluster=cluster)
    for got, want in zip(replies, expected):
        if isinstance(want, int):
            reply = json.loads(got[0])
            assert reply["ok"] and reply["applied"], reply
            assert reply["epoch"] == want
        else:
            assert got == want
            for line in got:
                assert json.loads(line)["ok"] is True


def test_flat_backend_is_available_here():
    # The wall's no-skip guarantee: numpy and scipy are hard imports of
    # the build kernels, so a missing dependency fails at import time
    # instead of silently degrading anything.
    import numpy
    import scipy.sparse.csgraph

    assert flat_build._np is numpy
    assert flat_build._csgraph_dijkstra is scipy.sparse.csgraph.dijkstra


class TestConstructionByteIdentity:
    @pytest.mark.parametrize("make_graph, make_engine", ENGINE_CASES)
    def test_json_and_binary_dumps_identical(self, make_graph, make_engine):
        _, _, ref, prod = _build_pair(make_graph, make_engine)
        assert dump_labeling(prod) == dump_labeling(ref.flat())
        for num_shards in (1, 4):
            assert pack_labeling(prod, num_shards=num_shards) == pack_labeling(
                ref.flat(), num_shards=num_shards
            )

    @pytest.mark.parametrize("make_graph, make_engine", ENGINE_CASES)
    def test_parallel_flat_build_identical(self, make_graph, make_engine):
        graph, tree, ref, _ = _build_pair(make_graph, make_engine)
        par = build_labeling(graph, tree, epsilon=EPSILON, parallel=2)
        assert dump_labeling(par) == dump_labeling(ref.flat())

    @pytest.mark.parametrize("make_graph, make_engine", ENGINE_CASES)
    def test_estimates_bit_equal_on_all_pairs(self, make_graph, make_engine):
        graph, _, ref, prod = _build_pair(make_graph, make_engine)
        flats = prod.labels
        verts = sorted(graph.vertices(), key=repr)
        for u in verts:
            for v in verts:
                a = dict_estimate(ref.labels[u], ref.labels[v])
                b = flat_estimate(flats[u], flats[v])
                # Bitwise: repr distinguishes every finite float, and
                # inf == inf covers the unreachable case.
                assert repr(a) == repr(b), (u, v, a, b)


class TestServedByteIdentity:
    @pytest.mark.parametrize("make_graph, make_engine", ENGINE_CASES)
    def test_dist_and_batch_lines_identical_json_codec(
        self, make_graph, make_engine
    ):
        graph, _, ref, prod = _build_pair(make_graph, make_engine)
        store = ShardedLabelStore.from_remote(
            "wall", load_labeling(dump_labeling(prod)), num_shards=4
        )
        pairs = wall_pairs(graph.vertices(), 16, seed=21)
        [lines] = serve_steps(catalog_of(store), [query_requests(pairs)])
        assert lines == reference_lines(ref, pairs)

    @pytest.mark.parametrize("make_graph, make_engine", ENGINE_CASES)
    def test_dist_and_batch_lines_identical_binary_codec(
        self, make_graph, make_engine, tmp_path
    ):
        graph, _, ref, prod = _build_pair(make_graph, make_engine)
        path = tmp_path / "labels.bin"
        dump_labeling(prod, path, codec="binary", num_shards=4)
        store = ShardedLabelStore.load(path, name="wall")
        pairs = wall_pairs(graph.vertices(), 16, seed=22)
        try:
            [lines] = serve_steps(catalog_of(store), [query_requests(pairs)])
        finally:
            store.close()
        assert lines == reference_lines(ref, pairs)

    def test_cluster_view_lines_match_reference(self, tmp_path):
        # One node of a two-node, unreplicated cluster: its view spans
        # only the shard packs it owns, so queries stay on owned
        # vertices and each DELTA applies only the node's slice.
        graph, _, ref, prod = _build_pair(
            lambda: grid_2d(6, weight_range=(1.0, 5.0), seed=8),
            lambda: GreedyPeelingEngine(seed=3),
        )
        labels_path = tmp_path / "labels.json"
        dump_labeling(prod, labels_path)
        cluster_map = ClusterMap.build(
            ["n0", "n1"], num_shards=8, replication=1, seed=0,
            epsilon=EPSILON,
        )
        packs = split_labels(labels_path, tmp_path, cluster_map)
        owned = frozenset(cluster_map.shards_of_node("n0"))
        catalog = StoreCatalog()
        for shard in sorted(owned):
            catalog.add(ShardedLabelStore.load(
                packs[shard], name=store_name_for_shard(shard)
            ))
        state = ClusterNodeState(node_id="n0", map=cluster_map, owned=owned)
        mine = sorted(
            (v for v in graph.vertices() if cluster_map.shard_of(v) in owned),
            key=repr,
        )
        assert 2 <= len(mine) < graph.num_vertices
        try:
            assert_lines_match_reference_through_deltas(
                catalog, prod, ref, wall_pairs(mine, 12, seed=24),
                cluster=state,
            )
        finally:
            for store in catalog:
                store.close()


class TestDeltaByteIdentity:
    @pytest.mark.parametrize("make_graph, make_engine", ENGINE_CASES)
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_delta_application_keeps_stores_identical(
        self, make_graph, make_engine, codec, tmp_path
    ):
        graph, _, ref, prod = _build_pair(make_graph, make_engine)
        path = tmp_path / f"labels.{codec}"
        dump_labeling(prod, path, codec=codec, num_shards=4)
        store = ShardedLabelStore.load(path, num_shards=4, name="wall")
        pairs = wall_pairs(graph.vertices(), 10, seed=23)
        try:
            assert_lines_match_reference_through_deltas(
                catalog_of(store), prod, ref, pairs
            )
        finally:
            store.close()

    def test_mapped_store_overlay_deltas_identical(self, tmp_path):
        graph, _, ref, prod = _build_pair(
            lambda: grid_2d(5, weight_range=(1.0, 5.0), seed=9),
            lambda: GreedyPeelingEngine(seed=1),
        )
        path = tmp_path / "labels.bin"
        dump_labeling(prod, path, codec="binary", num_shards=4)
        store = ShardedLabelStore.load(path, name="wall")
        pairs = synthesize_pairs(sorted(graph.vertices()), 20, seed=31)
        try:
            for delta in updates_in_lockstep(prod, ref, 3, seed=41):
                store.apply_delta(delta)
                for u, v in pairs:
                    a = store.estimate(u, v)
                    b = dict_estimate(ref.labels[u], ref.labels[v])
                    assert repr(a) == repr(b), (u, v, a, b)
            # The overlay holds exactly the rewritten labels, and every
            # label (overlay or mmap) reads back as the reference's.
            for v, label in ref.labels.items():
                assert store.flat_label(v).entries() == label.entries
            assert store.total_words == sum(
                label.words for label in ref.labels.values()
            )
        finally:
            store.close()

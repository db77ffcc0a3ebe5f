"""Label deltas across a cluster: per-node slicing in
:class:`ClusterStoreView` and the client-side DELTA fan-out.

The pusher sends the *same* whole-graph delta to every node; each node
applies only the entries whose vertex routes to a shard it owns and
counts the rest as skipped.  With N nodes and replication R, every
touched entry lands on exactly R nodes — the view tests below check
that conservation law directly, and the fan-out tests check the live
path: all nodes advance together, a dead node is reported (not papered
over), and post-push answers match the updated labeling byte-exactly.
"""

import asyncio
import random

import pytest

from repro.cluster.client import ClusterClient
from repro.cluster.map import ClusterMap, ClusterNodeState
from repro.core import build_decomposition, build_labeling
from repro.dynamic import incremental_relabel
from repro.dynamic.rebuild import DeltaError, delta_to_dict
from repro.generators import grid_2d
from repro.serve.store import ClusterStoreView, ShardNotOwned

from tests.cluster.conftest import node_catalog, start_cluster, stop_cluster
from tests.cluster.test_client import fast_policy, sample_pairs
from tests.dynamic.test_rebuild import random_reweight

NODE_IDS = ("n0", "n1", "n2")


def run(coro):
    return asyncio.run(coro)


def updated_world(updates=2, seed=13):
    """(updated labeling, deltas) on the conftest's grid_2d(5) world."""
    graph = grid_2d(5)
    labeling = build_labeling(graph, build_decomposition(graph), epsilon=0.25)
    rng = random.Random(seed)
    deltas = []
    for epoch in range(1, updates + 1):
        delta = incremental_relabel(labeling, random_reweight(rng, graph))
        delta.epoch = epoch
        deltas.append(delta)
    return labeling, deltas


def node_views(remote, *, num_shards=8, replication=2, seed=0):
    """One offline ClusterStoreView per node, same placement as
    ``start_cluster`` (no sockets — pure slicing semantics)."""
    cluster_map = ClusterMap.build(
        list(NODE_IDS),
        num_shards=num_shards,
        replication=replication,
        seed=seed,
        epsilon=remote.epsilon,
    )
    views = {}
    for node_id in NODE_IDS:
        state = ClusterNodeState(
            node_id=node_id,
            map=cluster_map,
            owned=frozenset(cluster_map.shards_of_node(node_id)),
        )
        views[node_id] = ClusterStoreView(
            node_catalog(remote, cluster_map, node_id), state
        )
    return cluster_map, views


class TestClusterViewDelta:
    def test_each_node_applies_exactly_its_replicated_slice(
        self, remote_labels
    ):
        _, deltas = updated_world()
        _, views = node_views(remote_labels, replication=2)
        for delta in deltas:
            touched = len(delta.changes) + len(delta.removals)
            applied = skipped = 0
            for view in views.values():
                result = view.apply_delta(delta)
                assert result["epoch"] == delta.epoch
                applied += result["changes"] + result["removals"]
                skipped += result["skipped"]
            # R copies applied, N-R skipped, nothing lost or invented.
            assert applied == 2 * touched
            assert skipped == (len(NODE_IDS) - 2) * touched
            assert applied + skipped == len(NODE_IDS) * touched

    def test_owned_vertices_serve_the_updated_labels(self, remote_labels):
        updated, deltas = updated_world()
        _, views = node_views(remote_labels)
        for view in views.values():
            for delta in deltas:
                view.apply_delta(delta)
        for v, label in updated.labels.items():
            holders = 0
            for view in views.values():
                try:
                    served = view.flat_label(v)
                except ShardNotOwned:
                    continue
                holders += 1
                assert served.entries() == label.entries()
            assert holders == 2  # replication

    def test_epoch_sequence_is_per_view(self, remote_labels):
        _, deltas = updated_world()
        _, views = node_views(remote_labels)
        first = views["n0"]
        with pytest.raises(DeltaError):
            first.apply_delta(deltas[1])  # epoch 2 before 1
        first.apply_delta(deltas[0])
        with pytest.raises(DeltaError):
            first.apply_delta(deltas[0])  # the view itself is strict
        assert first.label_epoch == 1
        # The other views never moved: epochs are per node, not shared.
        assert views["n1"].label_epoch == 0
        assert views["n2"].label_epoch == 0


class TestClusterDeltaFanOut:
    def test_push_advances_every_node_together(self, remote_labels):
        updated, deltas = updated_world()

        async def main():
            live, servers = await start_cluster(remote_labels)
            client = ClusterClient(live, policy=fast_policy())
            try:
                pushes = [
                    await client.call(
                        {
                            "op": "DELTA",
                            "action": "apply",
                            "delta": delta_to_dict(delta),
                        }
                    )
                    for delta in deltas
                ]
                status = await client.call({"op": "DELTA"})
                answers = []
                for u, v in sample_pairs(remote_labels, 20):
                    response = await client.dist(u, v)
                    answers.append(((u, v), response["estimate"]))
                return pushes, status, answers, dict(client.counters)
            finally:
                await client.close()
                await stop_cluster(servers)

        pushes, status, answers, counters = run(main())
        for push, delta in zip(pushes, deltas):
            assert push["ok"] and push["applied"]
            assert push["epoch"] == delta.epoch
            assert push["applied_nodes"] == len(NODE_IDS)
            assert push["failed_nodes"] == 0
            assert set(push["nodes"]) == set(NODE_IDS)
        # status routes to any single node; they all agree by now.
        assert status["epoch"] == len(deltas)
        for (u, v), estimate in answers:
            assert estimate == updated.estimate(u, v)
        assert counters["delta_pushes"] == len(deltas)

    def test_dead_node_is_reported_not_papered_over(self, remote_labels):
        _, deltas = updated_world(updates=1)

        async def main():
            live, servers = await start_cluster(remote_labels)
            client = ClusterClient(live, policy=fast_policy(1))
            try:
                await servers["n2"].shutdown()
                return await client.call(
                    {
                        "op": "DELTA",
                        "action": "apply",
                        "delta": delta_to_dict(deltas[0]),
                    }
                )
            finally:
                await client.close()
                await stop_cluster(servers)

        push = run(main())
        assert push["ok"] is False and push["applied"] is False
        assert push["applied_nodes"] == 2
        assert push["failed_nodes"] == 1
        assert push["nodes"]["n2"]["ok"] is False
        for node_id in ("n0", "n1"):
            assert push["nodes"][node_id]["epoch"] == 1

    def test_bad_delta_fails_on_every_node(self, remote_labels):
        _, deltas = updated_world(updates=1)
        deltas[0].epoch = 5  # skips ahead: stale everywhere

        async def main():
            live, servers = await start_cluster(remote_labels)
            client = ClusterClient(live, policy=fast_policy(1))
            try:
                return await client.call(
                    {
                        "op": "DELTA",
                        "action": "apply",
                        "delta": delta_to_dict(deltas[0]),
                    }
                )
            finally:
                await client.close()
                await stop_cluster(servers)

        push = run(main())
        assert push["ok"] is False
        assert push["failed_nodes"] == len(NODE_IDS)
        for response in push["nodes"].values():
            assert response["error"]["code"] == "stale_delta"

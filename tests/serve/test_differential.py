"""Differential serving test: the wire answer IS the offline answer.

For random graphs across every separator engine, each estimate served
through a faulty network (an active fault plan: drops, delays, and
corrupted bytes) and the :class:`ResilientClient` must be
**byte-identical** — compared as strict-JSON text — to the offline
``load_labeling(...).estimate`` on the same dumped labeling.  Faults
may cost retries; they may never change a single byte of an answer.

Includes the null/unreachable path: a vertex whose label shares no
separator path with anyone serves ``{"estimate": null, "unreachable":
true}``, matching the offline ``inf``.
"""

import asyncio
import json
import math

import pytest

from repro.core import build_decomposition, build_labeling
from repro.core.engines import (
    CenterBagEngine,
    GreedyPeelingEngine,
    StrongGreedyEngine,
    TreeCentroidEngine,
)
from repro.core.flat import FlatLabel, label_content
from repro.core.serialize import RemoteLabels, dump_labeling, load_labeling
from repro.generators import grid_2d, random_tree
from repro.planar import PlanarCycleEngine
from repro.serve import (
    FaultPlan,
    OracleServer,
    ResilientClient,
    RetryPolicy,
    ShardedLabelStore,
    StoreCatalog,
)
from repro.serve.loadgen import synthesize_pairs


# A plan that exercises every client-visible fault class without
# making the run slow: most replies are clean, some are dropped,
# delayed a hair, or corrupted in either mode.
FAULT_PLAN = FaultPlan.from_dict(
    {
        "format": "repro-fault-plan/1",
        "seed": 99,
        "rules": [
            {"kind": "drop", "rate": 0.12},
            {"kind": "delay", "rate": 0.3, "delay_ms": 2.0},
            {"kind": "corrupt", "rate": 0.08, "mode": "garble"},
            {"kind": "corrupt", "rate": 0.08, "mode": "truncate"},
        ],
    }
)

RETRY_POLICY = RetryPolicy(attempts=10, attempt_timeout=0.3, backoff_base=0.005)


def _grid(seed):
    return grid_2d(4, weight_range=(1.0, 5.0), seed=seed)


ENGINE_CASES = [
    pytest.param(lambda: _grid(1), lambda: GreedyPeelingEngine(seed=7),
                 id="grid-greedy"),
    pytest.param(lambda: random_tree(18, weight_range=(1.0, 3.0), seed=2),
                 lambda: TreeCentroidEngine(), id="tree-centroid"),
    pytest.param(lambda: _grid(3), lambda: CenterBagEngine(order="min_degree"),
                 id="grid-centerbag"),
    pytest.param(lambda: _grid(4), lambda: StrongGreedyEngine(seed=5),
                 id="grid-stronggreedy"),
    pytest.param(lambda: _grid(5), lambda: PlanarCycleEngine(),
                 id="grid-planarcycle"),
]


def _serve_and_compare(remote, pairs, store=None):
    """Serve *remote* (or an explicit *store* holding the same labels)
    behind FAULT_PLAN; return [(offline_json, served_json)] per pair,
    both as strict-JSON text."""

    async def main():
        catalog = StoreCatalog()
        catalog.add(
            store
            if store is not None
            else ShardedLabelStore.from_remote("diff", remote, num_shards=4)
        )
        server = OracleServer(catalog, port=0, fault_plan=FAULT_PLAN)
        await server.start()
        client = ResilientClient(
            [("127.0.0.1", server.port)],
            policy=RETRY_POLICY,
            breaker_threshold=1000,  # the faults are the point; don't trip
        )
        rows = []
        try:
            for u, v in pairs:
                response = await client.dist(u, v)
                offline = remote.estimate(u, v)
                offline_json = json.dumps(
                    None if math.isinf(offline) else offline
                )
                served_json = json.dumps(response.get("estimate"))
                rows.append(
                    (offline_json, served_json, response.get("unreachable"))
                )
        finally:
            await client.close()
            await server.shutdown()
        return rows, dict(client.counters), server.faults.status()

    return asyncio.run(main())


class TestDifferentialUnderFaults:
    @pytest.mark.parametrize("make_graph, make_engine", ENGINE_CASES)
    def test_served_equals_offline_byte_for_byte(self, make_graph, make_engine):
        graph = make_graph()
        tree = build_decomposition(graph, engine=make_engine())
        labeling = build_labeling(graph, tree, epsilon=0.25)
        # The comparison oracle is the *dumped* labeling loaded back —
        # exactly the bytes the server loaded, so any disagreement is
        # the serving path's fault, not serialization drift.
        remote = load_labeling(dump_labeling(labeling))
        pairs = synthesize_pairs(list(remote.vertices()), 24, seed=13)
        rows, counters, faults = _serve_and_compare(remote, pairs)
        for offline_json, served_json, _ in rows:
            assert served_json == offline_json
        # The plan really was active: faults were injected server-side.
        assert sum(faults["injected"].values()) > 0

    @pytest.mark.parametrize("make_graph, make_engine", ENGINE_CASES)
    def test_binary_codec_answers_match_json_byte_for_byte(
        self, make_graph, make_engine, tmp_path
    ):
        """The /2 codec changes the bytes on disk, never the answers.

        Offline: ``load_labeling`` of the JSON text and of the packed
        binary blob must estimate identically (as strict-JSON text) on
        every pair.  Served: a mapped :class:`ShardedLabelStore`
        mmap'ing the binary file, behind the active fault plan and the
        resilient client, must answer byte-identically to the offline
        JSON path.
        """
        graph = make_graph()
        tree = build_decomposition(graph, engine=make_engine())
        labeling = build_labeling(graph, tree, epsilon=0.25)
        json_text = dump_labeling(labeling)
        binary_path = tmp_path / "labels.bin"
        dump_labeling(labeling, binary_path, codec="binary", num_shards=4)

        remote_json = load_labeling(json_text)
        remote_bin = load_labeling(binary_path)
        assert list(map(label_content, remote_bin.labels.values())) == list(
            map(label_content, remote_json.labels.values())
        )
        pairs = synthesize_pairs(list(remote_json.vertices()), 24, seed=13)
        for u, v in pairs:
            a, b = remote_json.estimate(u, v), remote_bin.estimate(u, v)
            assert json.dumps(None if math.isinf(a) else a) == json.dumps(
                None if math.isinf(b) else b
            )

        store = ShardedLabelStore.load(binary_path, name="diff")
        assert store.codec == "binary"
        rows, _, faults = _serve_and_compare(remote_json, pairs, store=store)
        for offline_json, served_json, _ in rows:
            assert served_json == offline_json
        assert sum(faults["injected"].values()) > 0

    def test_unreachable_serves_null_and_true_flag(self):
        graph = _grid(8)
        labeling = build_labeling(
            graph, build_decomposition(graph), epsilon=0.25
        )
        base = load_labeling(dump_labeling(labeling))
        # A vertex with an empty portal map shares no separator path
        # with anyone: every query against it is offline-inf, and the
        # wire must say {"estimate": null, "unreachable": true}.
        lonely = "lonely"
        remote = RemoteLabels(
            base.epsilon,
            {**base.labels, lonely: FlatLabel.from_entries(lonely, {})},
        )
        assert math.isinf(remote.estimate(lonely, (0, 0)))
        rows, _, _ = _serve_and_compare(
            remote, [(lonely, (0, 0)), ((1, 1), lonely), ((0, 0), (3, 3))]
        )
        assert rows[0][:2] == ("null", "null") and rows[0][2] is True
        assert rows[1][:2] == ("null", "null") and rows[1][2] is True
        # The reachable pair still round-trips its finite float exactly.
        assert rows[2][0] == rows[2][1] and rows[2][2] is None

    def test_faults_cost_retries_not_correctness(self):
        # Meta-check on the harness itself: across all engine cases the
        # client retried at least once overall, i.e. the differential
        # pass is exercising the resilience machinery, not a clean
        # network.  One graph with a guaranteed-drop first decision
        # makes this deterministic.
        graph = _grid(6)
        labeling = build_labeling(
            graph, build_decomposition(graph), epsilon=0.25
        )
        remote = load_labeling(dump_labeling(labeling))

        async def main():
            plan = FaultPlan.from_dict(
                {"stages": [
                    {"requests": 1, "rules": [{"kind": "drop", "rate": 1.0}]},
                    {"rules": [{"kind": "drop", "rate": 0.0}]},
                ]}
            )
            catalog = StoreCatalog()
            catalog.add(ShardedLabelStore.from_remote("diff", remote))
            server = OracleServer(catalog, port=0, fault_plan=plan)
            await server.start()
            client = ResilientClient(
                [("127.0.0.1", server.port)], policy=RETRY_POLICY
            )
            response = await client.dist((0, 0), (2, 2))
            counters = dict(client.counters)
            await client.close()
            await server.shutdown()
            return response, counters

        response, counters = asyncio.run(main())
        assert response["estimate"] == remote.estimate((0, 0), (2, 2))
        assert counters["retries"] >= 1

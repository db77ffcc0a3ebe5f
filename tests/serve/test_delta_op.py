"""The DELTA admin op end-to-end: epoch-gated label updates over TCP.

A running server must (a) apply a well-formed next-epoch delta and
answer subsequent queries from the *new* labels byte-exactly, (b) treat
an already-applied epoch as an idempotent noop, (c) reject an epoch gap
with the permanent ``stale_delta`` error, (d) reject malformed payloads
as ``bad_request``, and (e) drop any cached pair answers that predate
the delta.
"""

import asyncio
import json
import random

import pytest

from repro.core import build_decomposition, build_labeling
from repro.core.serialize import dump_labeling, load_labeling
from repro.dynamic import incremental_relabel
from repro.dynamic.rebuild import delta_to_dict
from repro.generators import grid_2d
from repro.serve import OracleServer, ShardedLabelStore, StoreCatalog

from tests.dynamic.test_rebuild import random_reweight
from tests.serve.conftest import rpc
from tests.serve.test_server import wire


def run(coro):
    return asyncio.run(coro)


def make_world(updates=2, seed=37):
    """A catalog serving pristine labels + deltas that update them."""
    graph = grid_2d(5, weight_range=(1.0, 5.0), seed=4)
    tree = build_decomposition(graph)
    labeling = build_labeling(graph, tree, epsilon=0.25)
    # The store holds the pristine labels, loaded from a dump, while
    # incremental_relabel replaces the labeling's own.
    pristine = load_labeling(dump_labeling(labeling))
    catalog = StoreCatalog()
    catalog.add(ShardedLabelStore.from_remote("grid", pristine, num_shards=4))
    rng = random.Random(seed)
    deltas = []
    for epoch in range(1, updates + 1):
        delta = incremental_relabel(labeling, random_reweight(rng, graph))
        delta.epoch = epoch
        deltas.append(delta)
    return catalog, labeling, deltas


def apply_request(delta, request_id=0):
    return {
        "id": request_id,
        "op": "DELTA",
        "action": "apply",
        "delta": delta_to_dict(delta),
    }


async def _started(catalog, **kwargs) -> OracleServer:
    server = OracleServer(catalog, port=0, **kwargs)
    await server.start()
    return server


class TestDeltaApply:
    def test_queries_switch_to_the_new_labels(self):
        catalog, updated, deltas = make_world(updates=2)
        pairs = [((0, 0), (4, 4)), ((1, 3), (3, 1)), ((0, 2), (4, 2))]
        changed = {vx for d in deltas for vx, _k, _p in d.changes}
        changed.update(vx for d in deltas for vx, _k in d.removals)
        if not changed:
            pytest.skip("deltas touched no labels")
        moved = sorted(changed)[0]

        async def main():
            server = await _started(catalog)
            queries = [
                {"id": i, "op": "DIST", "u": wire(u), "v": wire(v)}
                for i, (u, v) in enumerate(pairs)
            ] + [{"op": "LABEL", "v": wire(moved)}]
            before = await rpc(server.port, queries)
            applies = await rpc(
                server.port,
                [apply_request(d, i) for i, d in enumerate(deltas)],
            )
            after = await rpc(server.port, queries)
            status = await rpc(server.port, [{"op": "DELTA"}])
            await server.shutdown()
            return before, applies, after, status

        before, applies, after, status = run(main())
        for line, delta in zip(applies, deltas):
            response = json.loads(line)
            assert response["ok"] and response["applied"]
            assert response["epoch"] == delta.epoch
        served = [json.loads(line)["estimate"] for line in after[:-1]]
        expected = [updated.estimate(u, v) for u, v in pairs]
        assert served == expected
        # A vertex the deltas touched serves a different label now.
        assert json.loads(after[-1]) != json.loads(before[-1])
        stat = json.loads(status[0])
        assert stat["ok"] and stat["epoch"] == len(deltas)
        assert stat["applied_deltas"] == len(deltas)

    def test_replayed_epoch_is_an_idempotent_noop(self):
        catalog, _, deltas = make_world(updates=1)

        async def main():
            server = await _started(catalog)
            lines = await rpc(
                server.port,
                [apply_request(deltas[0], 0), apply_request(deltas[0], 1)],
            )
            await server.shutdown()
            return lines

        first, second = (json.loads(line) for line in run(main()))
        assert first["applied"] is True
        assert second["ok"] is True
        assert second["applied"] is False and second["noop"] is True
        assert second["epoch"] == 1

    def test_epoch_gap_is_stale_delta(self):
        catalog, _, deltas = make_world(updates=2)

        async def main():
            server = await _started(catalog)
            (line,) = await rpc(server.port, [apply_request(deltas[1])])
            await server.shutdown()
            return line

        response = json.loads(run(main()))
        assert response["ok"] is False
        assert response["error"]["code"] == "stale_delta"

    def test_malformed_delta_is_bad_request(self):
        catalog, _, deltas = make_world(updates=1)
        payload = delta_to_dict(deltas[0])
        payload.pop("changes")

        async def main():
            server = await _started(catalog)
            lines = await rpc(
                server.port,
                [
                    {"op": "DELTA", "action": "apply", "delta": payload},
                    {"op": "DELTA", "action": "apply"},  # no delta at all
                    {"op": "DELTA", "action": "explode"},
                ],
            )
            await server.shutdown()
            return lines

        for line in run(main()):
            response = json.loads(line)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"

    def test_pair_cache_is_cleared_on_apply(self):
        catalog, updated, deltas = make_world(updates=1)
        changed = {vx for vx, _k, _p in deltas[0].changes}
        changed.update(vx for vx, _k in deltas[0].removals)
        if not changed:
            pytest.skip("delta touched no labels")
        probe = sorted(changed)[0]
        other = (4, 4) if probe != (4, 4) else (0, 0)

        async def main():
            server = await _started(catalog, cache_size=128)
            query = {"op": "DIST", "u": wire(probe), "v": wire(other)}
            await rpc(server.port, [query, query])  # warm the cache
            await rpc(server.port, [apply_request(deltas[0])])
            (line,) = await rpc(server.port, [query])
            stats = await rpc(server.port, [{"op": "STATS"}])
            await server.shutdown()
            return line, stats

        line, stats = run(main())
        assert json.loads(line)["estimate"] == updated.estimate(probe, other)
        counters = json.loads(stats[0])["counters"]
        assert counters["deltas"] == 1

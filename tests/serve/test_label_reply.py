"""LABEL reply bytes: pinned against the reference build, codec-free.

A LABEL reply carries one label as ``encode_label`` JSON.  The golden
fixtures (``tests/data/golden_n64.labels.{json,bin}``) are served from
a ``/1`` store and from a ``/2`` store with the same shard count, and
every reply line must be the line encoded from the reference build's
label of that vertex, so the two stores answer byte-equal lines.  A
label that a delta has rewritten (it lives in the store's overlay) must
equal the reference label rebuilt from scratch after the same update.
"""

import asyncio
import random
import zlib

from repro.core import build_labeling
from repro.core.flat import FlatLabel
from repro.core.serialize import encode_label, encode_vertex
from repro.dynamic import incremental_relabel
from repro.serve import OracleServer, ShardedLabelStore, StoreCatalog
from repro.serve.protocol import encode_response, ok_response
from repro.serve.store import shard_key

from tests.core.test_flat_golden import GOLDEN_BIN, GOLDEN_JSON, golden_recipe
from tests.dynamic.test_rebuild import random_reweight
from tests.reference_labeling import reference_build_labeling, reference_relabel
from tests.serve.conftest import rpc

NUM_SHARDS = 4  # the pack-time shard count of the golden /2 fixture


def expected_line(req_id, v, label) -> bytes:
    """The LABEL reply line for the reference dict-form *label*."""
    flat = FlatLabel.from_entries(label.vertex, label.entries)
    return encode_response(
        ok_response(
            req_id,
            {
                "op": "LABEL",
                "v": encode_vertex(v),
                "shard": zlib.crc32(shard_key(v)) % NUM_SHARDS,
                "words": label.words,
                "num_portals": label.num_portals,
                "label": encode_label(flat),
            },
        )
    )


def label_lines(store, vertices):
    """The raw LABEL reply line of each vertex, from a server over
    *store*."""

    async def main():
        catalog = StoreCatalog()
        catalog.add(store)
        server = OracleServer(catalog, port=0)
        await server.start()
        try:
            return await rpc(
                server.port,
                [
                    {"id": i, "op": "LABEL", "v": encode_vertex(v)}
                    for i, v in enumerate(vertices)
                ],
            )
        finally:
            await server.shutdown()

    return asyncio.run(main())


def golden_stores():
    return (
        ShardedLabelStore.load(GOLDEN_JSON, num_shards=NUM_SHARDS, name="json"),
        ShardedLabelStore.load(GOLDEN_BIN, name="bin"),
    )


class TestLabelReplyBytes:
    def test_golden_labels_from_both_codecs(self):
        graph, tree = golden_recipe()
        ref = reference_build_labeling(graph, tree, epsilon=0.25)
        vertices = list(ref.labels)
        want = [expected_line(i, v, ref.labels[v]) for i, v in enumerate(vertices)]
        json_store, bin_store = golden_stores()
        try:
            json_lines = label_lines(json_store, vertices)
            bin_lines = label_lines(bin_store, vertices)
        finally:
            bin_store.close()
        assert json_lines == bin_lines
        assert json_lines == want

    def test_delta_rewritten_label(self):
        graph, tree = golden_recipe()
        ref = reference_build_labeling(*golden_recipe(), epsilon=0.25)
        labeling = build_labeling(graph, tree, epsilon=0.25)
        rng = random.Random(26)
        while True:
            update = random_reweight(rng, graph)
            delta = incremental_relabel(labeling, update)
            reference_relabel(ref, update)
            if delta.changes:
                break
        delta.epoch = 1
        rewritten = delta.changes[0][0]
        vertices = [rewritten, next(v for v in ref.labels if v != rewritten)]
        json_store, bin_store = golden_stores()
        try:
            lines = []
            for store in (json_store, bin_store):
                # Every earlier update of the loop changed nothing, so
                # the stores need only this delta.
                store.apply_delta(delta)
                lines.append(label_lines(store, vertices))
        finally:
            bin_store.close()
        want = [expected_line(i, v, ref.labels[v]) for i, v in enumerate(vertices)]
        assert lines[0] == lines[1] == want

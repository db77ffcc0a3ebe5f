"""Golden-fixture regression: builds reproduce committed bytes.

``tests/data/golden_n64.labels.json`` and ``.bin`` were produced once
by the recipe in :func:`golden_recipe` (Delaunay, n=64, seed=77,
epsilon=0.25) with the dict reference build and committed.  The
reference build (``[dict]``: ``tests/reference_labeling.py``, one
``VertexLabel`` dict per vertex, dumped through ``ReferenceLabeling.flat``)
and the production build (``[flat]``)
must, on every future revision, rebuild those files **byte-for-byte**
— any drift in separator choice, portal selection, float arithmetic,
serialization order, or the ``/2`` record layout fails here first,
with a diff against a known-good artifact.

To regenerate after an *intentional* format change::

    PYTHONPATH=src:. python tests/core/test_flat_golden.py

and commit the rewritten fixtures together with the change that
justified them.
"""

import math
from pathlib import Path

import pytest

from repro.core import (
    build_decomposition,
    build_labeling,
    dump_labeling,
    load_labeling,
)
from repro.core.binfmt import BinaryLabelReader
from repro.core.flat import flat_estimate
from repro.generators import random_delaunay_graph
from repro.serve import ShardedLabelStore
from tests.reference_labeling import dict_estimate, dict_label, reference_build_labeling

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN_JSON = DATA / "golden_n64.labels.json"
GOLDEN_BIN = DATA / "golden_n64.labels.bin"


def golden_recipe():
    graph = random_delaunay_graph(64, seed=77)[0]
    tree = build_decomposition(graph)
    return graph, tree


@pytest.fixture(params=["dict", "flat"])
def build(request):
    """The reference build or the production build."""
    return {
        "dict": lambda *args, **kwargs: reference_build_labeling(*args, **kwargs).flat(),
        "flat": build_labeling,
    }[request.param]


class TestGoldenReproduction:
    def test_json_codec_byte_for_byte(self, build):
        graph, tree = golden_recipe()
        labeling = build(graph, tree, epsilon=0.25)
        assert dump_labeling(labeling) == GOLDEN_JSON.read_text()

    def test_binary_codec_byte_for_byte(self, build, tmp_path):
        graph, tree = golden_recipe()
        labeling = build(graph, tree, epsilon=0.25)
        out = tmp_path / "labels.bin"
        dump_labeling(labeling, out, codec="binary", num_shards=4)
        assert out.read_bytes() == GOLDEN_BIN.read_bytes()


@pytest.mark.parametrize("reference", ["dict", "flat"])
class TestGoldenServing:
    def test_stores_answer_from_committed_fixtures(self, reference):
        # Both stores, loaded from the *committed* artifacts, agree on
        # every pair of a deterministic sample with an offline combine
        # of the same labels: the dict kernel over the JSON fixture's
        # labels in dict form, or the flat kernel over the /2 fixture's
        # records decoded straight off the file.
        remote = load_labeling(GOLDEN_JSON.read_text())
        reader = BinaryLabelReader(GOLDEN_BIN)
        if reference == "dict":
            def want_of(u, v):
                return dict_estimate(
                    dict_label(remote.label(u)), dict_label(remote.label(v))
                )
        else:
            def want_of(u, v):
                return flat_estimate(reader.get_flat(u), reader.get_flat(v))
        json_store = ShardedLabelStore.load(GOLDEN_JSON, name="golden-json")
        bin_store = ShardedLabelStore.load(GOLDEN_BIN, name="golden-bin")
        verts = sorted(remote.vertices(), key=repr)
        try:
            for i, u in enumerate(verts[::5]):
                for v in verts[i :: 7]:
                    want = want_of(u, v)
                    assert repr(json_store.estimate(u, v)) == repr(want)
                    assert repr(bin_store.estimate(u, v)) == repr(want)
                    assert math.isfinite(want) or want == math.inf
        finally:
            bin_store.close()
            reader.close()


class TestGoldenBinaryRecords:
    def test_flat_decode_reencodes_identically(self):
        # Every /2 record decoded through the flat path re-encodes to
        # the exact committed bytes (binfmt round trip at the record
        # level, against an on-disk artifact rather than fresh output).
        from repro.core.binfmt import encode_label_binary

        with BinaryLabelReader(GOLDEN_BIN) as reader:
            n = 0
            for record_id, v in enumerate(reader.iter_vertices()):
                flat = reader.get_flat(v)
                record = bytes(reader._buf[slice(*reader._record_span(record_id))])
                assert encode_label_binary(flat) == record
                n += 1
            assert n == 64


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    graph, tree = golden_recipe()
    labeling = reference_build_labeling(graph, tree, epsilon=0.25).flat()
    GOLDEN_JSON.write_text(dump_labeling(labeling))
    dump_labeling(labeling, GOLDEN_BIN, codec="binary", num_shards=4)
    print(f"rewrote {GOLDEN_JSON} and {GOLDEN_BIN}")

"""The record-body invariant: a ``FlatLabel``'s columns are its ``/2`` record.

Every way a label comes to exist — a build (serial and forked), the
``from_entries`` constructor, the flat ``/2`` decoder, a delta apply —
must leave ``codes``, ``offs`` and ``runs`` equal, byte for byte, to the
three columns of the label's ``/2`` record: the i64 key codes, the u32
portal offsets and the portals.  ``pack_labeling`` writes those columns
verbatim, so its output must also equal a per-field reference writer's,
and its checks (finite portals, key code fields, one label per
canonical vertex) must still name the offending vertex and key.
"""

import math
import random
import struct

import pytest

from repro.core import build_decomposition, build_labeling
from repro.core.binfmt import (
    _FINITE_CHUNK,
    BinaryLabelReader,
    encode_vertex_binary,
    pack_labeling,
)
from repro.core.flat import FlatLabel
from repro.core.serialize import (
    RemoteLabels,
    SerializationError,
    decode_label,
    dump_labeling,
)
from repro.dynamic import incremental_relabel
from repro.generators import grid_2d, random_delaunay_graph
from tests.dynamic.test_rebuild import random_reweight
from tests.reference_labeling import (
    VertexLabel,
    apply_entry_changes,
    dict_label,
    flat_label,
    reference_build_labeling,
)

_PORTAL = struct.Struct("<dd")


def reference_record(label: VertexLabel) -> bytes:
    """One ``/2`` record written a field at a time from the dict form."""
    out = bytearray()
    encode_vertex_binary(label.vertex, out)
    out += struct.pack("<I", len(label.entries))
    for node_id, phase_idx, path_idx in label.entries:
        out += struct.pack("<q", node_id * 2**32 + phase_idx * 2**16 + path_idx)
    count = 0
    out += struct.pack("<I", count)
    for portals in label.entries.values():
        count += len(portals)
        out += struct.pack("<I", count)
    for portals in label.entries.values():
        for pos, dist in portals:
            out += _PORTAL.pack(pos, dist)
    return bytes(out)


def record_bytes(blob: bytes, record_id: int) -> bytes:
    reader = BinaryLabelReader(blob)
    try:
        return bytes(reader._buf[slice(*reader._record_span(record_id))])
    finally:
        reader.close()


def entries_region(label) -> bytes:
    """The three columns of *label*'s record, by the reference writer."""
    head = bytearray()
    encode_vertex_binary(label.vertex, head)
    return reference_record(dict_label(label))[len(head) + 4 :]


def columns(label) -> bytes:
    return label.codes.tobytes() + label.offs.tobytes() + label.runs.tobytes()


def assert_runs_are_records(labels):
    for label in labels:
        assert columns(label) == entries_region(label), label.vertex


def assert_pack_matches_reference_writer(labeling, reference):
    """``pack_labeling`` of *labeling* equals its index regions followed
    by the reference writer's records of *reference*'s dict labels."""
    blob = pack_labeling(labeling, num_shards=4)
    records = b"".join(reference_record(lab) for lab in reference.labels.values())
    assert blob[len(blob) - len(records) :] == records
    assert blob == pack_labeling(reference.flat(), num_shards=4)


@pytest.fixture(scope="module")
def case():
    graph = random_delaunay_graph(96, seed=13)[0]
    tree = build_decomposition(graph)
    return graph, tree, reference_build_labeling(graph, tree, epsilon=0.25)


class TestRunsAreRecordBodies:
    @pytest.mark.parametrize("parallel", [None, 2])
    def test_build(self, case, parallel):
        graph, tree, reference = case
        labeling = build_labeling(graph, tree, epsilon=0.25, parallel=parallel)
        assert_runs_are_records(labeling.labels.values())
        assert_pack_matches_reference_writer(labeling, reference)

    def test_from_entries(self, case):
        _, _, reference = case
        labels = [flat_label(lab) for lab in reference.labels.values()]
        assert_runs_are_records(labels)

    def test_decoded_records(self, case):
        _, _, reference = case
        blob = pack_labeling(reference.flat(), num_shards=4)
        with BinaryLabelReader(blob) as reader:
            labels = [reader.get_flat(v) for v in reader.iter_vertices()]
            for record_id, label in enumerate(labels):
                assert columns(label) == entries_region(label)
                head = bytearray()
                encode_vertex_binary(label.vertex, head)
                assert record_bytes(blob, record_id) == (
                    bytes(head) + struct.pack("<I", len(label.codes))
                    + columns(label)
                )

    def test_delta_apply(self, case):
        _, _, reference = case
        label = flat_label(next(iter(reference.labels.values())))
        first, *rest = label.keys
        entries = label.entries()
        removed = apply_entry_changes(
            entries, [((0, 7, 3), [(1.5, 2.5)]), (rest[0], [(0.0, 4.0)])], [first]
        )
        new = FlatLabel.from_entries(label.vertex, entries)
        assert removed == 1
        assert list(new.keys) == sorted(new.keys)
        assert_runs_are_records([new])
        # The old label is untouched.
        assert columns(label) == entries_region(label)

    def test_incremental_relabel(self):
        graph = grid_2d(7, weight_range=(1.0, 5.0), seed=11)
        labeling = build_labeling(graph, build_decomposition(graph), epsilon=0.25)
        rng = random.Random(3)
        for _ in range(3):
            incremental_relabel(labeling, random_reweight(rng, labeling.graph))
        assert_runs_are_records(labeling.labels.values())
        fresh = reference_build_labeling(graph, labeling.tree, epsilon=0.25)
        assert_pack_matches_reference_writer(labeling, fresh)


class TestPackChecksOnFlatLabels:
    def _pack(self, label):
        return pack_labeling(RemoteLabels(0.25, {label.vertex: label}))

    def test_nan_portal_names_vertex_and_key(self):
        label = FlatLabel.from_entries(
            4, {(0, 0, 0): [(0.0, 1.0)], (2, 1, 0): [(3.0, math.nan)]}
        )
        with pytest.raises(
            SerializationError,
            match=r"non-finite portal distance in label of vertex 4 "
            r"\(path key \(2, 1, 0\)\)",
        ):
            self._pack(label)

    def test_nan_portal_past_the_first_check_chunk(self):
        labels = {
            v: FlatLabel.from_entries(v, {(0, 0, 0): [(0.0, float(v))]})
            for v in range(2 * _FINITE_CHUNK)
        }
        late = _FINITE_CHUNK + 7
        labels[late] = FlatLabel.from_entries(late, {(0, 0, 0): [(math.inf, 1.0)]})
        with pytest.raises(
            SerializationError, match=rf"label of vertex {late} \(path key"
        ):
            pack_labeling(RemoteLabels(0.25, labels))

    def test_json_dump_names_vertex_and_key(self):
        label = FlatLabel.from_entries(
            4, {(0, 0, 0): [(0.0, 1.0)], (2, 1, 0): [(3.0, math.nan)]}
        )
        with pytest.raises(
            SerializationError,
            match=r"not strict-JSON serializable: label of vertex 4 "
            r"\(path key \(2, 1, 0\)\) holds \(3.0, nan\)",
        ):
            dump_labeling(RemoteLabels(0.25, {4: label}))

    def test_node_id_outside_i32_names_vertex_and_key(self):
        bad = {(1 << 31, 0, 0): [(0.0, 1.0)]}
        match = (
            r"path key \(2147483648, 0, 0\) of vertex 'x' does not fit the "
            r"key code \(i32 node, u16 phase and path\)"
        )
        with pytest.raises(SerializationError, match=match):
            FlatLabel.from_entries("x", bad)
        with pytest.raises(SerializationError, match=match):
            decode_label({"v": "x", "e": {"2147483648:0:0": [[0.0, 1.0]]}})

    def test_header_slot_reading_as_nan_is_not_a_portal(self):
        # Node -1 fills a key code's exponent bits: read as a double it
        # is NaN, but the key column holds no portal, so the pack goes
        # through.
        lab = VertexLabel(5, {(-1, 1, 0): [(0.0, 1.0)], (1, 0, 2): [(2.0, 3.0)]})
        label = flat_label(lab)
        assert math.isnan(struct.unpack("<d", label.codes[:1].tobytes())[0])
        blob = self._pack(label)
        assert dict_label(BinaryLabelReader(blob).get_flat(5)) == lab

    def test_duplicate_canonical_vertex_refused(self):
        a = FlatLabel.from_entries(1, {(0, 0, 0): [(0.0, 1.0)]})
        b = FlatLabel.from_entries(1.0, {(0, 0, 0): [(0.0, 1.0)]})
        with pytest.raises(SerializationError, match="duplicate label for vertex 1.0"):
            pack_labeling(RemoteLabels(0.25, {"a": a, "b": b}))

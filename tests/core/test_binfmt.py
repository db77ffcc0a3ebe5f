"""The packed binary label codec (``repro-distance-labels/2``).

Covers the full surface of :mod:`repro.core.binfmt`: the tagged
vertex codec (including canonicalization and the bigint escape), label
records, the pack/read round trip against the JSON codec, the mmap
reader's lazy lookup path, and the header/offset validation that keeps
a corrupt file from turning into a crash or a silent wrong answer.
"""

import json
import struct

import pytest

from repro.core import build_decomposition, build_labeling
from repro.core.binfmt import (
    HEADER_BYTES,
    MAGIC,
    BinaryLabelReader,
    decode_vertex_binary,
    encode_label_binary,
    encode_vertex_binary,
    is_binary_labels,
    pack_labeling,
    read_labeling_binary,
    write_labeling_binary,
)
from repro.core.flat import FlatLabel, label_content
from repro.core.serialize import (
    RemoteLabels,
    SerializationError,
    canonical_vertex,
    dump_labeling,
    load_labeling,
)
from repro.generators import grid_2d, random_tree
from repro.serve.store import ShardedLabelStore

from tests.conftest import pair_sample


def _encode(v) -> bytes:
    out = bytearray()
    encode_vertex_binary(v, out)
    return bytes(out)


def _labeled(graph):
    labeling = build_labeling(graph, build_decomposition(graph), epsilon=0.25)
    return load_labeling(dump_labeling(labeling))


@pytest.fixture(scope="module")
def remote():
    return _labeled(grid_2d(5, weight_range=(1.0, 5.0), seed=1))


@pytest.fixture(scope="module")
def blob(remote):
    return pack_labeling(remote, num_shards=4)


class TestVertexCodecBinary:
    @pytest.mark.parametrize(
        "v",
        [
            0,
            -17,
            (1 << 63) - 1,
            -(1 << 63),
            1 << 80,           # bigint escape: outside i64
            -(1 << 100),
            3.5,
            -0.25,
            "node-a",
            "",
            "☃ snow",
            (),
            (1, 2),
            ("a", (3, 4)),
            ((0, 1), (2.5, "x")),
        ],
    )
    def test_round_trip(self, v):
        data = _encode(v)
        back, pos = decode_vertex_binary(data, 0)
        assert back == v
        assert pos == len(data)

    @pytest.mark.parametrize(
        "v, canon",
        [(1.0, 1), (-3.0, -3), ((1.0, 2.5), (1, 2.5)), (((4.0,), "x"), ((4,), "x"))],
    )
    def test_integral_floats_encode_canonically(self, v, canon):
        # The binary encoding of 1.0 IS the encoding of 1: one key per
        # numerically-equal vertex family, matching shard routing.
        assert _encode(v) == _encode(canon)
        back, _ = decode_vertex_binary(_encode(v), 0)
        assert back == canon and type(back) is type(canonical_vertex(v))

    @pytest.mark.parametrize("v", [True, None, {"a": 1}, [1, 2], b"raw"])
    def test_unsupported_types_rejected(self, v):
        with pytest.raises(SerializationError, match="unsupported vertex type"):
            _encode(v)

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError, match="unknown vertex tag"):
            decode_vertex_binary(b"\x7f", 0)

    @pytest.mark.parametrize(
        "data",
        [
            b"",                      # no tag at all
            b"\x01\x00\x00",          # int missing bytes
            b"\x03\x10\x00\x00\x00hi",  # str shorter than its length
            b"\x04\x02\x00\x00\x00\x01",  # tuple missing elements
        ],
    )
    def test_truncation_rejected(self, data):
        with pytest.raises(SerializationError, match="truncated"):
            decode_vertex_binary(data, 0)

    def test_malformed_utf8_rejected(self):
        with pytest.raises(SerializationError, match="malformed vertex string"):
            decode_vertex_binary(b"\x03\x02\x00\x00\x00\xff\xfe", 0)


class TestLabelRecords:
    def test_record_round_trip(self, remote):
        for label in list(remote.labels.values())[:10]:
            record = encode_label_binary(label)
            reader = BinaryLabelReader(
                pack_labeling(RemoteLabels(0.1, {label.vertex: label}), 1)
            )
            back = reader.decode_record_flat(0)
            assert back.vertex == label.vertex
            assert back.entries() == label.entries()

    def test_non_finite_portal_distance_rejected(self):
        label = FlatLabel.from_entries(7, {(0, 0, 0): [(0.0, float("inf"))]})
        with pytest.raises(SerializationError, match="non-finite"):
            encode_label_binary(label)

    def test_nan_portal_position_rejected(self):
        label = FlatLabel.from_entries(7, {(0, 0, 0): [(float("nan"), 1.0)]})
        with pytest.raises(SerializationError, match="non-finite"):
            encode_label_binary(label)

    def test_path_key_outside_i32_rejected(self):
        # The key's header slot is the record's entry header, so it is
        # refused as the label is built, before any record is written.
        with pytest.raises(SerializationError, match="does not fit i32"):
            encode_label_binary(
                FlatLabel.from_entries(7, {(1 << 40, 0, 0): [(0.0, 1.0)]})
            )


class TestPackAndRead:
    def test_magic_and_sniffing(self, blob):
        assert blob[: len(MAGIC)] == MAGIC
        assert is_binary_labels(blob)
        assert not is_binary_labels(b'{"format": "repro-distance-labels/1"}')
        assert not is_binary_labels(b"")

    def test_round_trip_preserves_labels_and_epsilon(self, remote, blob):
        back = read_labeling_binary(blob)
        assert back.epsilon == remote.epsilon
        assert list(map(label_content, back.labels.values())) == list(
            map(label_content, remote.labels.values())
        )

    def test_source_order_preserved(self, remote, blob):
        # Records keep the labeling's own order, so /1 -> /2 -> /1 is
        # byte-identical JSON.
        reader = BinaryLabelReader(blob)
        assert list(reader.iter_vertices()) == list(remote.labels)
        assert dump_labeling(read_labeling_binary(blob)) == dump_labeling(remote)

    def test_estimates_survive_round_trip(self, remote, blob):
        back = read_labeling_binary(blob)
        graph = grid_2d(5, weight_range=(1.0, 5.0), seed=1)
        for u, v in pair_sample(graph, 30, seed=3):
            assert back.estimate(u, v) == remote.estimate(u, v)

    def test_accounting_matches_word_model(self, remote, blob):
        reader = BinaryLabelReader(blob)
        assert reader.num_labels == remote.num_labels
        assert reader.total_words == sum(
            label.words for label in remote.labels.values()
        )
        assert sum(
            reader.shard_labels(s) for s in range(reader.num_shards)
        ) == reader.num_labels
        assert sum(
            reader.shard_words(s) for s in range(reader.num_shards)
        ) == reader.total_words

    def test_get_finds_every_vertex_and_misses_cleanly(self, remote, blob):
        reader = BinaryLabelReader(blob)
        for v in remote.vertices():
            found = reader.get_flat(v)
            assert found is not None and found.vertex == v
            assert reader.shard_of(v) < reader.num_shards
        assert reader.get_flat((99, 99)) is None
        assert reader.get_flat("ghost") is None

    def test_get_routes_numeric_equals_to_one_record(self):
        remote = RemoteLabels(
            0.1, {1.0: FlatLabel.from_entries(1.0, {(0, 0, 0): [(0.0, 2.0)]})}
        )
        reader = BinaryLabelReader(pack_labeling(remote, num_shards=8))
        assert reader.get_flat(1) is not None
        assert reader.get_flat(1.0) is not None
        assert reader.shard_of(1) == reader.shard_of(1.0)

    def test_write_to_file_and_mmap_back(self, remote, tmp_path):
        path = tmp_path / "labels.bin"
        written = write_labeling_binary(remote, path, num_shards=4)
        assert path.stat().st_size == written
        with BinaryLabelReader(path) as reader:
            assert reader.mapped_bytes == written
            assert reader.num_labels == remote.num_labels
            v = next(iter(remote.vertices()))
            assert label_content(reader.get_flat(v)) == label_content(remote.labels[v])

    def test_duplicate_vertices_rejected_at_pack_time(self):
        # 1 and 1.0 are one canonical vertex; a labeling smuggling both
        # (impossible from a dict keyed by vertex, but a corrupt or
        # hand-built one can) must be refused, not silently packed.
        class TwoCopies:
            epsilon = 0.1
            labels = {
                "a": FlatLabel.from_entries(1, {}),
                "b": FlatLabel.from_entries(1.0, {}),
            }

        with pytest.raises(SerializationError, match="duplicate label"):
            pack_labeling(TwoCopies())

    def test_bad_shard_count_rejected(self, remote):
        with pytest.raises(SerializationError, match="num_shards"):
            pack_labeling(remote, num_shards=0)

    def test_non_finite_epsilon_rejected(self):
        with pytest.raises(SerializationError, match="non-finite epsilon"):
            pack_labeling(RemoteLabels(float("inf"), {}))

    def test_empty_labeling_round_trips(self):
        back = read_labeling_binary(pack_labeling(RemoteLabels(0.5, {})))
        assert back.epsilon == 0.5 and back.labels == {}

    def test_crc_collisions_resolved_by_vertex_compare(self, monkeypatch):
        # Force every key to one hash value: lookups must fall back to
        # comparing decoded vertices inside the equal-crc run, so a
        # collision costs a scan, never a wrong label.
        import repro.core.binfmt as binfmt

        class ConstCrc:
            @staticmethod
            def crc32(data):
                return 42

        monkeypatch.setattr(binfmt, "zlib", ConstCrc)
        remote = RemoteLabels(
            0.1,
            {v: FlatLabel.from_entries(v, {(v, 0, 0): [(0.0, float(v))]}) for v in range(20)},
        )
        reader = BinaryLabelReader(pack_labeling(remote, num_shards=3))
        for v in range(20):
            assert reader.get_flat(v).vertex == v
        assert reader.get_flat(99) is None


class TestReaderLookup:
    """Both hash-index search paths: ``bisect`` over the zero-copy u32
    columns (little-endian hosts) and the struct loop (big-endian
    hosts, forced here by clearing ``_LITTLE_ENDIAN`` before opening)."""

    ABSENT = {"low": 1, "mid": 15, "high": 2**32 - 1}

    @pytest.fixture(params=["bisect", "struct"])
    def lookup_path(self, request, monkeypatch):
        import zlib

        import repro.core.binfmt as binfmt
        from repro.core.serialize import shard_key_bytes

        forced = {shard_key_bytes(v): crc for v, crc in self.ABSENT.items()}

        class FewCrcs:
            # Six crc values for every present vertex, so runs of equal
            # crcs span several records, and crcs below, between and
            # above them for three absent vertices.
            @staticmethod
            def crc32(data):
                return forced.get(data, 10 + 10 * (zlib.crc32(data) % 6))

        monkeypatch.setattr(binfmt, "zlib", FewCrcs)
        if request.param == "struct":
            monkeypatch.setattr(binfmt, "_LITTLE_ENDIAN", False)
        return request.param

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_colliding_and_absent_vertices_resolve(
        self, lookup_path, num_shards, tmp_path
    ):
        remote = RemoteLabels(
            0.1,
            {v: FlatLabel.from_entries(v, {(v, 0, 0): [(0.0, float(v))]}) for v in range(40)},
        )
        path = tmp_path / "l.bin"
        write_labeling_binary(remote, path, num_shards=num_shards)
        with BinaryLabelReader(path) as reader:
            assert (reader._crcs is None) == (lookup_path == "struct")
            for v in range(40):
                assert v in reader
                assert label_content(reader.get_flat(v)) == label_content(
                    remote.labels[v]
                )
            for v in [*self.ABSENT, 40, 99, -1, (1, 2)]:
                assert v not in reader
                assert reader.get_flat(v) is None

    def test_close_after_lookups_then_lookups_fail(self, lookup_path, remote, tmp_path):
        path = tmp_path / "l.bin"
        write_labeling_binary(remote, path)
        reader = BinaryLabelReader(path)
        vertices = sorted(remote.vertices())
        for v in vertices[:20]:
            assert label_content(reader.get_flat(v, memo=False)) == label_content(
                remote.labels[v]
            )
        reader.close()  # no view of the map is left: no BufferError
        assert reader._crcs is None
        for v in vertices[:2]:
            with pytest.raises(SerializationError, match="is closed"):
                reader.get_flat(v)
            with pytest.raises(SerializationError, match="is closed"):
                v in reader
        reader.close()


class TestReaderValidation:
    def _corrupt(self, blob, offset, raw):
        return blob[:offset] + raw + blob[offset + len(raw):]

    def test_wrong_magic_rejected(self, blob):
        bad = self._corrupt(blob, 0, b"NOTLABEL")
        with pytest.raises(SerializationError, match="magic"):
            BinaryLabelReader(bad)

    def test_too_short_rejected(self):
        with pytest.raises(SerializationError, match="too short"):
            BinaryLabelReader(MAGIC + b"\x00" * 8)

    def test_truncated_file_rejected(self, blob):
        with pytest.raises(SerializationError, match="truncated or padded"):
            BinaryLabelReader(blob[:-3])

    def test_padded_file_rejected(self, blob):
        with pytest.raises(SerializationError, match="truncated or padded"):
            BinaryLabelReader(blob + b"\x00\x00")

    def test_zero_shards_rejected(self, blob):
        bad = self._corrupt(blob, 12, struct.pack("<I", 0))
        with pytest.raises(SerializationError, match="zero shards"):
            BinaryLabelReader(bad)

    def test_overlapping_regions_rejected(self, blob):
        # Point the records region before the offset index.
        bad = self._corrupt(blob, 56, struct.pack("<Q", 1))
        with pytest.raises(SerializationError, match="overlap"):
            BinaryLabelReader(bad)

    def test_shard_directory_must_cover_labels(self, blob):
        reader = BinaryLabelReader(blob)
        dir_off = reader._shard_dir_off
        last = dir_off + 8 * reader.num_shards
        bad = self._corrupt(blob, last, struct.pack("<Q", reader.num_labels + 5))
        with pytest.raises(SerializationError, match="shard directory"):
            BinaryLabelReader(bad)

    def test_shard_directory_bounds_must_be_ordered(self, blob):
        # A middle bound past the label count would send a lookup past
        # the end of the hash index.
        reader = BinaryLabelReader(blob)
        middle = reader._shard_dir_off + 8
        bad = self._corrupt(blob, middle, struct.pack("<Q", reader.num_labels + 5))
        with pytest.raises(SerializationError, match="out of order"):
            BinaryLabelReader(bad)

    def test_record_span_outside_file_rejected(self, blob):
        reader = BinaryLabelReader(blob)
        bad = self._corrupt(
            blob, reader._offset_idx_off + 8, struct.pack("<Q", 1 << 40)
        )
        with pytest.raises(SerializationError, match="spans outside|truncated"):
            BinaryLabelReader(bad).decode_record_flat(0)

    def test_record_id_out_of_range(self, blob):
        reader = BinaryLabelReader(blob)
        with pytest.raises(SerializationError, match="out of range"):
            reader.decode_record_flat(reader.num_labels)

    def test_duplicate_records_rejected_on_read(self):
        # Our writer cannot produce duplicates (pack_labeling raises),
        # so forge a corrupt file: pack vertices 10 and 10.5 — an int
        # and a float record are both tag + 8 bytes — then overwrite
        # the second record's vertex field with 10's encoding.
        entries = {(0, 0, 0): [(0.0, 1.0)]}
        remote = RemoteLabels(
            0.1,
            {
                10: FlatLabel.from_entries(10, entries),
                10.5: FlatLabel.from_entries(10.5, entries),
            },
        )
        blob = pack_labeling(remote, num_shards=1)
        reader = BinaryLabelReader(blob)
        start, _ = reader._record_span(1)
        forged = bytearray(blob)
        forged[start : start + 9] = b"\x01" + struct.pack("<q", 10)
        with pytest.raises(SerializationError, match="duplicate label.*10"):
            read_labeling_binary(bytes(forged))

    def test_close_is_idempotent(self, remote, tmp_path):
        path = tmp_path / "l.bin"
        write_labeling_binary(remote, path)
        reader = BinaryLabelReader(path)
        reader.close()
        reader.close()  # no raise

    def test_lookups_after_close_name_the_closed_file(self, remote, tmp_path):
        # Closing swaps the mapped buffer for an empty one; a lookup
        # must then say so, not fail with a raw struct.error.
        path = tmp_path / "l.bin"
        write_labeling_binary(remote, path)
        store = ShardedLabelStore.mapped(path)
        u, v = sorted(remote.vertices())[:2]
        assert store.estimate(u, v) == remote.estimate(u, v)
        store.close()
        for lookup in (
            lambda: store.estimate(u, v),
            lambda: u in store,
            lambda: store.reader.get_flat(u),
            lambda: store.reader.decode_record_flat(0),
            lambda: store.reader.shard_words(0),
        ):
            with pytest.raises(SerializationError, match="is closed") as info:
                lookup()
            assert str(path) in str(info.value)
        in_memory = BinaryLabelReader(pack_labeling(remote))
        in_memory.close()
        with pytest.raises(SerializationError, match="in-memory is closed"):
            in_memory.get_flat(u)

    def test_header_size_is_stable(self):
        # The documented layout: 80 bytes, and every writer/reader in
        # this module agrees.
        assert HEADER_BYTES == 80


class TestTreeVertices:
    def test_int_vertices_round_trip_from_real_graph(self):
        remote = _labeled(random_tree(24, weight_range=(1.0, 3.0), seed=2))
        back = read_labeling_binary(pack_labeling(remote, num_shards=4))
        assert list(map(label_content, back.labels.values())) == list(
            map(label_content, remote.labels.values())
        )
        assert json.loads(dump_labeling(back)) == json.loads(dump_labeling(remote))

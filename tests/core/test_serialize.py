import json

import pytest

from repro.core import build_decomposition, build_labeling
from repro.core.flat import FlatLabel, label_content
from repro.core.labeling import estimate_distance
from repro.core.serialize import (
    RemoteLabels,
    SerializationError,
    canonical_vertex,
    decode_label,
    decode_vertex,
    dump_labeling,
    encode_label,
    encode_vertex,
    load_labeling,
    shard_key_bytes,
    wire_bits,
)
from repro.generators import grid_2d, random_tree
from repro.graphs import dijkstra

from tests.conftest import pair_sample


class TestVertexCodec:
    @pytest.mark.parametrize(
        "v", [0, -17, 3.5, "node-a", (1, 2), ("a", (3, 4)), ((0, 1), (2, 3))]
    )
    def test_round_trip(self, v):
        assert decode_vertex(encode_vertex(v)) == v

    def test_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_vertex({"a": 1})

    def test_bool_rejected(self):
        # bools would silently decode as ints; reject them instead.
        with pytest.raises(SerializationError):
            encode_vertex(True)

    def test_malformed_payload_rejected(self):
        with pytest.raises(SerializationError):
            decode_vertex({"unknown": []})

    def test_bool_rejected_on_decode_too(self):
        with pytest.raises(SerializationError):
            decode_vertex(True)


class TestLabelCodec:
    def test_label_round_trip(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        for v in list(small_grid.vertices())[:10]:
            original = labeling.label(v)
            recovered = decode_label(encode_label(original))
            assert isinstance(recovered, FlatLabel)
            assert label_content(recovered) == label_content(original)

    def test_encoded_label_is_json_safe(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        label = labeling.label((0, 0))
        json.dumps(encode_label(label))  # no raise

    def test_malformed_label_rejected(self):
        with pytest.raises(SerializationError):
            decode_label({"nope": 1})

    def test_malformed_key_rejected(self):
        with pytest.raises(SerializationError):
            decode_label({"v": 0, "e": {"1:2": []}})

    @pytest.mark.parametrize(
        "payload, reason",
        [
            ([0, {}], "malformed label payload"),
            ({"e": {}}, "malformed label payload"),
            ({"v": 0, "e": []}, "malformed label payload"),
            ({"v": 0, "e": {"0:0:0": 5}}, "not a portal list"),
            ({"v": 0, "e": {"0:0:0": [[1]]}}, "holds portal"),
            ({"v": 0, "e": {"0:0:0": [[1.0, 2.0, 3.0]]}}, "holds portal"),
            ({"v": 0, "e": {"0:0:0": [7]}}, "holds portal"),
            ({"v": 0, "e": {"0:0:0": [["1.0", 2.0]]}}, "not two finite numbers"),
            ({"v": 0, "e": {"0:0:0": [[0.0, True]]}}, "not two finite numbers"),
            ({"v": 0, "e": {"0:0:0": [[0.0, None]]}}, "not two finite numbers"),
            ({"v": 0, "e": {"0:0:0": [[0.0, float("nan")]]}}, "not two finite numbers"),
            ({"v": 0, "e": {"0:0:0": [[float("inf"), 1.0]]}}, "not two finite numbers"),
            ({"v": 0, "e": {"4294967296:0:0": [[0.0, 1.0]]}}, "does not fit the key code"),
            ({"v": True, "e": {}}, "malformed vertex"),
        ],
        ids=[
            "not-a-dict", "no-vertex", "entries-a-list", "portals-not-a-list",
            "short-portal", "long-portal", "portal-not-a-pair", "string-value",
            "bool-value", "null-value", "nan-value", "inf-value", "key-outside-i32",
            "bool-vertex",
        ],
    )
    def test_malformed_parts_rejected_with_a_reason(self, payload, reason):
        # decode_label also parses LABEL replies from remote nodes.
        with pytest.raises(SerializationError, match=reason) as info:
            decode_label(payload)
        assert "\n" not in str(info.value)


class TestLabelingRoundTrip:
    def test_queries_survive_round_trip(self, tmp_path):
        g = grid_2d(6, weight_range=(1.0, 5.0), seed=1)
        labeling = build_labeling(g, build_decomposition(g), epsilon=0.25)
        path = tmp_path / "labels.json"
        dump_labeling(labeling, path)
        epsilon, labels = load_labeling(path)
        assert epsilon == 0.25
        assert set(labels) == set(g.vertices())
        for u, v in pair_sample(g, 30, seed=2):
            original = labeling.estimate(u, v)
            recovered = estimate_distance(labels[u], labels[v])
            assert recovered == pytest.approx(original)

    def test_load_from_string(self):
        g = random_tree(20, seed=3)
        labeling = build_labeling(g, build_decomposition(g))
        text = dump_labeling(labeling)
        epsilon, labels = load_labeling(text)
        assert len(labels) == 20

    def test_unknown_format_rejected(self):
        with pytest.raises(SerializationError):
            load_labeling(json.dumps({"format": "other", "labels": []}))

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError):
            load_labeling("{broken")

    def test_format_stamp_is_versioned(self):
        from repro.core.serialize import (
            LABELS_FORMAT,
            LABELS_FORMAT_PREFIX,
            LABELS_FORMAT_VERSION,
        )

        g = random_tree(10, seed=5)
        labeling = build_labeling(g, build_decomposition(g))
        payload = json.loads(dump_labeling(labeling))
        assert payload["format"] == LABELS_FORMAT
        assert LABELS_FORMAT == f"{LABELS_FORMAT_PREFIX}/{LABELS_FORMAT_VERSION}"

    def test_missing_format_stamp_rejected(self):
        with pytest.raises(SerializationError, match="no format stamp"):
            load_labeling(json.dumps({"epsilon": 0.1, "labels": []}))

    def test_future_version_rejected_with_version_message(self):
        # A v99 file must be refused up front (the serve layer relies on
        # this to reject incompatible files at startup, not mid-request).
        payload = {
            "format": "repro-distance-labels/99",
            "epsilon": 0.1,
            "labels": [],
        }
        with pytest.raises(
            SerializationError, match="unsupported labels format version 99"
        ):
            load_labeling(json.dumps(payload))

    @pytest.mark.parametrize(
        "stamp", ["repro-distance-labels", "repro-distance-labels/x", 1, True]
    )
    def test_garbled_format_stamp_rejected(self, stamp):
        from repro.core.serialize import check_labels_format

        with pytest.raises(SerializationError, match="unknown format"):
            check_labels_format(stamp)


class TestRemoteLabels:
    @pytest.fixture
    def shipped(self):
        g = grid_2d(6, weight_range=(1.0, 5.0), seed=1)
        labeling = build_labeling(g, build_decomposition(g), epsilon=0.25)
        return g, labeling, load_labeling(dump_labeling(labeling))

    def test_load_returns_remote_labels(self, shipped):
        _, _, remote = shipped
        assert isinstance(remote, RemoteLabels)

    def test_tuple_unpacking_still_works(self, shipped):
        _, _, remote = shipped
        epsilon, labels = remote
        assert epsilon == 0.25
        assert labels is remote.labels

    def test_estimate_matches_labeling(self, shipped):
        g, labeling, remote = shipped
        for u, v in pair_sample(g, 30, seed=4):
            assert remote.estimate(u, v) == pytest.approx(
                labeling.estimate(u, v)
            )

    def test_estimate_is_graph_free(self, shipped):
        # The wrapper holds nothing but epsilon and the label dict.
        _, _, remote = shipped
        assert set(remote._fields) == {"epsilon", "labels"}

    def test_missing_vertex_one_line_error(self, shipped):
        from repro.util.errors import GraphError

        _, _, remote = shipped
        with pytest.raises(GraphError, match="has no label"):
            remote.estimate((0, 0), "ghost")

    def test_vertices_and_count(self, shipped):
        g, _, remote = shipped
        assert set(remote.vertices()) == set(g.vertices())
        assert remote.num_labels == g.num_vertices

    def test_payload_without_label_list_rejected(self):
        with pytest.raises(SerializationError):
            load_labeling(
                json.dumps({"format": "repro-distance-labels/1", "epsilon": 0.1})
            )


_GOOD_LABEL = '{"v":1,"e":{"0:0:0":[[0.0,1.5]]}}'


def _json_payload(epsilon="0.25", label=_GOOD_LABEL):
    """A one-label ``/1`` text with *epsilon* and *label* spliced in
    verbatim (an *epsilon* of None leaves the field out)."""
    head = '{"format":"repro-distance-labels/1"'
    if epsilon is not None:
        head += ',"epsilon":%s' % epsilon
    return head + ',"labels":[%s]}' % label


class TestMalformedJsonPayloads:
    """Every malformed ``/1`` payload raises :class:`SerializationError`
    with a one-line reason, never a ``KeyError``, ``ValueError`` or
    ``AttributeError``, and nothing non-finite loads."""

    def test_well_formed_payload_loads(self):
        remote = load_labeling(_json_payload())
        assert remote.epsilon == 0.25
        assert remote.labels[1].entries() == {(0, 0, 0): [(0.0, 1.5)]}

    def test_decreasing_positions_would_underestimate(self):
        # The payload the loader refuses: the merge, which assumes
        # ascending positions, gives -2.0 where the minimum is 6.0.
        from tests.reference_labeling import dict_estimate, VertexLabel

        u = VertexLabel(0, {(0, 0, 0): [(5.0, 100.0), (0.0, 1.0)]})
        v = VertexLabel(1, {(0, 0, 0): [(4.0, 1.0)]})
        assert dict_estimate(u, v) == -2.0
        ties = load_labeling(_json_payload(label='{"v":1,"e":{"0:0:0":[[2,1],[2,0]]}}'))
        assert ties.labels[1].entries() == {(0, 0, 0): [(2.0, 1.0), (2.0, 0.0)]}

    @pytest.mark.parametrize(
        "text, reason",
        [
            (_json_payload(label='{"v":1,"e":{"0:0:0":[[1]]}}'), "holds portal"),
            (_json_payload(epsilon=None), "no epsilon"),
            (_json_payload(label='{"v":1,"e":[]}'), "malformed label payload"),
            (_json_payload(epsilon="NaN"), "non-finite number NaN"),
            (_json_payload(epsilon="Infinity"), "non-finite number Infinity"),
            (_json_payload(epsilon="1e999"), "epsilon is inf"),
            (_json_payload(epsilon='"0.25"'), "epsilon is '0.25'"),
            (_json_payload(epsilon="true"), "epsilon is True"),
            (
                _json_payload(label='{"v":1,"e":{"0:0:0":[[0.0,NaN]]}}'),
                "non-finite number NaN",
            ),
            (
                _json_payload(label='{"v":1,"e":{"0:0:0":[[-Infinity,1.0]]}}'),
                "non-finite number -Infinity",
            ),
            (
                _json_payload(label='{"v":1,"e":{"0:0:0":[[0.0,1e999]]}}'),
                "not two finite numbers",
            ),
            (
                _json_payload(label='{"v":1,"e":{"0:0:0":[[0.0,1%s]]}}' % ("0" * 400)),
                "not two finite numbers",
            ),
            (_json_payload(epsilon="1" + "0" * 400), "not a finite number"),
            (_json_payload(epsilon="1" + "0" * 5000), "invalid JSON: Exceeds the limit"),
            (_json_payload(label='{"v":NaN,"e":{}}'), "non-finite number NaN"),
            (_json_payload(label="[1,2]"), "malformed label payload"),
            (_json_payload(label="7"), "malformed label payload"),
            (
                _json_payload(label='{"v":1,"e":{"0:0:0":[[5,100],[0,1]]}}'),
                r"holds portal positions out of order \(5.0 then 0.0\)",
            ),
            (
                _json_payload(label='{"v":1,"e":{"0:0:0":[[0,1],[2,1],[2,0],[1,3]]}}'),
                r"path key '0:0:0' of vertex 1 holds portal positions out of order",
            ),
            (
                _json_payload(label='{"v":1,"e":{"0:65536:0":[[0.0,1.0]]}}'),
                r"path key \(0, 65536, 0\) of vertex 1 does not fit the key code",
            ),
        ],
        ids=[
            "short-portal", "no-epsilon", "entries-a-list", "nan-epsilon",
            "infinity-epsilon", "overflowing-epsilon", "string-epsilon",
            "bool-epsilon", "nan-portal", "minus-infinity-portal",
            "overflowing-portal", "huge-int-portal", "huge-int-epsilon",
            "int-past-the-digit-limit", "nan-vertex",
            "label-a-list", "label-a-number", "decreasing-positions",
            "decreasing-after-a-tie", "phase-outside-u16",
        ],
    )
    def test_malformation_raises_one_line_reason(self, text, reason):
        with pytest.raises(SerializationError, match=reason) as info:
            load_labeling(text)
        assert "\n" not in str(info.value)


class TestWireBits:
    def test_positive_and_tracks_entries(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        labels = sorted(
            (labeling.label(v) for v in small_grid.vertices()),
            key=lambda l: l.num_portals,
        )
        assert wire_bits(labels[0]) > 0
        assert wire_bits(labels[-1]) >= wire_bits(labels[0])

    def test_binary_codec_measures_packed_record(self, small_grid):
        from repro.core.binfmt import encode_label_binary

        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        label = labeling.label((0, 0))
        assert wire_bits(label, codec="binary") == 8 * len(
            encode_label_binary(label)
        )

    def test_non_finite_distance_rejected(self):
        label = FlatLabel.from_entries(0, {(0, 0, 0): [(0.0, float("inf"))]})
        with pytest.raises(SerializationError, match="non-finite"):
            wire_bits(label)
        with pytest.raises(SerializationError, match="non-finite"):
            wire_bits(label, codec="binary")


def _with_bad_portal(dist):
    """A one-vertex labeling holding *dist* in a portal entry."""
    return RemoteLabels(
        0.25, {7: FlatLabel.from_entries(7, {(0, 0, 0): [(1.0, dist)]})}
    )


class TestStrictJsonDump:
    """Regression: ``dump_labeling`` used to write non-strict JSON.

    Without ``allow_nan=False`` a labeling holding an ``inf`` distance
    silently serialized the token ``Infinity`` — which the serve
    protocol forbids on the wire and ``load_labeling``'s own strict
    parse cannot read back.  Now it raises, naming the culprit.
    """

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_distance_raises_not_writes(self, tmp_path, bad):
        path = tmp_path / "labels.json"
        with pytest.raises(SerializationError, match="vertex 7"):
            dump_labeling(_with_bad_portal(bad), path)
        assert not path.exists()  # nothing half-written

    def test_non_finite_epsilon_raises(self):
        remote = RemoteLabels(float("inf"), {})
        with pytest.raises(SerializationError, match="epsilon"):
            dump_labeling(remote)

    def test_binary_codec_rejects_non_finite_too(self):
        with pytest.raises(SerializationError, match="non-finite"):
            dump_labeling(_with_bad_portal(float("inf")), codec="binary")

    def test_finite_labelings_unaffected(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        text = dump_labeling(labeling)
        assert "Infinity" not in text and "NaN" not in text


class TestDuplicateVertexRejected:
    """Regression: duplicate vertices used to win silently, last-one.

    A payload naming the same vertex twice is corrupt — keeping the
    last copy silently drops a label, turning file corruption into
    spurious "no label" answers far from the cause.
    """

    def _payload(self, vertex_jsons):
        labels = ",".join(
            '{"v": %s, "e": {"0:0:0": [[0.0, 1.0]]}}' % v for v in vertex_jsons
        )
        return (
            '{"format": "repro-distance-labels/1", "epsilon": 0.25, '
            '"labels": [%s]}' % labels
        )

    def test_duplicate_vertex_raises_naming_it(self):
        with pytest.raises(SerializationError, match="duplicate label.*7"):
            load_labeling(self._payload(["7", "3", "7"]))

    def test_distinct_vertices_load_fine(self):
        remote = load_labeling(self._payload(["7", "3"]))
        assert set(remote.labels) == {7, 3}

    def test_binary_codec_rejects_duplicates_at_pack_time(self):
        from repro.core.binfmt import pack_labeling

        class Doubled:
            epsilon = 0.25
            labels = {
                "a": FlatLabel.from_entries(7, {}),
                "b": FlatLabel.from_entries(7, {}),
            }

        with pytest.raises(SerializationError, match="duplicate label"):
            pack_labeling(Doubled())


class TestCanonicalVertex:
    @pytest.mark.parametrize(
        "v, expected",
        [
            (1.0, 1),
            (-2.0, -2),
            (0.0, 0),
            (2.5, 2.5),
            (7, 7),
            ("x", "x"),
            ((1.0, "a"), (1, "a")),
            (((3.0,), 2.5), ((3,), 2.5)),
        ],
    )
    def test_integral_floats_collapse(self, v, expected):
        canon = canonical_vertex(v)
        assert canon == expected and type(canon) is type(expected)

    @pytest.mark.parametrize("v", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_floats_pass_through(self, v):
        # is_integer() is False for inf/nan: they stay floats (and are
        # rejected later, by the codecs that forbid them).
        assert isinstance(canonical_vertex(v), float)

    def test_shard_key_bytes_identifies_numeric_family(self):
        assert shard_key_bytes(1) == shard_key_bytes(1.0)
        assert shard_key_bytes((1, 2.0)) == shard_key_bytes((1.0, 2))
        assert shard_key_bytes(1) != shard_key_bytes(1.5)
        assert shard_key_bytes("1") != shard_key_bytes(1)


class TestCodecDispatch:
    @pytest.fixture
    def remote(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        return load_labeling(dump_labeling(labeling))

    def test_dump_binary_returns_blob_and_loads_back(self, remote, tmp_path):
        from repro.core.binfmt import is_binary_labels

        blob = dump_labeling(remote, codec="binary")
        assert isinstance(blob, bytes) and is_binary_labels(blob)
        assert list(map(label_content, load_labeling(blob).labels.values())) == list(
            map(label_content, remote.labels.values())
        )

    def test_dump_binary_to_file_sniffed_on_load(self, remote, tmp_path):
        path = tmp_path / "labels.bin"
        dump_labeling(remote, path, codec="binary")
        back = load_labeling(path)
        assert back.epsilon == remote.epsilon
        assert list(map(label_content, back.labels.values())) == list(
            map(label_content, remote.labels.values())
        )

    def test_round_trip_through_binary_is_byte_identical_json(self, remote):
        blob = dump_labeling(remote, codec="binary")
        assert dump_labeling(load_labeling(blob)) == dump_labeling(remote)

    def test_unknown_codec_rejected(self, remote):
        with pytest.raises(SerializationError, match="unknown codec"):
            dump_labeling(remote, codec="msgpack")

    def test_json_payload_claiming_binary_version_rejected(self):
        payload = {
            "format": "repro-distance-labels/2",
            "epsilon": 0.1,
            "labels": [],
        }
        with pytest.raises(SerializationError, match="binary"):
            load_labeling(json.dumps(payload))

    def test_undecodable_bytes_payload_rejected(self):
        with pytest.raises(SerializationError, match="undecodable"):
            load_labeling(b"\xff\xfe\x00garbage")

    def test_json_bytes_payload_accepted(self, remote):
        text = dump_labeling(remote)
        back = load_labeling(text.encode("utf-8"))
        assert list(map(label_content, back.labels.values())) == list(
            map(label_content, remote.labels.values())
        )

"""Property-based tests: label serialization round-trips exactly.

Both codecs: the JSON (``/1``) encoders round-trip values exactly; the
packed binary (``/2``) codec round-trips up to vertex canonicalization
(``1.0`` and ``1`` are one vertex family — the binary form keeps the
canonical member, which compares equal), and never changes an
estimate.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binfmt import (
    decode_vertex_binary,
    encode_vertex_binary,
    pack_labeling,
    read_labeling_binary,
)
from repro.core.flat import FlatLabel, label_content
from repro.core.labeling import estimate_distance
from repro.core.serialize import (
    RemoteLabels,
    SerializationError,
    _label_json,
    canonical_vertex,
    decode_label,
    decode_vertex,
    encode_label,
    encode_vertex,
    shard_key_bytes,
)


scalar = st.one_of(
    st.integers(-(10**9), 10**9),
    st.text(max_size=12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
vertex_strategy = st.recursive(
    scalar,
    lambda inner: st.tuples(inner, inner),
    max_leaves=4,
)

entry_list = st.lists(
    st.tuples(
        st.floats(0, 1e6, allow_nan=False),
        st.floats(0, 1e6, allow_nan=False),
    ),
    max_size=6,
).map(sorted)

label_strategy = st.builds(
    lambda v, entries: FlatLabel.from_entries(
        v,
        {
            (i, j % 3, j % 2): [tuple(e) for e in ent]
            for j, (i, ent) in enumerate(entries.items())
        },
    ),
    v=vertex_strategy,
    entries=st.dictionaries(st.integers(0, 50), entry_list, max_size=5),
)


class TestSerializationProperties:
    @settings(max_examples=100, deadline=None)
    @given(v=vertex_strategy)
    def test_vertex_round_trip(self, v):
        assert decode_vertex(encode_vertex(v)) == v

    @settings(max_examples=60, deadline=None)
    @given(label=label_strategy)
    def test_label_round_trip(self, label):
        back = decode_label(encode_label(label))
        assert label_content(back) == label_content(label)

    @settings(max_examples=40, deadline=None)
    @given(a=label_strategy, b=label_strategy)
    def test_estimates_stable_under_round_trip(self, a, b):
        before = estimate_distance(a, b)
        after = estimate_distance(
            decode_label(encode_label(a)), decode_label(encode_label(b))
        )
        assert before == after

    @settings(max_examples=150, deadline=None)
    @given(
        v=vertex_strategy,
        entries=st.dictionaries(
            st.tuples(st.integers(0, 50), st.integers(0, 3), st.integers(0, 3)),
            st.lists(
                st.tuples(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                min_size=1,
                max_size=6,
            ),
            max_size=5,
        ),
    )
    def test_flat_label_json_text_is_the_encoders(self, v, entries):
        # The /1 dump formats a FlatLabel's portals itself: every
        # finite double (-0.0, subnormals, 1e300) must come out as the
        # JSON encoder writes the entries dict.
        label = FlatLabel.from_entries(v, entries)
        expected = json.dumps(
            encode_label(label), separators=(",", ":"), allow_nan=False
        )
        assert _label_json(label) == expected


def _binary_vertex_round_trip(v):
    out = bytearray()
    encode_vertex_binary(v, out)
    back, pos = decode_vertex_binary(bytes(out), 0)
    assert pos == len(out)
    return back


class TestBinaryCodecProperties:
    @settings(max_examples=100, deadline=None)
    @given(v=vertex_strategy)
    def test_vertex_round_trip_up_to_canonicalization(self, v):
        back = _binary_vertex_round_trip(v)
        assert back == canonical_vertex(v)
        assert back == v  # canonical member compares equal to the original

    @settings(max_examples=100, deadline=None)
    @given(v=vertex_strategy)
    def test_encoding_is_canonical_per_numeric_family(self, v):
        # Same shard key <=> same binary encoding: the hash index and
        # the record field agree on one form per vertex family.
        out_v, out_c = bytearray(), bytearray()
        encode_vertex_binary(v, out_v)
        encode_vertex_binary(canonical_vertex(v), out_c)
        assert bytes(out_v) == bytes(out_c)

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(label_strategy, max_size=6, unique_by=lambda l: shard_key_bytes(l.vertex)),
        epsilon=st.floats(0.01, 2.0, allow_nan=False),
        num_shards=st.integers(1, 8),
    )
    def test_labeling_pack_read_round_trip(self, labels, epsilon, num_shards):
        remote = RemoteLabels(epsilon, {l.vertex: l for l in labels})
        back = read_labeling_binary(pack_labeling(remote, num_shards=num_shards))
        assert back.epsilon == epsilon
        assert list(map(label_content, back.labels.values())) == list(
            map(label_content, remote.labels.values())
        )

    @settings(max_examples=30, deadline=None)
    @given(a=label_strategy, b=label_strategy)
    def test_estimates_stable_under_binary_round_trip(self, a, b):
        if shard_key_bytes(a.vertex) == shard_key_bytes(b.vertex):
            return  # one vertex family: not a valid two-label store
        remote = RemoteLabels(0.25, {a.vertex: a, b.vertex: b})
        back = read_labeling_binary(pack_labeling(remote, num_shards=2))
        assert estimate_distance(
            back.labels[a.vertex], back.labels[b.vertex]
        ) == estimate_distance(a, b)


class TestShardKeyBytes:
    """:func:`shard_key_bytes` is the canonical JSON form of every
    vertex, ints (bigints and negatives) included, and refuses bools."""

    @staticmethod
    def json_form(v) -> bytes:
        return json.dumps(
            encode_vertex(canonical_vertex(v)), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.recursive(
            st.one_of(
                st.integers(),  # bigints and negatives included
                st.integers(-(1 << 80), 1 << 80),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=8),
            ),
            lambda inner: st.tuples(inner, inner),
            max_leaves=4,
        )
    )
    def test_bytes_equal_the_json_form(self, v):
        assert shard_key_bytes(v) == self.json_form(v)

    def test_bools_are_refused(self):
        for v in (True, False, (1, True)):
            with pytest.raises(SerializationError, match="unsupported vertex type"):
                shard_key_bytes(v)

"""Sharded label stores: lookup, sharding stability, accounting."""

import pytest

from repro.core.flat import FlatLabel, label_content
from repro.core.serialize import RemoteLabels, dump_labeling
from repro.serve.store import (
    ShardedLabelStore,
    StoreCatalog,
    shard_key,
)
from repro.util.errors import GraphError



@pytest.fixture
def store(remote_labels) -> ShardedLabelStore:
    return ShardedLabelStore.from_remote("grid", remote_labels, num_shards=4)


class TestShardedLabelStore:
    def test_every_label_lands_in_its_shard(self, store, remote_labels):
        per_shard = [0] * store.num_shards
        for v in remote_labels.vertices():
            assert v in store
            assert store.flat_label(v).vertex == v
            per_shard[store.shard_index(v)] += 1
        assert per_shard == [s.num_labels for s in store.shards]

    def test_shard_counts_sum_to_total(self, store, remote_labels):
        assert store.num_labels == remote_labels.num_labels
        assert sum(s.num_labels for s in store.shards) == store.num_labels
        assert sum(s.words for s in store.shards) == store.total_words
        assert store.total_words == sum(
            label.words for label in remote_labels.labels.values()
        )

    def test_sharding_is_stable(self, store, remote_labels):
        # The shard function must not depend on Python's salted hash():
        # shard_key goes through the deterministic wire encoding.
        assert shard_key((0, 1)) == b'{"t":[0,1]}'
        rebuilt = ShardedLabelStore.from_remote("b", remote_labels, num_shards=4)
        for v in remote_labels.vertices():
            assert store.shard_index(v) == rebuilt.shard_index(v)

    def test_estimates_match_remote_labels_exactly(self, store, remote_labels):
        vertices = sorted(remote_labels.vertices())
        for u, v in zip(vertices, reversed(vertices)):
            assert store.estimate(u, v) == remote_labels.estimate(u, v)

    def test_unknown_vertex(self, store):
        with pytest.raises(GraphError, match="no label in store"):
            store.flat_label((99, 99))
        assert (99, 99) not in store

    def test_single_shard_degenerates_to_flat_dict(self, remote_labels):
        store = ShardedLabelStore.from_remote("one", remote_labels, num_shards=1)
        assert store.num_labels == remote_labels.num_labels
        assert all(store.shard_index(v) == 0 for v in remote_labels.vertices())

    def test_invalid_shard_count(self, remote_labels):
        with pytest.raises(ValueError):
            ShardedLabelStore("x", 0.25, num_shards=0)

    def test_stats_shape(self, store):
        stats = store.stats()
        assert stats["labels"] == store.num_labels
        assert len(stats["shards"]) == 4
        assert sum(s["labels"] for s in stats["shards"]) == stats["labels"]

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            '{"format": "repro-distance-labels/99", "epsilon": 0.1, "labels": []}'
        )
        from repro.core.serialize import SerializationError

        with pytest.raises(SerializationError, match="unsupported labels format"):
            ShardedLabelStore.load(path)


class TestShardKeyCanonicalization:
    """Regression: ``shard_key(1) != shard_key(1.0)`` used to hold.

    ``1 == 1.0`` is one dict key, so a label stored under ``1.0`` and
    queried as ``1`` hit the right dict — in the wrong shard.  With 8
    shards the old encodings ``b"1"`` and ``b"1.0"`` routed to shards
    7 and 5: a cross-process split would answer "no label" for a
    vertex it holds.
    """

    def test_numeric_equals_share_one_key(self):
        assert shard_key(1) == shard_key(1.0)
        assert shard_key(-3) == shard_key(-3.0)
        assert shard_key((1, 2.0)) == shard_key((1.0, 2))
        assert shard_key(1) != shard_key(1.5)
        assert shard_key(1) != shard_key("1")

    @pytest.fixture
    def float_keyed_store(self):
        # Labels stored under float keys, exactly what a JSON dump of
        # float-vertex generators produces.
        remote = RemoteLabels(
            0.25,
            {
                float(v): FlatLabel.from_entries(float(v), {(v, 0, 0): [(0.0, float(v))]})
                for v in range(8)
            },
        )
        return ShardedLabelStore.from_remote("f", remote, num_shards=8)

    def test_int_query_finds_float_stored_label(self, float_keyed_store):
        for v in range(8):
            assert float_keyed_store.shard_index(v) == (
                float_keyed_store.shard_index(float(v))
            )
            assert float_keyed_store.flat_label(v).vertex == v
            assert v in float_keyed_store

    def test_mapped_store_agrees(self, float_keyed_store, tmp_path):
        remote = RemoteLabels(
            0.25,
            {
                float(v): FlatLabel.from_entries(float(v), {(v, 0, 0): [(0.0, float(v))]})
                for v in range(8)
            },
        )
        path = tmp_path / "f.bin"
        dump_labeling(remote, path, codec="binary", num_shards=8)
        mapped = ShardedLabelStore.load(path)
        for v in range(8):
            assert mapped.shard_index(v) == float_keyed_store.shard_index(v)
            assert mapped.flat_label(v).entries() == float_keyed_store.flat_label(v).entries()


@pytest.fixture
def binary_path(remote_labels, tmp_path):
    path = tmp_path / "grid.bin"
    dump_labeling(remote_labels, path, codec="binary", num_shards=4)
    return path


class TestMappedLabelStore:
    def test_load_sniffs_binary_and_returns_mapped(self, binary_path):
        store = ShardedLabelStore.load(binary_path)
        assert store.reader is not None
        assert store.codec == "binary"
        assert store.name == "grid"
        assert store.mapped_bytes == binary_path.stat().st_size

    def test_load_json_stays_eager(self, remote_labels, tmp_path):
        path = tmp_path / "grid.json"
        dump_labeling(remote_labels, path)
        store = ShardedLabelStore.load(path)
        assert store.reader is None
        assert store.codec == "json" and store.mapped_bytes == 0

    def test_lookups_match_eager_store(self, remote_labels, binary_path):
        eager = ShardedLabelStore.from_remote("e", remote_labels, num_shards=4)
        mapped = ShardedLabelStore.mapped(binary_path)
        vertices = sorted(remote_labels.vertices())
        for v in vertices:
            assert v in mapped
            assert mapped.flat_label(v).entries() == eager.flat_label(v).entries()
            assert mapped.shard_index(v) == eager.shard_index(v)
        for u, v in zip(vertices, reversed(vertices)):
            assert mapped.estimate(u, v) == eager.estimate(u, v)

    def test_unknown_vertex(self, binary_path):
        mapped = ShardedLabelStore.mapped(binary_path)
        with pytest.raises(GraphError, match="no label in store"):
            mapped.flat_label((99, 99))
        assert (99, 99) not in mapped

    def test_accounting_matches_eager_store(self, remote_labels, binary_path):
        eager = ShardedLabelStore.from_remote("e", remote_labels, num_shards=4)
        mapped = ShardedLabelStore.mapped(binary_path)
        assert mapped.num_labels == eager.num_labels
        assert mapped.total_words == eager.total_words
        assert mapped.num_shards == eager.num_shards == 4
        assert [s.num_labels for s in mapped.shards] == [
            s.num_labels for s in eager.shards
        ]
        assert [s.words for s in mapped.shards] == [
            s.words for s in eager.shards
        ]

    def test_stats_shape(self, binary_path, remote_labels):
        stats = ShardedLabelStore.mapped(binary_path).stats()
        assert stats["codec"] == "binary"
        assert stats["mapped_bytes"] == binary_path.stat().st_size
        assert stats["cached_labels"] == 0
        assert stats["labels"] == remote_labels.num_labels
        assert sum(s["labels"] for s in stats["shards"]) == stats["labels"]

    def test_vertices_iterates_source_order(self, remote_labels, binary_path):
        mapped = ShardedLabelStore.mapped(binary_path)
        assert list(mapped.vertices()) == list(remote_labels.labels)

    def test_label_cache_is_bounded_lru(self, binary_path, remote_labels):
        mapped = ShardedLabelStore.mapped(binary_path, label_cache=2)
        vertices = sorted(remote_labels.vertices())[:5]
        for v in vertices:
            mapped.flat_label(v)
            assert mapped.cached_labels <= 2
        # Hot entry survives: re-reading the most recent two is cached.
        hot = mapped.flat_label(vertices[-1])
        assert mapped.flat_label(vertices[-1]) is hot

    def test_zero_cache_decodes_every_time(self, binary_path, remote_labels):
        mapped = ShardedLabelStore.mapped(binary_path, label_cache=0)
        v = next(iter(remote_labels.vertices()))
        a, b = mapped.flat_label(v), mapped.flat_label(v)
        assert label_content(a) == label_content(b) and a is not b
        assert mapped.cached_labels == 0

    def test_close_releases_the_map(self, binary_path):
        mapped = ShardedLabelStore.mapped(binary_path)
        mapped.flat_label(next(iter(mapped.vertices())))
        mapped.close()
        assert mapped.cached_labels == 0

    def test_catalog_mixes_codecs(self, remote_labels, binary_path, tmp_path):
        json_path = tmp_path / "grid.json"
        dump_labeling(remote_labels, json_path)
        catalog = StoreCatalog()
        catalog.add(ShardedLabelStore.load(json_path))
        catalog.add(ShardedLabelStore.load(binary_path))
        assert catalog.get("grid").codec == "json"
        assert catalog.get("grid.2").codec == "binary"
        assert catalog.num_labels == 2 * remote_labels.num_labels


class TestStoreCatalog:
    def test_default_is_first(self, remote_labels):
        catalog = StoreCatalog()
        catalog.add(ShardedLabelStore.from_remote("a", remote_labels))
        catalog.add(ShardedLabelStore.from_remote("b", remote_labels))
        assert catalog.get(None).name == "a"
        assert catalog.get("b").name == "b"
        assert catalog.names == ["a", "b"]
        assert len(catalog) == 2
        assert catalog.num_labels == 2 * remote_labels.num_labels

    def test_name_collisions_disambiguated(self, remote_labels):
        catalog = StoreCatalog()
        catalog.add(ShardedLabelStore.from_remote("x", remote_labels))
        renamed = catalog.add(ShardedLabelStore.from_remote("x", remote_labels))
        assert renamed.name == "x.2"
        assert catalog.names == ["x", "x.2"]

    def test_unknown_store_raises_keyerror(self, remote_labels):
        catalog = StoreCatalog()
        with pytest.raises(KeyError):
            catalog.get(None)  # empty catalog has no default
        catalog.add(ShardedLabelStore.from_remote("a", remote_labels))
        with pytest.raises(KeyError):
            catalog.get("nope")


class TestMappedLabelCache:
    """The decode LRU: occupancy accounting, eviction order, and the
    invariant that caching never changes an answer."""

    def test_cached_labels_tracks_occupancy_up_to_capacity(
        self, remote_labels, binary_path
    ):
        mapped = ShardedLabelStore.mapped(binary_path, label_cache=4)
        ordered = sorted(remote_labels.vertices(), key=repr)
        assert mapped.cached_labels == 0
        mapped.flat_label(ordered[0])
        assert mapped.cached_labels == 1
        for v in ordered[:10]:
            mapped.flat_label(v)
        assert mapped.cached_labels == 4  # capacity is a hard ceiling
        assert mapped.stats()["cached_labels"] == 4

    def test_eviction_is_lru_not_fifo(self, remote_labels, binary_path):
        mapped = ShardedLabelStore.mapped(binary_path, label_cache=3)
        a, b, c, d = sorted(remote_labels.vertices(), key=repr)[:4]
        first_a = mapped.flat_label(a)
        first_b = mapped.flat_label(b)
        mapped.flat_label(c)
        # Touch a: under LRU the eviction victim is now b; under FIFO
        # it would still be a.
        assert mapped.flat_label(a) is first_a
        mapped.flat_label(d)
        assert mapped.flat_label(a) is first_a      # still cached
        assert mapped.flat_label(b) is not first_b  # b was evicted, re-decoded
        assert mapped.cached_labels == 3

    def test_hits_return_the_cached_object(self, remote_labels, binary_path):
        mapped = ShardedLabelStore.mapped(binary_path, label_cache=8)
        v = next(iter(remote_labels.vertices()))
        assert mapped.flat_label(v) is mapped.flat_label(v)
        # A zero-capacity cache decodes every time and stays empty.
        off = ShardedLabelStore.mapped(binary_path, label_cache=0)
        assert off.flat_label(v) is not off.flat_label(v)
        assert off.cached_labels == 0

    def test_answers_identical_across_eviction_churn(
        self, remote_labels, binary_path
    ):
        # A cache of 2 with two-vertex queries evicts constantly; the
        # estimates must match the offline labeling byte-for-byte
        # anyway, before and after any given eviction.
        churn = ShardedLabelStore.mapped(binary_path, label_cache=2)
        ordered = sorted(remote_labels.vertices(), key=repr)
        pairs = [(u, v) for u in ordered[:6] for v in ordered[6:12]]
        for u, v in pairs + list(reversed(pairs)):
            assert churn.estimate(u, v) == remote_labels.estimate(u, v)
        assert churn.cached_labels == 2

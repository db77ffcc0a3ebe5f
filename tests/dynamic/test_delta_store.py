"""Applying label deltas to serving stores: epoch gating, accounting,
overlay behavior of the mmap-backed store."""

import random

import pytest

from repro.core.flat import label_content
from repro.core.serialize import RemoteLabels, dump_labeling
from repro.dynamic import EdgeUpdate, incremental_relabel
from repro.dynamic.rebuild import DeltaError, LabelDelta
from repro.serve.store import ShardedLabelStore

from tests.dynamic.conftest import EPSILON, fresh_case
from tests.dynamic.test_rebuild import random_reweight
from tests.reference_labeling import (
    apply_delta_to_dict_labels,
    dict_estimate,
    dict_label,
)


def updated_world(updates=3, seed=21):
    """(pristine RemoteLabels, mutated labeling, deltas in epoch order)."""
    graph, _, labeling = fresh_case("grid-greedy")
    _, _, pristine = fresh_case("grid-greedy")
    rng = random.Random(seed)
    deltas = []
    for epoch in range(1, updates + 1):
        delta = incremental_relabel(labeling, random_reweight(rng, graph))
        delta.epoch = epoch
        deltas.append(delta)
    remote = RemoteLabels(EPSILON, dict(pristine.labels))
    return remote, labeling, deltas


class TestShardedStoreDelta:
    def test_apply_matches_updated_labels(self):
        remote, updated, deltas = updated_world()
        store = ShardedLabelStore.from_remote("g", remote, num_shards=4)
        for delta in deltas:
            result = store.apply_delta(delta)
            assert result["epoch"] == delta.epoch
        assert store.label_epoch == len(deltas)
        assert store.applied_deltas == len(deltas)
        for v, label in updated.labels.items():
            assert store.flat_label(v).entries() == label.entries()

    def test_words_accounting_tracks_shards(self):
        remote, updated, deltas = updated_world()
        store = ShardedLabelStore.from_remote("g", remote, num_shards=4)
        for delta in deltas:
            store.apply_delta(delta)
        assert store.total_words == sum(s.words for s in store.shards)
        assert store.total_words == sum(
            label.words for label in updated.labels.values()
        )

    def test_epoch_gaps_and_replays_rejected(self):
        remote, _, deltas = updated_world()
        store = ShardedLabelStore.from_remote("g", remote, num_shards=4)
        with pytest.raises(DeltaError):
            store.apply_delta(deltas[1])  # epoch 2 before 1: a gap
        store.apply_delta(deltas[0])
        with pytest.raises(DeltaError):
            store.apply_delta(deltas[0])  # replay of epoch 1
        assert store.label_epoch == 1

    def test_epsilon_mismatch_rejected(self):
        remote, _, deltas = updated_world()
        store = ShardedLabelStore.from_remote("g", remote, num_shards=4)
        deltas[0].epsilon = 0.5
        with pytest.raises(DeltaError):
            store.apply_delta(deltas[0])

    def test_stats_carry_the_epoch(self):
        remote, _, deltas = updated_world(updates=1)
        store = ShardedLabelStore.from_remote("g", remote, num_shards=4)
        store.apply_delta(deltas[0])
        stats = store.stats()
        assert stats["label_epoch"] == 1
        assert stats["applied_deltas"] == 1


class TestMappedStoreDelta:
    def make_store(self, remote, tmp_path):
        path = tmp_path / "g.bin"
        dump_labeling(remote, path, codec="binary", num_shards=4)
        return ShardedLabelStore.mapped(path)

    def test_overlay_wins_over_the_mmap(self, tmp_path):
        remote, updated, deltas = updated_world()
        store = self.make_store(remote, tmp_path)
        for delta in deltas:
            store.apply_delta(delta)
        assert store.label_epoch == len(deltas)
        for v, label in updated.labels.items():
            assert store.flat_label(v).entries() == label.entries()
        store.close()

    def test_untouched_vertices_still_decode_lazily(self, tmp_path):
        remote, updated, deltas = updated_world(updates=1)
        store = self.make_store(remote, tmp_path)
        store.apply_delta(deltas[0])
        touched = {vx for vx, _key, _portals in deltas[0].changes}
        touched.update(vx for vx, _key in deltas[0].removals)
        for v in remote.labels:
            if v not in touched:
                assert store.flat_label(v).entries() == remote.labels[v].entries()
        stats = store.stats()
        assert stats["overlay_labels"] == len(touched)
        store.close()

    def test_total_words_track_the_overlay(self, tmp_path):
        remote, updated, deltas = updated_world()
        store = self.make_store(remote, tmp_path)
        for delta in deltas:
            store.apply_delta(delta)
        assert store.total_words == sum(
            label.words for label in updated.labels.values()
        )
        store.close()

    def test_lru_cache_never_serves_stale_labels(self, tmp_path):
        remote, updated, deltas = updated_world(updates=1)
        store = ShardedLabelStore.mapped(
            (tmp_path / "c.bin", dump_labeling(
                remote, tmp_path / "c.bin", codec="binary", num_shards=4
            ))[0],
            label_cache=64,
        )
        # Warm the LRU with every label, then apply the delta.
        for v in remote.labels:
            store.flat_label(v)
        store.apply_delta(deltas[0])
        for v, label in updated.labels.items():
            assert store.flat_label(v).entries() == label.entries()
        store.close()


class TestDeltaApplyPath:
    """The one delta path both codecs share: grouped per vertex,
    all-or-nothing on unknown vertices, and never touching a label
    object a LABEL reply may already hold."""

    @pytest.fixture(params=["json", "binary"])
    def store(self, request, tmp_path):
        remote, _, _ = updated_world(updates=1)
        path = tmp_path / f"g.{request.param}"
        dump_labeling(remote, path, codec=request.param, num_shards=4)
        store = ShardedLabelStore.load(path, num_shards=4)
        yield store
        store.close()

    def test_memoized_label_objects_are_never_mutated(self, store):
        _, updated, deltas = updated_world(updates=1)
        touched = {vx for vx, _key, _portals in deltas[0].changes}
        before = {v: store.flat_label(v) for v in touched}
        snapshot = {v: label_content(label) for v, label in before.items()}
        store.apply_delta(deltas[0])
        for v, label in before.items():
            assert label_content(label) == snapshot[v]
            assert store.flat_label(v).entries() == updated.labels[v].entries()

    def test_each_touched_label_is_rebuilt_once(self, store, monkeypatch):
        from repro.core.flat import FlatLabel

        _, _, deltas = updated_world(updates=1)
        delta = deltas[0]
        touched = {vx for vx, _key, _portals in delta.changes}
        touched.update(vx for vx, _key in delta.removals)
        assert len(delta.changes) + len(delta.removals) > len(touched)
        built = []
        original = FlatLabel.with_changes

        def counting(label, changes, removals):
            built.append(label.vertex)
            return original(label, changes, removals)

        monkeypatch.setattr(FlatLabel, "with_changes", counting)
        store.apply_delta(delta)
        assert sorted(built, key=repr) == sorted(touched, key=repr)

    def test_unknown_vertex_leaves_the_store_untouched(self, store):
        pristine, _, deltas = updated_world(updates=1)
        delta = deltas[0]
        delta.changes.append(("ghost", (0, 0, 0), [(0.0, 1.0)]))
        words = store.total_words
        with pytest.raises(DeltaError, match="ghost"):
            store.apply_delta(delta)
        assert store.total_words == words
        assert store.label_epoch == 0
        for vx, _key, _portals in delta.changes[:-1]:
            assert store.flat_label(vx).entries() == pristine.labels[vx].entries()

    def test_removals_and_new_keys_match_the_reference_applier(self, store):
        # Reweights never remove entries (reachability inside a
        # residual does not depend on weights), so hand-build a delta
        # that does: per vertex, drop its first key, rewrite its last
        # one, and insert a key it never held.  The reference is the
        # dict-label applier of the test reference; key order counts,
        # since LABEL replies serialize it.
        pristine, _, _ = updated_world(updates=1)
        reference = {v: dict_label(label) for v, label in pristine.labels.items()}
        all_keys = sorted({k for lab in reference.values() for k in lab.entries})
        delta = LabelDelta(EdgeUpdate(0, 1, 1.0), 1.0, EPSILON, epoch=1)
        for v in sorted(reference, key=repr)[::5]:
            keys = list(reference[v].entries)
            foreign = next(k for k in all_keys if k not in reference[v].entries)
            delta.removals.append((v, keys[0]))
            delta.changes.append((v, keys[-1], [(0.0, 7.5)]))
            delta.changes.append((v, foreign, [(1.0, 2.0), (3.0, 0.5)]))
        assert store.apply_delta(delta) == {
            "epoch": 1,
            "changes": len(delta.changes),
            "removals": len(delta.removals),
        }
        apply_delta_to_dict_labels(reference, delta)
        for v, label in reference.items():
            got = store.flat_label(v).entries()
            assert list(got.items()) == list(label.entries.items())
        assert store.total_words == sum(lab.words for lab in reference.values())
        verts = sorted(reference, key=repr)
        for u, v in zip(verts, reversed(verts)):
            want = dict_estimate(reference[u], reference[v])
            assert repr(store.estimate(u, v)) == repr(want)

"""Shard splitting and node population on disk."""

from pathlib import Path

import pytest

from repro.cluster.files import (
    node_dir,
    node_shard_files,
    owned_shards,
    populate_nodes,
    shard_path,
    split_labels,
)
from repro.cluster.map import ClusterMap, ClusterMapError
from repro.core.flat import label_content
from repro.core.serialize import dump_labeling, load_labeling


@pytest.fixture
def labels_file(remote_labels, tmp_path) -> Path:
    path = tmp_path / "labels.bin"
    dump_labeling(remote_labels, path, codec="binary")
    return path


def build_map(num_shards=8):
    return ClusterMap.build(
        ["n0", "n1", "n2"], num_shards=num_shards, replication=2
    )


class TestSplitLabels:
    def test_union_of_shards_is_the_labeling(self, labels_file, remote_labels, tmp_path):
        cluster_map = build_map()
        written = split_labels(labels_file, tmp_path / "c", cluster_map)
        assert len(written) == cluster_map.num_shards
        merged = {}
        for path in written:
            pack = load_labeling(path)
            assert pack.epsilon == remote_labels.epsilon
            merged.update(pack.labels)
        assert {v: label_content(label) for v, label in merged.items()} == {
            v: label_content(label) for v, label in remote_labels.labels.items()
        }

    def test_vertices_land_where_the_router_points(self, labels_file, tmp_path):
        cluster_map = build_map()
        split_labels(labels_file, tmp_path / "c", cluster_map)
        for shard in range(cluster_map.num_shards):
            pack = load_labeling(shard_path(tmp_path / "c", shard))
            for v in pack.labels:
                assert cluster_map.shard_of(v) == shard

    def test_empty_shards_are_valid_packs(self, labels_file, tmp_path):
        # 64 shards over 25 vertices: most packs are empty, all load.
        cluster_map = build_map(num_shards=64)
        written = split_labels(labels_file, tmp_path / "c", cluster_map)
        empties = [p for p in written if not load_labeling(p).labels]
        assert empties  # the scenario actually occurred
        for path in empties:
            assert load_labeling(path).num_labels == 0


class TestPopulateNodes:
    def test_each_node_gets_its_assigned_replicas(self, labels_file, tmp_path):
        cluster_map = build_map()
        root = tmp_path / "c"
        split_labels(labels_file, root, cluster_map)
        placed = populate_nodes(root, cluster_map)
        for node in cluster_map.nodes:
            expected = cluster_map.shards_of_node(node.id)
            assert owned_shards(root, node.id) == expected
            assert len(placed[node.id]) == len(expected)
            for path in node_shard_files(root, node.id):
                assert path.parent == node_dir(root, node.id)

    def test_replica_bytes_match_canonical(self, labels_file, tmp_path):
        cluster_map = build_map()
        root = tmp_path / "c"
        split_labels(labels_file, root, cluster_map)
        populate_nodes(root, cluster_map)
        for node in cluster_map.nodes:
            for shard in cluster_map.shards_of_node(node.id):
                replica = node_dir(root, node.id) / shard_path(root, shard).name
                assert replica.read_bytes() == shard_path(root, shard).read_bytes()

    def test_missing_canonical_refused(self, tmp_path):
        with pytest.raises(ClusterMapError):
            populate_nodes(tmp_path, build_map())

    def test_missing_node_dir_reads_as_empty(self, tmp_path):
        assert node_shard_files(tmp_path, "ghost") == []
        assert owned_shards(tmp_path, "ghost") == ()

"""Failure injection: corrupted structures are detected, degraded ones
fail safe (estimates stay upper bounds, never silently too small)."""

import pytest

from repro.core import (
    CompactRoutingScheme,
    FlatLabel,
    PathSeparator,
    SeparatorPhase,
    build_decomposition,
    build_labeling,
    flat_estimate,
)
from repro.core.decomposition import DecompositionTree
from repro.generators import grid_2d
from repro.graphs import dijkstra
from repro.util.errors import GraphError, InvalidDecompositionError, InvalidSeparatorError

from tests.conftest import pair_sample


class TestSeparatorTampering:
    def test_shortcut_tampering_detected(self):
        # Raise the weight of one separator-path edge so the stored
        # path is no longer minimum cost: validate must flag (P1).
        grid = grid_2d(10)
        tree = build_decomposition(grid)
        node = tree.nodes[0]
        sep = node.separator
        path = next(p for p in sep.all_paths() if len(p) >= 3)
        u, v = path[0], path[1]
        g = grid.copy()
        g.add_edge(u, v, 100.0)
        with pytest.raises(InvalidSeparatorError):
            sep.validate(g, within=node.vertices)

    def test_unbalanced_tampering_detected(self, small_grid):
        sep = PathSeparator(phases=[SeparatorPhase(paths=[[(0, 0)]])])
        with pytest.raises(InvalidSeparatorError):
            sep.validate(small_grid)


class TestDecompositionTampering:
    def test_duplicate_home_detected(self, small_grid):
        tree = build_decomposition(small_grid)
        # Inject the root separator's vertex into a deeper separator.
        stolen = next(iter(tree.nodes[0].separator.vertices()))
        victim = tree.nodes[-1]
        victim.separator.phases[0].paths.append([stolen])
        with pytest.raises(InvalidDecompositionError):
            tree.validate(check_shortest=False)

    def test_oversized_child_detected(self, small_grid):
        tree = build_decomposition(small_grid)
        parent = next(n for n in tree.nodes if n.children)
        child = tree.nodes[parent.children[0]]
        # Shrink the recorded parent so the child looks too big.
        parent.vertices = frozenset(list(child.vertices)[:1]) | child.vertices
        with pytest.raises(InvalidDecompositionError):
            tree.validate(check_shortest=False)


class TestLabelDegradation:
    def test_dropping_entries_never_underestimates(self, weighted_grid):
        # A lossy channel drops label entries: estimates may worsen but
        # must remain upper bounds on the true distance.
        labeling = build_labeling(
            weighted_grid, build_decomposition(weighted_grid), epsilon=0.25
        )
        pairs = pair_sample(weighted_grid, 30, seed=1)
        for u, v in pairs:
            label_u = labeling.label(u)
            entries = label_u.entries()
            if len(entries) > 1:
                dropped = dict(list(entries.items())[1:])
                label_u = FlatLabel.from_entries(u, dropped)
            est = flat_estimate(label_u, labeling.label(v))
            true = dijkstra(weighted_grid, u)[0][v]
            assert est >= true - 1e-9

    def test_empty_labels_give_inf_not_garbage(self, small_grid):
        empty = FlatLabel.from_entries("ghost", {})
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        assert flat_estimate(empty, labeling.label((0, 0))) == float("inf")


def _pair_needing_walk(graph, scheme):
    """A vertex pair whose best routing key anchors them at different
    path positions (so the walk stage actually runs)."""
    vertices = sorted(graph.vertices())
    for u in vertices:
        for v in vertices:
            if u == v:
                continue
            key = scheme.select_key(u, v)
            eu = scheme.labels[u].entries[key]
            ev = scheme.labels[v].entries[key]
            if eu[0] != ev[0]:
                return u, v
    return None


class TestRoutingTampering:
    def test_corrupt_walk_pointer_detected(self):
        # A 10x10 unit grid has long separator paths, so plenty of
        # routes exercise the walk stage.
        walk_grid = grid_2d(10)
        scheme = CompactRoutingScheme.build(walk_grid)
        pair = _pair_needing_walk(walk_grid, scheme)
        assert pair is not None, "test graph produced no walking route"
        # Break every path link: the walk stage must raise, not hang.
        for v, entries in scheme.tables.items():
            for entry in entries.values():
                if entry.on_path_index is not None:
                    entry.path_next = None
                    entry.path_prev = None
        with pytest.raises(GraphError):
            scheme.route(*pair)

    def test_guard_stops_forwarding_loops(self):
        walk_grid = grid_2d(10)
        scheme = CompactRoutingScheme.build(walk_grid)
        # Create an ascend cycle: two off-path vertices pointing at
        # each other under the same key.
        for v, entries in scheme.tables.items():
            for key, entry in entries.items():
                hop = entry.parent_hop
                if hop is None:
                    continue
                other = scheme.tables[hop].get(key)
                if other is None or other.on_path_index is not None:
                    continue
                other.parent_hop = v  # v -> hop -> v forever
                # Force the corrupted key to be selected by removing
                # all other shared keys from v's label view.
                original = dict(scheme.labels[v].entries)
                scheme.labels[v].entries.clear()
                scheme.labels[v].entries[key] = original[key]
                candidates = [
                    t
                    for t in walk_grid.vertices()
                    if t not in (v, hop) and key in scheme.labels[t].entries
                ]
                assert candidates
                with pytest.raises(GraphError, match="loop"):
                    scheme.route(v, candidates[0])
                return
        pytest.skip("no suitable off-path chain to corrupt")

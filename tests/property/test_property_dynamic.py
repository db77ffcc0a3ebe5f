"""Property-based tests: invalidation soundness for incremental updates.

The load-bearing claim behind ``repro.dynamic``: for any edge reweight,
the affected-vertex set computed by :func:`affected_vertices` (the
union of the residuals of the affected units) is a **superset** of the
vertices whose labels actually differ after a full rebuild on the same
tree.  If that ever failed, an incremental update would silently leave
a stale label behind.  Checked across all five separator engines.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.core import build_labeling
from repro.dynamic import (
    EdgeUpdate,
    affected_units,
    affected_units_bruteforce,
    affected_vertices,
    incremental_relabel,
    touched_path_keys,
)

from tests.dynamic.conftest import CASES, EPSILON, fresh_case

SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

update_strategy = st.tuples(
    st.integers(0, 10**6),           # edge index (mod the edge count)
    st.floats(0.25, 4.0),            # weight multiplier
)


def pick_update(graph, index, factor):
    edges = sorted(graph.edges(), key=repr)
    u, v, w = edges[index % len(edges)]
    new_w = round(float(w) * factor, 9)
    if new_w <= 0 or new_w == float(w):
        new_w = float(w) + 0.375
    return EdgeUpdate(u, v, new_w)


@pytest.mark.parametrize("case", sorted(CASES))
class TestInvalidationSoundness:
    @SLOW
    @given(update=update_strategy)
    def test_affected_set_covers_every_changed_label(self, case, update):
        index, factor = update
        graph, tree, labeling = fresh_case(case)
        before = {
            v: {key: list(entries) for key, entries in label.entries().items()}
            for v, label in labeling.labels.items()
        }
        edge = pick_update(graph, index, factor)
        predicted = affected_vertices(tree, edge.u, edge.v)
        graph.add_edge(edge.u, edge.v, edge.weight)
        for key in tree.all_path_keys():
            tree.recompute_prefix(key)
        rebuilt = build_labeling(graph, tree, epsilon=EPSILON)
        changed = {
            v
            for v, label in rebuilt.labels.items()
            if {key: list(e) for key, e in label.entries().items()} != before[v]
        }
        assert changed <= predicted

    @SLOW
    @given(update=update_strategy)
    def test_walk_matches_bruteforce(self, case, update):
        index, factor = update
        graph, tree, _ = fresh_case(case)
        edge = pick_update(graph, index, factor)
        assert affected_units(tree, edge.u, edge.v) == (
            affected_units_bruteforce(tree, edge.u, edge.v)
        )

    def test_touched_paths_match_full_scan(self, case):
        # touched_path_keys walks only the affected units; a scan of
        # every path in the tree must find the same keys, in order.
        graph, tree, _ = fresh_case(case)
        for u, v, _ in sorted(graph.edges(), key=repr):
            full_scan = [
                key
                for key in tree.all_path_keys()
                if any(
                    {a, b} == {u, v}
                    for a, b in zip(tree.path_vertices(key),
                                    tree.path_vertices(key)[1:])
                )
            ]
            assert touched_path_keys(tree, u, v) == full_scan

    @SLOW
    @given(update=update_strategy, followups=st.integers(1, 3))
    def test_repeated_incremental_updates_stay_exact(
        self, case, update, followups
    ):
        # Byte-identity is transitive: after several incremental
        # updates the labels still match a from-scratch rebuild.
        index, factor = update
        graph, tree, labeling = fresh_case(case)
        for step in range(followups):
            edge = pick_update(graph, index + step, factor)
            if float(graph.weight(edge.u, edge.v)) == edge.weight:
                edge = EdgeUpdate(edge.u, edge.v, edge.weight + 0.125)
            incremental_relabel(labeling, edge)
        rebuilt = build_labeling(graph, tree, epsilon=EPSILON)
        for v, label in rebuilt.labels.items():
            assert labeling.labels[v].entries() == label.entries()
            assert labeling.labels[v].runs.tobytes() == label.runs.tobytes()

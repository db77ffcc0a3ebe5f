"""Property-based tests for the flat CSR core.

Three families of invariants, the first two over randomized graphs
(grids, Delaunay triangulations, ``G(n, p)``, preferential attachment):

* **CSR round trip** — ``CSRGraph.from_graph`` then ``to_graph`` is
  the identity on the adjacency structure *and* on every edge weight,
  and per-vertex ``neighbors`` agrees with the source graph.
* **Kernel equivalence** — ``flat_estimate`` over the production
  build's ``FlatLabel`` objects is bit-equal to the reference
  ``dict_estimate`` over the dict reference build
  (``tests/reference_labeling.py``) on every queried pair,
  including unreachable (infinite) answers and labels with no entries
  at all.
* **Label edits** — ``FlatLabel.with_changes`` splices the same bytes,
  key order and removal count as the ``entries()`` round trip.

Like the differential wall, this suite never skips: numpy and scipy
are required.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CSRGraph, FlatLabel, build_decomposition, build_labeling, flat_estimate
from repro.core.serialize import SerializationError
from repro.generators import (
    gnp_random_graph,
    grid_2d,
    preferential_attachment_graph,
    random_delaunay_graph,
)
from tests.reference_labeling import (
    VertexLabel,
    apply_entry_changes,
    dict_estimate,
    dict_label,
    flat_label,
    reference_build_labeling,
)

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


graph_strategy = st.one_of(
    st.builds(
        lambda r, seed: grid_2d(r, weight_range=(1.0, 5.0), seed=seed),
        r=st.integers(2, 7),
        seed=st.integers(0, 10**6),
    ),
    st.builds(
        lambda n, seed: random_delaunay_graph(n, seed=seed)[0],
        n=st.integers(4, 48),
        seed=st.integers(0, 10**6),
    ),
    st.builds(
        lambda n, seed: gnp_random_graph(
            n, 3.0 / n, seed=seed, weight_range=(0.5, 4.0), connect=True
        ),
        n=st.integers(4, 48),
        seed=st.integers(0, 10**6),
    ),
    st.builds(
        lambda n, seed: preferential_attachment_graph(
            n, 2, seed=seed, weight_range=(0.5, 4.0)
        ),
        n=st.integers(4, 48),
        seed=st.integers(0, 10**6),
    ),
)


class TestCSRRoundTrip:
    @SLOW
    @given(graph=graph_strategy)
    def test_to_graph_is_identity_on_adjacency_and_weights(self, graph):
        csr = CSRGraph.from_graph(graph)
        back = csr.to_graph()
        assert set(back.vertices()) == set(graph.vertices())
        want = {
            (min(u, v, key=repr), max(u, v, key=repr)): w
            for u, v, w in graph.edges()
        }
        got = {
            (min(u, v, key=repr), max(u, v, key=repr)): w
            for u, v, w in back.edges()
        }
        assert got == want  # same keys AND bit-equal float weights

    @SLOW
    @given(graph=graph_strategy)
    def test_neighbors_agree_per_vertex(self, graph):
        csr = CSRGraph.from_graph(graph)
        assert csr.num_vertices == len(set(graph.vertices()))
        for v in graph.vertices():
            assert v in csr
            want = {(n, graph.weight(v, n)) for n in graph.neighbors(v)}
            assert set(csr.neighbors(v)) == want

    @SLOW
    @given(graph=graph_strategy)
    def test_index_mapping_is_a_bijection(self, graph):
        csr = CSRGraph.from_graph(graph)
        seen = set()
        for v in graph.vertices():
            i = csr.index_of(v)
            assert 0 <= i < csr.num_vertices
            assert csr.vertex_of(i) == v
            seen.add(i)
        assert len(seen) == csr.num_vertices


def reference_labeling(graph, tree, epsilon):
    """The dict reference build of *graph* over *tree*."""
    return reference_build_labeling(graph, tree, epsilon=epsilon)


class TestKernelEquivalence:
    @SLOW
    @given(
        graph=graph_strategy,
        epsilon=st.sampled_from([1.0, 0.25]),
        pair_seed=st.integers(0, 10**6),
    )
    def test_flat_estimate_bit_equals_dict_estimate(
        self, graph, epsilon, pair_seed
    ):
        tree = build_decomposition(graph)
        reference = reference_labeling(graph, tree, epsilon)
        labeling = build_labeling(graph, tree, epsilon=epsilon)
        flats = labeling.labels
        verts = sorted(labeling.labels, key=repr)
        rng = random.Random(pair_seed)
        for _ in range(40):
            u = verts[rng.randrange(len(verts))]
            v = verts[rng.randrange(len(verts))]
            a = dict_estimate(reference.labels[u], reference.labels[v])
            b = flat_estimate(flats[u], flats[v])
            assert repr(a) == repr(b), (u, v, a, b)

    @SLOW
    @given(graph=graph_strategy)
    def test_unreachable_and_empty_labels_agree(self, graph):
        tree = build_decomposition(graph)
        labeling = reference_labeling(graph, tree, 0.5)
        # A label with no entries shares no path key with anyone: both
        # kernels must answer inf against every real vertex, and the
        # flat round trip must preserve the emptiness.
        lonely = VertexLabel("__lonely__", {})
        lonely_flat = flat_label(lonely)
        assert lonely_flat.num_portals == 0
        assert lonely_flat.entries() == {}
        for v, lab in labeling.labels.items():
            a = dict_estimate(lonely, lab)
            b = flat_estimate(lonely_flat, flat_label(lab))
            assert a == b == float("inf")
        # Two empty labels at the same vertex: distance zero by the
        # u == v short-circuit, in both kernels.
        assert dict_estimate(lonely, lonely) == 0.0
        assert flat_estimate(lonely_flat, lonely_flat) == 0.0

    @SLOW
    @given(graph=graph_strategy, seed=st.integers(0, 10**6))
    def test_flat_label_round_trip_is_identity(self, graph, seed):
        tree = build_decomposition(graph)
        labeling = reference_labeling(graph, tree, 0.25)
        for lab in labeling.labels.values():
            back = dict_label(flat_label(lab))
            assert back.vertex == lab.vertex
            assert back.entries == lab.entries
            assert back.words == lab.words


# -- label edits -----------------------------------------------------------

# A small key space, so changes and removals often hit held keys.
key_strategy = st.tuples(
    st.integers(0, 5), st.integers(0, 2), st.integers(0, 3)
)
portals_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 64.0, allow_nan=False),
        st.floats(0.0, 64.0, allow_nan=False),
    ),
    min_size=1,
    max_size=3,
)


def spliced_and_reference(label, changes, removals):
    """``label.with_changes`` beside the entries round trip it must
    equal: ``entries()``, ``apply_entry_changes``, ``from_entries``.
    Either side's ``SerializationError`` is returned, not raised."""
    def reference():
        entries = label.entries()
        removed = apply_entry_changes(entries, changes, removals)
        return FlatLabel.from_entries(label.vertex, entries), removed

    out = []
    for side in (lambda: label.with_changes(changes, removals), reference):
        try:
            out.append(side())
        except SerializationError as exc:
            out.append(str(exc))
    return out


def assert_same_label(got, want):
    assert got[1] == want[1]  # removals that found their key
    got, want = got[0], want[0]
    assert got.runs.tobytes() == want.runs.tobytes()
    assert list(got.offs) == list(want.offs)
    assert list(got.index.items()) == list(want.index.items())
    assert got.keys == want.keys
    assert got.words == want.words


class TestLabelSplice:
    """``FlatLabel.with_changes`` against the entries round trip: same
    bytes, same key order and the same removal count, on ascending
    labels and on hand-made labels that are not."""

    @settings(max_examples=300, deadline=None)
    @given(
        held=st.dictionaries(key_strategy, portals_strategy, max_size=8),
        ascending=st.booleans(),
        order_seed=st.integers(0, 10**6),
        changes=st.lists(st.tuples(key_strategy, portals_strategy), max_size=5),
        removals=st.lists(key_strategy, max_size=5),
        extra=st.data(),
    )
    def test_splice_equals_entries_round_trip(
        self, held, ascending, order_seed, changes, removals, extra
    ):
        items = sorted(held.items())
        if not ascending:
            random.Random(order_seed).shuffle(items)
        label = FlatLabel.from_entries("v", dict(items))
        before = label.runs.tobytes()
        # Some removals repeat a changed key or an earlier removal.
        pool = [key for key, _ in changes] + removals
        if pool:
            removals = removals + extra.draw(
                st.lists(st.sampled_from(pool), max_size=3)
            )
        got, want = spliced_and_reference(label, changes, removals)
        assert_same_label(got, want)
        assert label.runs.tobytes() == before  # the old label is untouched

    def test_edge_cases_by_hand(self):
        descending = FlatLabel.from_entries(
            "v", {(3, 0, 0): [(0.0, 1.0)], (1, 0, 0): [(0.0, 2.0)],
                  (2, 1, 0): [(1.0, 3.0), (4.0, 5.0)]}
        )
        cases = [
            # A change alone re-sorts a label not in ascending order...
            ([((1, 0, 0), [(0.0, 9.0)])], []),
            # ...even when that change is removed again.
            ([((0, 0, 0), [(0.0, 9.0)])], [(0, 0, 0)]),
            # Removals alone keep the order.
            ([], [(3, 0, 0), (3, 0, 0), (9, 9, 9)]),
            # Changed and removed, duplicate removals, an absent key and
            # one no label could hold.
            ([((2, 1, 0), [(0.0, 1.0)]), ((5, 0, 0), [(2.0, 2.0)])],
             [(2, 1, 0), (2, 1, 0), (7, 0, 0), (0, 1 << 40, 0)]),
            # Repeated changes: the last one wins.
            ([((4, 0, 0), [(0.0, 1.0)]), ((4, 0, 0), [(0.0, 2.0)])], []),
        ]
        for label in (descending, FlatLabel.from_entries("v", {})):
            for changes, removals in cases:
                got, want = spliced_and_reference(label, changes, removals)
                assert_same_label(got, want)

    @settings(max_examples=50, deadline=None)
    @given(
        field=st.integers(0, 2),
        value=st.sampled_from([1 << 31, -(1 << 31) - 1, 1 << 40]),
        ascending=st.booleans(),
    )
    def test_key_overflowing_i32_raises_naming_vertex_and_key(
        self, field, value, ascending
    ):
        items = [((1, 0, 0), [(0.0, 1.0)]), ((2, 0, 0), [(0.0, 2.0)])]
        label = FlatLabel.from_entries(
            (4, 2), dict(items if ascending else items[::-1])
        )
        key = [3, 0, 0]
        key[field] = value
        key = tuple(key)
        got, want = spliced_and_reference(label, [(key, [(0.0, 1.0)])], [])
        assert got == want
        assert isinstance(got, str)
        assert repr(key) in got and repr((4, 2)) in got
        with pytest.raises(SerializationError, match="does not fit i32"):
            label.with_changes([(key, [(0.0, 1.0)])], [])
        # With two such keys, both name the one first in key order.
        other = (9,) + key[1:] if field else (2, 1 << 31, 0)
        two = [(max(key, other), [(0.0, 1.0)]), (min(key, other), [(0.0, 2.0)])]
        got, want = spliced_and_reference(label, two, [])
        assert got == want and repr(min(key, other)) in got
        # Removed again before the label is cut: no header, no error.
        got, want = spliced_and_reference(
            label, [(key, [(0.0, 1.0)])], [key]
        )
        assert_same_label(got, want)

"""Property-based tests for the flat CSR core.

Two families of invariants, over randomized graphs (grids, Delaunay
triangulations, ``G(n, p)``, preferential attachment):

* **CSR round trip** — ``CSRGraph.from_graph`` then ``to_graph`` is
  the identity on the adjacency structure *and* on every edge weight,
  and per-vertex ``neighbors`` agrees with the source graph.
* **Kernel equivalence** — ``flat_estimate`` over the production
  build's ``FlatLabel`` objects is bit-equal to the reference
  ``estimate_distance`` over the dict reference build
  (``tests/reference_labeling.py``) on every queried pair,
  including unreachable (infinite) answers and labels with no entries
  at all.

Like the differential wall, this suite never skips: numpy and scipy
are required.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CSRGraph, FlatLabel, build_decomposition, build_labeling, flat_estimate
from repro.core.labeling import VertexLabel, estimate_distance
from repro.generators import (
    gnp_random_graph,
    grid_2d,
    preferential_attachment_graph,
    random_delaunay_graph,
)
from tests.reference_labeling import reference_build_labeling

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
            a = estimate_distance(reference.labels[u], reference.labels[v])
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
        lonely_flat = FlatLabel.from_label(lonely)
        assert lonely_flat.num_portals == 0
        assert lonely_flat.to_label().entries == {}
        for v, lab in labeling.labels.items():
            a = estimate_distance(lonely, lab)
            b = flat_estimate(lonely_flat, FlatLabel.from_label(lab))
            assert a == b == float("inf")
        # Two empty labels at the same vertex: distance zero by the
        # u == v short-circuit, in both kernels.
        assert estimate_distance(lonely, lonely) == 0.0
        assert flat_estimate(lonely_flat, lonely_flat) == 0.0

    @SLOW
    @given(graph=graph_strategy, seed=st.integers(0, 10**6))
    def test_flat_label_round_trip_is_identity(self, graph, seed):
        tree = build_decomposition(graph)
        labeling = reference_labeling(graph, tree, 0.25)
        for lab in labeling.labels.values():
            back = FlatLabel.from_label(lab).to_label()
            assert back.vertex == lab.vertex
            assert back.entries == lab.entries
            assert back.words == lab.words

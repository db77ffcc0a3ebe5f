"""Separator-level differential: every production engine equals its
vertex-object reference (``tests/reference_engines.py``).

The production engines score candidates with one flood fill and a
union-find per candidate, eliminate on integer adjacency, and grow large
shortest-path trees on scipy.  None of that may change a choice: for
every hypothesis graph each engine must return the same phases and the
same paths, in the same order, as the reference, and a
``build_decomposition`` with either must list the same nodes (vertex
sets, parents, separators) in the same order.  Sizes reach past
``flat_build.SMALL_RESIDUAL`` so both tree kernels run, and the integer-weight
grids exercise the fallback for shortest-path ties.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_decomposition
from repro.core import engines as production
from repro.generators import (
    cycle_graph,
    grid_2d,
    k_tree,
    outerplanar_graph,
    path_graph,
    random_delaunay_graph,
    random_planar_graph,
    random_tree,
    series_parallel_graph,
)
from repro.planar import PlanarCycleEngine
from repro.treedecomp import (
    center_bag,
    decomposition_from_elimination,
    mcs_order,
    min_degree_order,
    min_fill_order,
)
from tests import reference_engines as reference

DIFF = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(0, 10**6)

mesh_graphs = st.one_of(
    st.builds(lambda n, s: random_delaunay_graph(n, seed=s)[0], st.integers(3, 140), seeds),
    st.builds(lambda n, s: random_planar_graph(n, seed=s), st.integers(3, 90), seeds),
    st.builds(
        lambda r, c, s: grid_2d(r, c, weight_range=(1.0, 9.0), seed=s),
        st.integers(2, 11), st.integers(2, 11), seeds,
    ),
    # Unit weights: shortest-path ties everywhere, so the trees fall
    # back from scipy to the reference Dijkstra.
    st.builds(lambda r, c: grid_2d(r, c), st.integers(2, 10), st.integers(2, 10)),
    st.builds(lambda n, s: outerplanar_graph(n, seed=s), st.integers(3, 80), seeds),
)

treewidth_graphs = st.one_of(
    st.builds(lambda n, s: k_tree(n, 3, seed=s)[0], st.integers(4, 120), seeds),
    st.builds(lambda n, s: series_parallel_graph(n, seed=s), st.integers(2, 100), seeds),
    st.builds(lambda n, s: outerplanar_graph(n, seed=s), st.integers(3, 80), seeds),
    st.builds(lambda r, c: grid_2d(r, c), st.integers(2, 6), st.integers(2, 6)),
)

trees = st.builds(
    lambda n, s, w: random_tree(n, weight_range=(1.0, 5.0) if w else None, seed=s),
    st.integers(1, 120), seeds, st.booleans(),
)


def _phases(separator):
    return [phase.paths for phase in separator.phases]


def _nodes(tree):
    return [
        (node.node_id, node.parent, node.depth, node.vertices, _phases(node.separator))
        for node in tree.nodes
    ]


def assert_same_engine(graph, make_prod, make_ref):
    assert _phases(make_prod().find_separator(graph)) == _phases(
        make_ref().find_separator(graph)
    )
    assert _nodes(build_decomposition(graph, engine=make_prod())) == _nodes(
        build_decomposition(graph, engine=make_ref())
    )


SWEEP_GRAPHS = {
    "delaunay": lambda n, s: random_delaunay_graph(n, seed=s)[0],
    "grid": lambda n, s: grid_2d(int(n**0.5), weight_range=(1.0, 9.0), seed=s),
    "unit-grid": lambda n, s: grid_2d(int(n**0.5) + s % 3, int(n**0.5)),
    "ktree3": lambda n, s: k_tree(n, 3, seed=s)[0],
    "series-parallel": lambda n, s: series_parallel_graph(n, seed=s),
}
SWEEP_ENGINES = {
    "greedy": lambda s: (production.GreedyPeelingEngine(seed=s), reference.GreedyPeelingEngine(seed=s)),
    "cycle": lambda s: (production.FundamentalCycleEngine(seed=s), reference.FundamentalCycleEngine(seed=s)),
    "strong": lambda s: (production.StrongGreedyEngine(seed=s), reference.StrongGreedyEngine(seed=s)),
    "centerbag": lambda s: (production.CenterBagEngine(), reference.CenterBagEngine()),
    "planar": lambda s: (PlanarCycleEngine(), reference.PlanarCycleEngine()),
}


@pytest.mark.parametrize("family", sorted(SWEEP_GRAPHS))
@pytest.mark.parametrize("n", [150, 400])
def test_sweep_of_larger_graphs(family, n):
    """Sizes hypothesis seldom draws, where scipy trees and big scoring
    regions carry most of the work."""
    for seed in (1, 2):
        graph = SWEEP_GRAPHS[family](n, seed)
        for name, make in SWEEP_ENGINES.items():
            if name == "centerbag" and family not in ("ktree3", "series-parallel"):
                continue
            if name in ("strong", "planar") and n > 150:
                continue
            if name == "planar" and family in ("ktree3", "series-parallel"):
                continue
            prod, ref = make(seed)
            assert _nodes(build_decomposition(graph, engine=prod)) == _nodes(
                build_decomposition(graph, engine=ref)
            ), (family, n, seed, name)


class TestPathEngines:
    @DIFF
    @given(graph=mesh_graphs, seed=seeds)
    def test_greedy(self, graph, seed):
        assert_same_engine(
            graph,
            lambda: production.GreedyPeelingEngine(seed=seed),
            lambda: reference.GreedyPeelingEngine(seed=seed),
        )

    @DIFF
    @given(graph=mesh_graphs, seed=seeds, num_candidates=st.integers(1, 24))
    def test_greedy_weighted(self, graph, seed, num_candidates):
        rng = random.Random(seed)
        # Positive weights, so every node of a build has something to cut.
        weight = {v: rng.choice([0.1, 0.3, 1.0, 7.5, rng.random() + 1e-3]) for v in graph}
        assert_same_engine(
            graph,
            lambda: production.GreedyPeelingEngine(
                num_candidates=num_candidates, seed=seed, vertex_weight=weight
            ),
            lambda: reference.GreedyPeelingEngine(
                num_candidates=num_candidates, seed=seed, vertex_weight=weight
            ),
        )
        # Zero weights and repeated tiny ones: sums whose float value
        # depends on the order they are added in.
        weight = {v: rng.choice([0.0, 0.1, 1e-17, 3.0]) for v in graph}
        prod = production.GreedyPeelingEngine(seed=seed, vertex_weight=weight)
        ref = reference.GreedyPeelingEngine(seed=seed, vertex_weight=weight)
        assert _phases(prod.find_separator(graph)) == _phases(ref.find_separator(graph))

    @DIFF
    @given(graph=mesh_graphs, seed=seeds)
    def test_fundamental_cycle(self, graph, seed):
        assert_same_engine(
            graph,
            lambda: production.FundamentalCycleEngine(seed=seed),
            lambda: reference.FundamentalCycleEngine(seed=seed),
        )

    @DIFF
    @given(graph=mesh_graphs, seed=seeds)
    def test_strong_greedy(self, graph, seed):
        assert_same_engine(
            graph,
            lambda: production.StrongGreedyEngine(seed=seed),
            lambda: reference.StrongGreedyEngine(seed=seed),
        )

    @DIFF
    @given(graph=mesh_graphs)
    def test_planar_cycle(self, graph):
        assert_same_engine(graph, PlanarCycleEngine, reference.PlanarCycleEngine)

    @DIFF
    @given(graph=trees)
    def test_tree_centroid(self, graph):
        assert_same_engine(
            graph, production.TreeCentroidEngine, reference.TreeCentroidEngine
        )

    @DIFF
    @given(graph=mesh_graphs, seed=seeds, data=st.data())
    def test_within_subsets(self, graph, seed, data):
        """A *within* set may be disconnected or leave out vertices."""
        verts = sorted(graph.vertices(), key=repr)
        keep = data.draw(st.lists(st.booleans(), min_size=len(verts), max_size=len(verts)))
        within = {v for v, k in zip(verts, keep) if k}
        for name in ("GreedyPeelingEngine", "FundamentalCycleEngine", "StrongGreedyEngine"):
            prod = getattr(production, name)(seed=seed).find_separator(graph, within=within)
            ref = getattr(reference, name)(seed=seed).find_separator(graph, within=within)
            assert _phases(prod) == _phases(ref), name


class TestCenterBag:
    @DIFF
    @given(graph=treewidth_graphs, order=st.sampled_from(["min_degree", "min_fill", "mcs"]))
    def test_center_bag_orders(self, graph, order):
        assert_same_engine(
            graph,
            lambda: production.CenterBagEngine(order=order),
            lambda: reference.CenterBagEngine(order=order),
        )

    @DIFF
    @given(graph=st.one_of(treewidth_graphs, mesh_graphs, trees))
    def test_auto_engine_choice(self, graph):
        assert type(production.auto_engine(graph)).__name__ == type(
            reference.auto_engine(graph)
        ).__name__


class TestCenterWalk:
    @DIFF
    @given(
        graph=st.one_of(treewidth_graphs, trees, mesh_graphs),
        order=st.sampled_from(["min_degree", "min_fill", "mcs"]),
        root=st.integers(0, 10**6),
    )
    def test_center_bag_matches_reference_walk(self, graph, order, root):
        """The walk under the public :func:`center_bag`, from any root;
        paths and even cycles give subtrees of exactly half the weight."""
        order_fn = {
            "min_degree": min_degree_order,
            "min_fill": min_fill_order,
            "mcs": mcs_order,
        }[order]
        td = decomposition_from_elimination(graph, order_fn(graph))
        root %= td.num_bags
        assert center_bag(graph, td, root) == reference.center_bag(graph, td, root)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_paths_and_cycles(self, n):
        for graph in [path_graph(n)] + ([cycle_graph(n)] if n >= 3 else []):
            for order in ("min_degree", "min_fill", "mcs"):
                assert _phases(
                    production.CenterBagEngine(order=order).find_separator(graph)
                ) == _phases(reference.CenterBagEngine(order=order).find_separator(graph))


class TestEliminationHeuristics:
    @DIFF
    @given(graph=st.one_of(treewidth_graphs, mesh_graphs))
    def test_orders_and_decompositions(self, graph):
        for prod, ref in (
            (min_degree_order, reference.min_degree_order),
            (min_fill_order, reference.min_fill_order),
            (mcs_order, reference.mcs_order),
        ):
            order = prod(graph)
            assert order == ref(graph)
            td = decomposition_from_elimination(graph, order)
            ref_td = reference.decomposition_from_elimination(graph, order)
            assert td.bags == ref_td.bags
            assert td.tree_adj == ref_td.tree_adj

import pytest

from repro.core import (
    CenterBagEngine,
    FundamentalCycleEngine,
    GreedyPeelingEngine,
    StrongGreedyEngine,
    TreeCentroidEngine,
    auto_engine,
    build_decomposition,
)
from repro.core import engines
from repro.generators import (
    complete_bipartite,
    grid_2d,
    k_tree,
    mesh_with_universal,
    outerplanar_graph,
    random_delaunay_graph,
    random_planar_graph,
    random_regular_graph,
    random_tree,
    series_parallel_graph,
)
from repro.graphs import Graph
from repro.util.errors import GraphError


def assert_valid(engine, graph, max_paths=None):
    sep = engine.find_separator(graph)
    sep.validate(graph)
    if max_paths is not None:
        assert sep.num_paths <= max_paths
    return sep


class TestTreeCentroid:
    def test_path_graph_centroid(self):
        g = Graph([(i, i + 1) for i in range(10)])
        sep = assert_valid(TreeCentroidEngine(), g, max_paths=1)
        # Centroid of a path of 11 vertices is the middle.
        assert sep.vertices() == {5}

    def test_star_centroid_is_hub(self):
        g = Graph([(0, i) for i in range(1, 20)])
        sep = assert_valid(TreeCentroidEngine(), g, max_paths=1)
        assert sep.vertices() == {0}

    def test_random_trees_one_path(self):
        for seed in range(5):
            g = random_tree(71, seed=seed)
            assert_valid(TreeCentroidEngine(), g, max_paths=1)

    def test_weighted_tree(self):
        g = random_tree(64, weight_range=(1.0, 10.0), seed=3)
        assert_valid(TreeCentroidEngine(), g, max_paths=1)

    def test_cycle_rejected(self):
        g = Graph([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError):
            TreeCentroidEngine().find_separator(g)

    def test_single_vertex(self):
        g = Graph()
        g.add_vertex("v")
        sep = TreeCentroidEngine().find_separator(g)
        assert sep.vertices() == {"v"}

    def test_already_balanced_within(self):
        # Two singleton components: nothing to split.
        g = Graph()
        g.add_vertex(0)
        g.add_vertex(1)
        sep = TreeCentroidEngine().find_separator(g)
        assert sep.num_paths == 0


class TestCenterBag:
    def test_ktree_strong_small_separator(self):
        g, _ = k_tree(80, 3, seed=1)
        sep = assert_valid(CenterBagEngine(order="mcs"), g, max_paths=4)
        assert sep.is_strong

    def test_series_parallel_three_paths(self):
        g = series_parallel_graph(100, seed=2)
        assert_valid(CenterBagEngine(), g, max_paths=3)

    def test_outerplanar(self):
        g = outerplanar_graph(60, seed=3)
        assert_valid(CenterBagEngine(), g, max_paths=3)

    def test_invalid_order_name(self):
        with pytest.raises(ValueError):
            CenterBagEngine(order="magic")

    def test_all_single_vertex_paths(self):
        g, _ = k_tree(40, 2, seed=4)
        sep = CenterBagEngine(order="mcs").find_separator(g)
        assert all(len(p) == 1 for p in sep.all_paths())


class TestGreedyPeeling:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: grid_2d(9),
            lambda: grid_2d(8, weight_range=(1.0, 5.0), seed=1),
            lambda: random_planar_graph(90, seed=2),
            lambda: random_delaunay_graph(90, seed=3)[0],
        ],
        ids=["grid", "weighted_grid", "planar", "delaunay"],
    )
    def test_valid_and_few_paths_on_planar_families(self, maker):
        sep = assert_valid(GreedyPeelingEngine(seed=0), maker(), max_paths=8)

    def test_unweighted_grid_uses_few_paths(self):
        sep = GreedyPeelingEngine(seed=0).find_separator(grid_2d(10))
        assert sep.num_paths <= 3

    def test_deterministic_given_seed(self):
        g = random_planar_graph(60, seed=5)
        a = GreedyPeelingEngine(seed=1).find_separator(g)
        b = GreedyPeelingEngine(seed=1).find_separator(g)
        assert [p for ph in a.phases for p in ph.paths] == [
            p for ph in b.phases for p in ph.paths
        ]

    def test_max_paths_guard(self):
        g = random_regular_graph(64, 3, seed=6)
        with pytest.raises(GraphError, match="max_paths"):
            GreedyPeelingEngine(max_paths=1, seed=0).find_separator(g)

    def test_bad_candidate_count(self):
        with pytest.raises(ValueError):
            GreedyPeelingEngine(num_candidates=0)

    def test_within_subset(self):
        g = grid_2d(8)
        within = {v for v in g.vertices() if v[0] < 4}
        sep = GreedyPeelingEngine(seed=0).find_separator(g, within=within)
        sep.validate(g, within=within)

    @pytest.mark.parametrize(
        "weights", [None, (1.0, 5.0)], ids=["unit_grid", "weighted_grid"]
    )
    def test_scipy_trees_stop_after_the_first_tie_in_a_build(
        self, monkeypatch, weights
    ):
        # Unit weights tie everywhere: once one scipy tree of a build is
        # thrown away, the rest go straight to dijkstra.  Untied weights
        # keep every large tree on scipy.
        tried = []
        scipy_tree = engines._Region._scipy

        def counting(region, root, parents):
            dist, parent = scipy_tree(region, root, parents)
            if parents:
                tried.append(parent is not None)
            return dist, parent

        monkeypatch.setattr(engines._Region, "_scipy", counting)
        graph = grid_2d(20, weight_range=weights, seed=1)
        build_decomposition(graph, engine=GreedyPeelingEngine(seed=0))
        if weights is None:
            assert tried == [False]
        else:
            assert len(tried) > 1 and all(tried)

    def test_randomness_independent_of_call_order(self):
        # Per-component RNGs are derived from (seed, component), not
        # drawn from one shared stream, so the separator found for a
        # component must not depend on which components were processed
        # before it.  This is what makes a fork-based parallel build
        # reproduce the serial decomposition exactly.
        g = grid_2d(8)
        left = {v for v in g.vertices() if v[0] < 4}
        right = {v for v in g.vertices() if v[0] >= 4}

        def paths(engine, within):
            sep = engine.find_separator(g, within=within)
            return [p for ph in sep.phases for p in ph.paths]

        fresh = paths(GreedyPeelingEngine(seed=3), left)
        reused = GreedyPeelingEngine(seed=3)
        paths(reused, right)  # consume "the stream" on another component
        assert paths(reused, left) == fresh


class TestFundamentalCycle:
    def test_grid_strong_three_paths(self):
        g = grid_2d(10)
        sep = FundamentalCycleEngine(seed=0).find_separator(g)
        sep.validate(g)
        assert sep.phases[0].num_paths <= 3

    def test_delaunay(self):
        g, _ = random_delaunay_graph(120, seed=1)
        sep = FundamentalCycleEngine(seed=0).find_separator(g)
        sep.validate(g)

    def test_tree_falls_back_to_centroid(self):
        g = random_tree(40, seed=2)
        sep = FundamentalCycleEngine(seed=0).find_separator(g)
        sep.validate(g)
        assert sep.num_paths == 1

    def test_weighted_planar(self):
        g = random_planar_graph(80, weight_range=(1.0, 20.0), seed=3)
        sep = FundamentalCycleEngine(seed=0).find_separator(g)
        sep.validate(g)


class TestStrongGreedy:
    def test_single_phase_output(self):
        g = grid_2d(8)
        sep = StrongGreedyEngine(seed=0).find_separator(g)
        sep.validate(g)
        assert sep.is_strong

    def test_mesh_with_universal_needs_many_paths(self):
        # Theorem 6.3: diameter-2 graph, every shortest path has <= 3
        # vertices, so ~t/3 paths are needed for a t x t mesh.
        g = mesh_with_universal(8)
        sep = StrongGreedyEngine(seed=0).find_separator(g)
        sep.validate(g)
        assert sep.num_paths >= 8 / 3

    def test_complete_bipartite_lower_bound(self):
        # Theorem 7: K_{r, n-r} needs at least r/2 paths.
        r = 6
        g = complete_bipartite(r, 30)
        sep = StrongGreedyEngine(seed=0).find_separator(g)
        sep.validate(g)
        assert sep.num_paths >= r / 2

    def test_max_paths_guard(self):
        g = mesh_with_universal(12)
        with pytest.raises(GraphError):
            StrongGreedyEngine(max_paths=1, seed=0).find_separator(g)


class TestAutoEngine:
    def test_tree_gets_centroid(self):
        engine = auto_engine(random_tree(50, seed=1))
        assert isinstance(engine, TreeCentroidEngine)

    def test_low_treewidth_gets_center_bag(self):
        engine = auto_engine(series_parallel_graph(60, seed=2))
        assert isinstance(engine, CenterBagEngine)

    def test_grid_gets_greedy(self):
        engine = auto_engine(grid_2d(12))
        assert isinstance(engine, GreedyPeelingEngine)

    def test_chosen_engine_produces_valid_separator(self):
        for maker in (
            lambda: random_tree(40, seed=3),
            lambda: series_parallel_graph(40, seed=4),
            lambda: grid_2d(8),
        ):
            g = maker()
            sep = auto_engine(g).find_separator(g)
            sep.validate(g)


class TestSection52WeightedExample:
    def test_weighted_bipartite_path_is_one_path_separable(self):
        # The paper's Section 5.2 opener: a path of n/2 vertices plus a
        # stable set of n/2 vertices joined to every path vertex has a
        # K_{n/2,n/2} minor, yet with path edges of weight 1 and
        # cross edges of weight n/2 the whole path is a single
        # minimum-cost path whose removal isolates the stable set —
        # O(1)-path separability does not reduce to minor-freeness.
        half = 12
        g = Graph()
        for i in range(half - 1):
            g.add_edge(("p", i), ("p", i + 1), 1.0)
        for j in range(half):
            for i in range(half):
                g.add_edge(("s", j), ("p", i), float(half))
        from repro.core import PathSeparator, SeparatorPhase

        whole_path = [("p", i) for i in range(half)]
        sep = PathSeparator(phases=[SeparatorPhase(paths=[whole_path])])
        sep.validate(g)  # the path IS a minimum-cost path; removal isolates
        assert sep.num_paths == 1
        assert sep.max_component_fraction(g) <= 0.5

    def test_greedy_engine_also_finds_small_separator_there(self):
        half = 10
        g = Graph()
        for i in range(half - 1):
            g.add_edge(("p", i), ("p", i + 1), 1.0)
        for j in range(half):
            for i in range(half):
                g.add_edge(("s", j), ("p", i), float(half))
        sep = GreedyPeelingEngine(seed=0).find_separator(g)
        sep.validate(g)
        assert sep.num_paths <= 3

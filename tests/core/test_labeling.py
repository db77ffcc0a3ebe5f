import pytest

from repro.core import build_decomposition, build_labeling, flat_estimate
from repro.core.labeling import estimate_distance
from repro.core.serialize import dump_labeling
from repro.generators import grid_2d, k_tree, random_tree
from repro.graphs import dijkstra
from repro.util.errors import GraphError

from tests.conftest import family_graphs, pair_sample
from tests.reference_labeling import dict_estimate, dict_label


def stretch_check(graph, labeling, epsilon, pairs):
    for u, v in pairs:
        true = dijkstra(graph, u)[0][v]
        est = labeling.estimate(u, v)
        assert est >= true - 1e-9, (u, v, est, true)
        assert est <= (1 + epsilon) * true + 1e-9, (u, v, est, true)


class TestCorrectness:
    @pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.1])
    def test_stretch_on_grid(self, epsilon):
        g = grid_2d(7)
        tree = build_decomposition(g)
        labeling = build_labeling(g, tree, epsilon=epsilon)
        stretch_check(g, labeling, epsilon, pair_sample(g, 120, seed=1))

    def test_stretch_on_all_families(self):
        for name, g in family_graphs("small"):
            tree = build_decomposition(g)
            labeling = build_labeling(g, tree, epsilon=0.25)
            stretch_check(g, labeling, 0.25, pair_sample(g, 60, seed=2))

    def test_identity_estimate_zero(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        assert labeling.estimate((1, 1), (1, 1)) == 0.0

    def test_adjacent_vertices(self, weighted_grid):
        tree = build_decomposition(weighted_grid)
        labeling = build_labeling(weighted_grid, tree, epsilon=0.25)
        for u, v, w in list(weighted_grid.edges())[:40]:
            true = dijkstra(weighted_grid, u)[0][v]
            est = labeling.estimate(u, v)
            assert true - 1e-9 <= est <= 1.25 * true + 1e-9

    def test_estimate_symmetric(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        for u, v in pair_sample(small_grid, 30, seed=3):
            assert labeling.estimate(u, v) == pytest.approx(
                labeling.estimate(v, u)
            )


class TestDistributedForm:
    def test_two_labels_suffice(self, small_grid):
        # Queries must work from the two labels alone, without the graph.
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        lu = labeling.label((0, 0))
        lv = labeling.label((4, 4))
        assert flat_estimate(lu, lv) >= 8.0 - 1e-9

    def test_estimate_distance_matches_dict_combine(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        for u, v in [((0, 0), (4, 4)), ((1, 3), (3, 0)), ((2, 2), (2, 2))]:
            lu, lv = labeling.label(u), labeling.label(v)
            want = dict_estimate(dict_label(lu), dict_label(lv))
            assert repr(estimate_distance(lu, lv)) == repr(want)

    def test_missing_vertex_raises(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        with pytest.raises(GraphError):
            labeling.label("ghost")


class TestLabelSizes:
    def test_size_report_covers_all_vertices(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        report = labeling.size_report()
        assert set(report.per_vertex) == set(small_grid.vertices())

    def test_labels_scale_with_inverse_epsilon(self):
        g = grid_2d(8, weight_range=(1.0, 6.0), seed=4)
        tree = build_decomposition(g)
        loose = build_labeling(g, tree, epsilon=1.0).size_report()
        tight = build_labeling(g, tree, epsilon=0.05).size_report()
        assert tight.mean_words >= loose.mean_words

    def test_label_words_positive(self, small_grid):
        labeling = build_labeling(small_grid, build_decomposition(small_grid))
        assert all(w > 0 for w in labeling.size_report().per_vertex.values())

    def test_polylog_scaling(self):
        # Mean label size should grow far slower than n.
        sizes = {}
        for side in (6, 12):
            g = grid_2d(side)
            labeling = build_labeling(g, build_decomposition(g), epsilon=0.25)
            sizes[side * side] = labeling.size_report().mean_words
        assert sizes[144] <= 4 * sizes[36]  # n grew 4x; labels must not

    def test_invalid_epsilon(self, small_grid):
        tree = build_decomposition(small_grid)
        with pytest.raises(ValueError):
            build_labeling(small_grid, tree, epsilon=-0.5)


class TestParallelBuild:
    def test_parallel_matches_serial_byte_for_byte(self):
        g = grid_2d(7, weight_range=(1.0, 6.0), seed=2)
        tree = build_decomposition(g)
        serial = dump_labeling(build_labeling(g, tree, epsilon=0.25))
        par = dump_labeling(
            build_labeling(g, tree, epsilon=0.25, parallel=4, seed=7)
        )
        assert par == serial

    def test_parallel_on_all_families(self):
        for name, g in family_graphs("small"):
            tree = build_decomposition(g)
            serial = dump_labeling(build_labeling(g, tree, epsilon=0.3))
            par = dump_labeling(
                build_labeling(g, tree, epsilon=0.3, parallel=3, seed=1)
            )
            assert par == serial, name

    def test_parallel_reproducible_across_runs(self):
        g = grid_2d(6)
        tree = build_decomposition(g)
        runs = [
            dump_labeling(
                build_labeling(g, tree, epsilon=0.25, parallel=4, seed=7)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_seed_does_not_change_label_bytes(self):
        # The labels are a deterministic function of (graph, tree,
        # epsilon); seed only steers worker child seeds, never output.
        g = grid_2d(6)
        tree = build_decomposition(g)
        a = dump_labeling(build_labeling(g, tree, parallel=2, seed=1))
        b = dump_labeling(build_labeling(g, tree, parallel=2, seed=999))
        assert a == b

    def test_parallel_one_is_serial(self):
        g = grid_2d(5)
        tree = build_decomposition(g)
        assert dump_labeling(
            build_labeling(g, tree, parallel=1)
        ) == dump_labeling(build_labeling(g, tree))

    def test_more_jobs_than_units(self):
        g = random_tree(12, seed=3)
        tree = build_decomposition(g)
        serial = dump_labeling(build_labeling(g, tree))
        assert dump_labeling(build_labeling(g, tree, parallel=64)) == serial


class TestTreeLabeling:
    def test_exact_on_trees(self):
        # With single-vertex separators every estimate goes through an
        # actual cut vertex, so tree estimates are exact.
        g = random_tree(80, weight_range=(1.0, 4.0), seed=5)
        labeling = build_labeling(g, build_decomposition(g), epsilon=0.25)
        for u, v in pair_sample(g, 60, seed=6):
            true = dijkstra(g, u)[0][v]
            assert labeling.estimate(u, v) == pytest.approx(true)

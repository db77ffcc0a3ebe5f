import math

import pytest

from repro.core import claim1_landmarks, epsilon_cover_portals
from tests.reference_labeling import min_portal_pair
from repro.core.portals import epsilon_cover_portals_at

INF = float("inf")


def linear_path(n):
    """A unit-weight path with vertices 0..n-1 and prefix = positions."""
    return list(range(n)), [float(i) for i in range(n)]


def check_cover(path, prefix, dist, portals, epsilon):
    """The defining property of an epsilon-cover."""
    for i, x in enumerate(path):
        dx = dist.get(x, INF)
        if dx == INF:
            continue
        best = min(
            dist[path[c]] + abs(prefix[c] - prefix[i]) for c, _ in portals
        )
        assert best <= (1 + epsilon) * dx + 1e-9, (i, best, dx)


class TestEpsilonCover:
    def test_cover_property_uniform_distances(self):
        path, prefix = linear_path(30)
        dist = {i: 10.0 + abs(i - 15) for i in path}
        for eps in (0.5, 0.25, 0.1):
            portals = epsilon_cover_portals(path, prefix, dist, eps)
            check_cover(path, prefix, dist, portals, eps)

    def test_cover_property_random_distances(self):
        import random

        rng = random.Random(3)
        path, prefix = linear_path(50)
        # Distances satisfying the 1-Lipschitz property along the path
        # (as real d_J(v, .) values do on a shortest path).
        dist = {0: rng.uniform(1, 20)}
        for i in range(1, 50):
            lo = max(0.5, dist[i - 1] - 1)
            dist[i] = rng.uniform(lo, dist[i - 1] + 1)
        portals = epsilon_cover_portals(path, prefix, dist, 0.2)
        check_cover(path, prefix, dist, portals, 0.2)

    def test_smaller_epsilon_means_more_portals(self):
        path, prefix = linear_path(200)
        dist = {i: 5.0 + 0.3 * abs(i - 100) for i in path}
        few = epsilon_cover_portals(path, prefix, dist, 1.0)
        many = epsilon_cover_portals(path, prefix, dist, 0.05)
        assert len(many) >= len(few)

    def test_vertex_on_path_gets_itself(self):
        path, prefix = linear_path(10)
        dist = {i: float(abs(i - 4)) for i in path}  # v == path[4]
        portals = epsilon_cover_portals(path, prefix, dist, 0.5)
        assert (4, 0.0) in portals

    def test_positional_variant_matches_dict_form(self):
        import random

        rng = random.Random(11)
        path, prefix = linear_path(40)
        dist = {0: rng.uniform(1, 20)}
        for i in range(1, 40):
            dist[i] = rng.uniform(max(0.5, dist[i - 1] - 1), dist[i - 1] + 1)
        # Knock some vertices unreachable to exercise the INF handling.
        del dist[7], dist[8]
        pos_dist = [dist.get(x, INF) for x in path]
        for eps in (1.0, 0.25, 0.05):
            assert epsilon_cover_portals_at(
                prefix, pos_dist, eps
            ) == epsilon_cover_portals(path, prefix, dist, eps)

    def test_positional_variant_all_unreachable(self):
        path, prefix = linear_path(6)
        assert epsilon_cover_portals_at(prefix, [INF] * 6, 0.25) == []

    def test_unreachable_vertices_skipped(self):
        path, prefix = linear_path(10)
        dist = {0: 1.0, 1: 1.5}  # the rest unreachable
        portals = epsilon_cover_portals(path, prefix, dist, 0.5)
        assert all(idx in (0, 1) for idx, _ in portals)

    def test_fully_unreachable_path(self):
        path, prefix = linear_path(5)
        assert epsilon_cover_portals(path, prefix, {}, 0.5) == []

    def test_invalid_epsilon(self):
        path, prefix = linear_path(5)
        with pytest.raises(ValueError):
            epsilon_cover_portals(path, prefix, {0: 1.0}, 0.0)

    def test_portal_count_grows_logarithmically_not_linearly(self):
        # Doubling the path length should add O(1/eps) portals, not 2x.
        dist_fn = lambda i, c: 3.0 + abs(i - c) * 0.9
        sizes = []
        for n in (64, 256, 1024):
            path, prefix = linear_path(n)
            dist = {i: dist_fn(i, n // 2) for i in path}
            portals = epsilon_cover_portals(path, prefix, dist, 0.25)
            sizes.append(len(portals))
        assert sizes[2] - sizes[1] <= 2 * (sizes[1] - sizes[0]) + 4


class TestClaim1Landmarks:
    def test_claim1_contraction_property(self):
        # Claim 1: for any x on Q there is a landmark l with
        # d_Q(l, x) <= (3/4) d_J(v, x).
        path, prefix = linear_path(120)
        c = 37
        d0 = 6.0
        dist = {i: d0 + abs(i - c) * 0.8 for i in path}
        landmarks = claim1_landmarks(path, prefix, dist, aspect_ratio=120)
        for i, x in enumerate(path):
            best = min(abs(prefix[l] - prefix[i]) for l in landmarks)
            assert best <= 0.75 * dist[x] + 1e-9

    def test_zero_distance_returns_single(self):
        path, prefix = linear_path(20)
        dist = {i: float(abs(i - 7)) for i in path}
        assert claim1_landmarks(path, prefix, dist, aspect_ratio=20) == [7]

    def test_landmark_count_logarithmic_in_delta(self):
        path, prefix = linear_path(2000)
        dist = {i: 4.0 + abs(i - 1000) * 0.5 for i in path}
        landmarks = claim1_landmarks(path, prefix, dist, aspect_ratio=2000)
        assert len(landmarks) <= 2 * (11 + math.ceil(math.log2(2000)) + 1) + 1

    def test_unreachable_path(self):
        path, prefix = linear_path(5)
        assert claim1_landmarks(path, prefix, {}, aspect_ratio=4) == []

    def test_single_vertex_path(self):
        assert claim1_landmarks([42], [0.0], {42: 3.0}, aspect_ratio=8) == [0]


class TestMinPortalPair:
    def brute(self, eu, ev):
        return min(
            du + abs(pu - pv) + dv for pu, du in eu for pv, dv in ev
        )

    def test_matches_bruteforce_random(self):
        import random

        rng = random.Random(11)
        for _ in range(50):
            eu = sorted(
                (rng.uniform(0, 100), rng.uniform(0, 50)) for _ in range(rng.randint(1, 8))
            )
            ev = sorted(
                (rng.uniform(0, 100), rng.uniform(0, 50)) for _ in range(rng.randint(1, 8))
            )
            assert min_portal_pair(eu, ev) == pytest.approx(self.brute(eu, ev))

    def test_empty_side_gives_inf(self):
        assert min_portal_pair([], [(0.0, 1.0)]) == INF
        assert min_portal_pair([(0.0, 1.0)], []) == INF

    def test_identical_position(self):
        assert min_portal_pair([(5.0, 2.0)], [(5.0, 3.0)]) == 5.0

    def test_single_entries(self):
        assert min_portal_pair([(0.0, 1.0)], [(10.0, 2.0)]) == 13.0

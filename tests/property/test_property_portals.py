"""Property-based tests for portal selection and portal-pair queries."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import epsilon_cover_portals
from tests.reference_labeling import min_portal_pair

INF = float("inf")


@st.composite
def path_with_distances(draw):
    """A weighted path (prefix) plus a 1-Lipschitz distance function,
    the shape real d_J(v, .) restrictions to a shortest path have."""
    n = draw(st.integers(2, 40))
    gaps = draw(
        st.lists(st.floats(0.1, 5.0), min_size=n - 1, max_size=n - 1)
    )
    prefix = [0.0]
    for g in gaps:
        prefix.append(prefix[-1] + g)
    d0 = draw(st.floats(0.1, 20.0))
    dist = {0: d0}
    for i in range(1, n):
        gap = prefix[i] - prefix[i - 1]
        delta = draw(st.floats(-1.0, 1.0)) * gap
        dist[i] = max(0.05, dist[i - 1] + delta)
    path = list(range(n))
    return path, prefix, dist


class TestEpsilonCoverProperty:
    @settings(max_examples=80, deadline=None)
    @given(data=path_with_distances(), epsilon=st.sampled_from([1.0, 0.5, 0.25, 0.1]))
    def test_cover_invariant(self, data, epsilon):
        path, prefix, dist = data
        portals = epsilon_cover_portals(path, prefix, dist, epsilon)
        assert portals, "reachable path must produce portals"
        for i in path:
            best = min(
                dist[path[c]] + abs(prefix[c] - prefix[i]) for c, _ in portals
            )
            assert best <= (1 + epsilon) * dist[i] + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(data=path_with_distances())
    def test_portals_sorted_and_unique(self, data):
        path, prefix, dist = data
        portals = epsilon_cover_portals(path, prefix, dist, 0.3)
        indices = [i for i, _ in portals]
        assert indices == sorted(set(indices))

    @settings(max_examples=40, deadline=None)
    @given(data=path_with_distances())
    def test_closest_vertex_always_chosen(self, data):
        path, prefix, dist = data
        portals = epsilon_cover_portals(path, prefix, dist, 0.5)
        closest = min(dist.values())
        assert any(abs(d - closest) < 1e-12 for _, d in portals)


entry_lists = st.lists(
    st.tuples(st.floats(0, 100), st.floats(0, 50)),
    min_size=1,
    max_size=10,
).map(sorted)


class TestMinPortalPairProperty:
    @settings(max_examples=120, deadline=None)
    @given(eu=entry_lists, ev=entry_lists)
    def test_matches_bruteforce(self, eu, ev):
        brute = min(
            du + abs(pu - pv) + dv
            for (pu, du), (pv, dv) in itertools.product(eu, ev)
        )
        assert abs(min_portal_pair(eu, ev) - brute) <= 1e-9 * max(1.0, brute)

    @settings(max_examples=40, deadline=None)
    @given(eu=entry_lists, ev=entry_lists)
    def test_symmetry(self, eu, ev):
        # Equal up to float association (the summation order differs).
        a = min_portal_pair(eu, ev)
        b = min_portal_pair(ev, eu)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

"""``flat_estimate_many`` against ``flat_estimate`` and the dict reference.

The batch kernel must give, for every pair, the bits the per-pair merge
gives, and so the bits of the test reference's ``dict_estimate``:

* over built labels that are resident, churned (decoded off a ``/2``
  file without merge state) and delta-spliced (rewritten by
  ``incremental_relabel``);
* over labels whose keys are stored in a non-ascending order (a ``/1``
  payload's own order);
* over drawn labels whose portals tie on position across the two
  labels, in both key-count orders (which label the merge takes first
  decides the float expression on a tie);
* for a vertex paired with itself (``0.0``), for pairs that share no
  key (``inf``) and for single-portal keys;
* and with metrics on, it counts the same ``oracle.query.*`` totals.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_decomposition, build_labeling
from repro.core.binfmt import BinaryLabelReader, pack_labeling
from repro.core.flat import FlatLabel, flat_estimate, flat_estimate_many
from repro.dynamic import incremental_relabel
from repro.obs import metrics
from tests.dynamic.test_rebuild import random_reweight
from tests.property.test_property_flat import graph_strategy
from tests.reference_labeling import dict_estimate, dict_label

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_kernel_matches(pairs):
    """The kernel's answers are the merge's and the reference's, bit
    for bit."""
    got = flat_estimate_many(pairs)
    assert len(got) == len(pairs)
    for (a, b), value in zip(pairs, got):
        want = flat_estimate(a, b)
        assert repr(value) == repr(want), (a, b, value, want)
        assert repr(value) == repr(dict_estimate(dict_label(a), dict_label(b)))
    return got


def random_pairs(labels, count, seed):
    verts = sorted(labels, key=repr)
    rng = random.Random(seed)
    return [
        (labels[rng.choice(verts)], labels[rng.choice(verts)]) for _ in range(count)
    ]


def shuffled(label, rng):
    """*label* with its keys in a shuffled storage order."""
    items = list(label.entries().items())
    rng.shuffle(items)
    return FlatLabel.from_entries(label.vertex, dict(items))


class TestBuiltLabels:
    @SLOW
    @given(
        graph=graph_strategy,
        epsilon=st.sampled_from([1.0, 0.25]),
        seed=st.integers(0, 10**6),
    )
    def test_resident_churned_spliced_and_shuffled(self, graph, epsilon, seed):
        labeling = build_labeling(graph, build_decomposition(graph), epsilon=epsilon)
        resident = dict(labeling.labels)
        with BinaryLabelReader(pack_labeling(labeling, num_shards=2)) as reader:
            churned = {v: reader.get_flat(v, memo=False) for v in resident}
        rng = random.Random(seed)
        incremental_relabel(labeling, random_reweight(rng, labeling.graph))
        spliced = labeling.labels
        reordered = {v: shuffled(label, rng) for v, label in resident.items()}
        for labels in (resident, churned, spliced, reordered):
            assert_kernel_matches(random_pairs(labels, 48, seed))
        # Mixed kinds within one call, a vertex with itself included.
        mixed = [
            (churned[a.vertex], reordered[b.vertex])
            for a, b in random_pairs(resident, 24, seed + 1)
        ]
        v = next(iter(resident))
        mixed += [(resident[v], churned[v]), (spliced[v], spliced[v])]
        got = assert_kernel_matches(mixed)
        assert got[-2:] == [0.0, 0.0]


# Positions from a small grid, so portals of the two labels often tie;
# distances with fractional parts, so the two tie expressions round
# differently.
position = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
distance = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3, 2.9, 10.1])
key = st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 2))
run = st.lists(st.tuples(position, distance), min_size=1, max_size=4).map(sorted)


@st.composite
def label(draw, vertex):
    return FlatLabel.from_entries(vertex, draw(st.dictionaries(key, run, max_size=6)))


class TestDrawnLabels:
    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(0, 7).flatmap(label), min_size=2, max_size=12),
           seed=st.integers(0, 10**6))
    def test_ties_and_both_key_count_orders(self, labels, seed):
        rng = random.Random(seed)
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(40)]
        # Both orders of every pair: whichever holds fewer keys is merged
        # first, and equal counts keep u first.
        pairs += [(b, a) for a, b in pairs]
        assert_kernel_matches(pairs)

    def test_equal_positions_take_the_merge_expression(self):
        # p_a == p_b: the merge pops a's portal first, so the candidate
        # is ((d_a - p_a) + d_b) + p_b, with a the label holding fewer
        # keys.  The two tie expressions differ in the last bit here.
        k = (0, 0, 0)
        few = FlatLabel.from_entries("few", {k: [(0.1, 0.7)]})
        many = FlatLabel.from_entries("many", {k: [(0.1, 1 / 3)], (1, 0, 0): [(0.0, 1.0)]})
        first = ((0.7 - 0.1) + 1 / 3) + 0.1
        other = ((1 / 3 - 0.1) + 0.7) + 0.1
        assert first != other
        assert flat_estimate_many([(few, many), (many, few)]) == [first, first]
        assert flat_estimate(many, few) == first

    def test_self_pairs_disjoint_keys_and_single_portals(self):
        u = FlatLabel.from_entries("u", {(0, 0, 0): [(1.0, 2.0)], (2, 0, 0): [(0.0, 1.0)]})
        v = FlatLabel.from_entries("v", {(0, 0, 0): [(3.0, 0.5)]})
        w = FlatLabel.from_entries("w", {(1, 0, 0): [(0.0, 1.0)]})
        empty = FlatLabel.from_entries("e", {})
        got = assert_kernel_matches([(u, u), (u, v), (v, w), (w, empty), (empty, empty)])
        assert got == [0.0, ((2.0 - 1.0) + 0.5) + 3.0, float("inf"), float("inf"), 0.0]
        assert flat_estimate_many([]) == []
        assert flat_estimate_many([(w, w)]) == [0.0]
        assert flat_estimate_many([(v, w)]) == [float("inf")]


class TestMetrics:
    def test_same_query_counters_as_the_merge(self):
        u = FlatLabel.from_entries("u", {(0, 0, 0): [(1.0, 2.0)], (2, 0, 0): [(0.0, 1.0)]})
        v = FlatLabel.from_entries("v", {(0, 0, 0): [(3.0, 0.5)], (2, 0, 0): [(1.0, 1.0)]})
        w = FlatLabel.from_entries("w", {(1, 0, 0): [(0.0, 1.0)]})
        pairs = [(u, v), (v, w), (u, u), (w, u), (v, u)]
        counts = []
        for run_pairs in (lambda: [flat_estimate(a, b) for a, b in pairs],
                          lambda: flat_estimate_many(pairs)):
            metrics.reset()
            try:
                with metrics.activate():
                    run_pairs()
                counts.append({
                    name: value for name, value in metrics.counters.items()
                    if name.startswith("oracle.query")
                })
            finally:
                metrics.reset()
        assert counts[0] == counts[1]
        assert counts[0] == {"oracle.query.count": 4.0, "oracle.query.portal_scans": 4.0}

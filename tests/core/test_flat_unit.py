"""Unit and regression tests for the flat core's edges.

Covers what the differential wall cannot: the canonical-vertex rule on
``CSRGraph`` (the PR 7 shard-key regression, now at the index layer),
path-key encoding bounds, the small-residual dispatch, the construction
kernel's source validation, the big-endian fallbacks of the ``/2``
decoder and writer, the per-key merge state a resident ``FlatLabel`` builds on
first use and the churned labels that build none — all without a skip in
sight.
"""

import math
import random
import struct

import pytest

from repro.core import (
    CSRGraph,
    FlatLabel,
    build_decomposition,
    build_labeling,
    dump_labeling,
    flat_estimate,
)
from repro.core import flat_build
from repro.core.binfmt import (
    BinaryLabelReader,
    pack_labeling,
    write_labeling_binary,
)
from repro.core.flat import (
    decode_path_key,
    encode_path_key,
    flat_estimate_many,
    label_content,
)
from repro.core.flat_build import (
    SMALL_RESIDUAL,
    FlatBuildContext,
    flat_unit_entries,
    flat_unit_rows,
)
from repro.core.serialize import (
    RemoteLabels,
    decode_label,
    encode_label,
    load_labeling,
)
from repro.dynamic.rebuild import (
    EdgeUpdate,
    delta_to_dict,
    incremental_relabel,
)
from repro.generators import grid_2d, random_delaunay_graph
from repro.graphs import Graph
from repro.graphs.shortest_paths import batched_dijkstra
from repro.serve.store import ShardedLabelStore
from repro.util.errors import GraphError
from tests.dynamic.test_rebuild import random_reweight
from tests.reference_labeling import (
    VertexLabel,
    dict_estimate,
    dict_label,
    flat_label,
    phase_portal_distance_maps,
    reference_build_labeling,
    unit_entries,
    unit_triples,
)


class TestCanonicalVertexRegression:
    """``1`` and ``1.0`` are ONE vertex, at every layer.

    PR 7 fixed the shard router (``shard_key_bytes`` canonicalizes
    before hashing); the CSR index must obey the same rule or a
    JSON-round-tripped graph (integral floats) would silently diverge
    from the in-memory one (ints)."""

    def test_int_and_integral_float_resolve_to_one_index(self):
        g = Graph([(0, 1, 2.0), (1, 2, 3.0)])
        csr = CSRGraph.from_graph(g)
        for v in (0, 1, 2):
            assert csr.index_of(float(v)) == csr.index_of(v)
            assert float(v) in csr and v in csr

    def test_float_built_graph_answers_int_queries(self):
        # The JSON-round-trip shape: the graph's own vertices are
        # integral floats, the query keys are ints.
        g = Graph([(0.0, 1.0, 2.0), (1.0, 2.0, 3.0)])
        csr = CSRGraph.from_graph(g)
        assert csr.index_of(1) == csr.index_of(1.0)
        assert csr.neighbors(2) == csr.neighbors(2.0)

    def test_tuple_vertices_canonicalize_recursively(self):
        g = Graph([((0, 0.0), (1.0, 0), 1.5)])
        csr = CSRGraph.from_graph(g)
        assert csr.index_of((0.0, 0)) == csr.index_of((0, 0))
        assert (1, 0.0) in csr

    def test_unknown_vertex_raises_grapherror(self):
        csr = CSRGraph.from_graph(Graph([(0, 1, 1.0)]))
        with pytest.raises(GraphError, match="not in graph"):
            csr.index_of(7)
        assert 7 not in csr

    def test_canonical_collision_is_rejected(self):
        # Two distinct dict keys that canonicalize to the same index
        # key need a pathological __hash__ to coexist in a Graph at
        # all; if they ever do, from_graph must refuse rather than
        # silently merge or shadow them.
        class AliasedFloat(float):
            __hash__ = object.__hash__

            def __eq__(self, other):
                return self is other

            def __ne__(self, other):
                return self is not other

        one = AliasedFloat(1.0)
        g = Graph([(1, 0, 1.0), (one, 2, 1.0)])
        assert len(set(g.vertices())) == 4  # 1 and one really coexist
        with pytest.raises(GraphError, match="canonicalize"):
            CSRGraph.from_graph(g)

    def test_flat_labeling_matches_dict_on_float_keyed_graph(
        self, monkeypatch
    ):
        g = Graph([(0.0, 1.0, 2.0), (1.0, 2.0, 3.0), (2.0, 3.0, 1.0)])
        tree = build_decomposition(g)
        # Threshold 0 forces even this 4-vertex graph onto the CSR path.
        monkeypatch.setattr(flat_build, "SMALL_RESIDUAL", 0)
        flat = build_labeling(g, tree, epsilon=0.5)
        ref = reference_build_labeling(g, tree, epsilon=0.5)
        assert dump_labeling(flat) == dump_labeling(ref.flat())


class TestPathKeyEncoding:
    def test_code_order_equals_tuple_order(self):
        keys = [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 2, 3),
            (1, 2, 4), (2, 0, 0), (5, 65535, 7), (5, 0, 65535), (-5, 3, 0),
        ]
        codes = [encode_path_key(k) for k in keys]
        assert sorted(codes) == [encode_path_key(k) for k in sorted(keys)]
        assert len(set(codes)) == len(keys)

    def test_decoded_records_carry_the_same_codes(self):
        # The /2 key column holds encode_path_key's codes; the
        # decoded ones must equal them, field extremes included, or a
        # delta-rebuilt label would share no key with a mapped one.
        keys = [
            (0, 0, 0), (5, 65535, 7), (-3, 2, 65535), (7, 1 << 15, 0),
            ((1 << 31) - 1, 0, 65535), (-(1 << 31), 65535, 65535),
        ]
        lab = FlatLabel.from_entries(4, {key: [(0.0, 1.0)] for key in keys})
        blob = pack_labeling(RemoteLabels(0.25, {4: lab}), num_shards=1)
        decoded = BinaryLabelReader(blob).get_flat(4)
        assert decoded.index == lab.index
        assert decoded.index == {encode_path_key(k): i for i, k in enumerate(keys)}
        # ... and the key tuples a decoded label derives from its codes
        # are the record's own.
        assert decoded.keys == tuple(keys)
        assert label_content(decoded) == label_content(lab)
        assert [decode_path_key(encode_path_key(k)) for k in keys] == keys

    def test_out_of_range_components_are_rejected(self):
        for key in [
            (0, 1 << 16, 0), (0, 0, 1 << 16), (0, -1, 0), (0, 0, -1),
            (1 << 31, 0, 0), (-(1 << 31) - 1, 0, 0),
        ]:
            with pytest.raises(GraphError, match="outside the flat key range"):
                encode_path_key(key)


class TestFlatLabelShape:
    def test_words_and_portals_match_reference(self):
        g = random_delaunay_graph(48, seed=5)[0]
        tree = build_decomposition(g)
        labeling = build_labeling(g, tree, epsilon=0.25)
        ref = reference_build_labeling(g, tree, epsilon=0.25)
        for v, lab in ref.labels.items():
            fl = labeling.labels[v]
            assert fl.words == lab.words
            assert fl.num_portals == sum(
                len(p) for p in lab.entries.values()
            )

    def test_from_label_is_a_fresh_resident_copy(self):
        fl = FlatLabel.from_entries(7, {(0, 0, 0): [(0.0, 1.5), (2.0, 0.5)]})
        for source in (fl, _churned(fl)):
            twin = FlatLabel.from_label(source)
            assert label_content(twin) == label_content(fl)
            assert twin._spans == {}
            assert twin.runs is not fl.runs and twin.offs is not fl.offs
            assert twin.index is not fl.index

    def test_same_vertex_short_circuits_to_zero(self):
        lab = VertexLabel("x", {})
        fl = flat_label(lab)
        assert flat_estimate(fl, fl) == 0.0
        assert dict_estimate(lab, lab) == 0.0


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _churned(fl: FlatLabel) -> FlatLabel:
    """A twin of *fl* that carries no merge state."""
    return FlatLabel(fl.vertex, fl.codes, fl.offs, fl.runs, memo=False)


def _fresh_flat_labels(labeling, tmp_path):
    """Never-queried ``FlatLabel`` constructors, one per codec and
    kind: ``/1`` label payloads through the JSON decoder, ``/2``
    straight off the mapped record, each resident and churned."""
    payloads = {
        v: encode_label(label)
        for v, label in load_labeling(dump_labeling(labeling)).labels.items()
    }
    path = tmp_path / "labels.bin"
    write_labeling_binary(labeling, path, num_shards=4)
    reader = BinaryLabelReader(path)
    return reader, {
        "json": lambda v: decode_label(payloads[v]),
        "json-churned": lambda v: _churned(decode_label(payloads[v])),
        "binary": reader.get_flat,
        "binary-churned": lambda v: reader.get_flat(v, memo=False),
    }


def _assert_kinds_agree(make_res, make_churn, pairs, reference):
    """Every mix of resident and churned labels, in both argument
    orders, gives the bits of ``reference(u, v)``."""
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            want = _bits(reference(a, b))
            for make_a in (make_res, make_churn):
                for make_b in (make_res, make_churn):
                    assert _bits(flat_estimate(make_a(a), make_b(b))) == want


@pytest.fixture(scope="module")
def delaunay_labeling():
    g = random_delaunay_graph(64, seed=11)[0]
    return build_labeling(g, build_decomposition(g), epsilon=0.25)


class TestLazyMergeState:
    """Resident labels build per-key merge state on first use, churned
    labels build none; the bits never show which, nor whether a
    resident label was cold, warm or partly warm."""

    @pytest.mark.parametrize(
        "codec", ["json", "json-churned", "binary", "binary-churned"]
    )
    def test_cold_and_warm_estimates_are_bit_equal_to_reference(
        self, delaunay_labeling, tmp_path, codec
    ):
        labeling = delaunay_labeling
        reader, fresh = _fresh_flat_labels(labeling, tmp_path)
        make = fresh[codec]
        ref = reference_build_labeling(
            labeling.graph, labeling.tree, labeling.epsilon
        ).labels
        vertices = sorted(ref, key=repr)
        rng = random.Random(5)
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(300)]
        warm = {}
        with reader:
            for u, v in pairs:
                for a, b in ((u, v), (v, u)):
                    want = _bits(dict_estimate(ref[a], ref[b]))
                    assert _bits(flat_estimate(make(a), make(b))) == want
                    for x in (a, b):
                        if x not in warm:
                            warm[x] = make(x)
                    assert _bits(flat_estimate(warm[a], warm[b])) == want
        if codec.endswith("churned"):
            assert all(fl._spans is None for fl in warm.values())
        else:
            # The warm pool really was partly warm: some labels built
            # state for some keys and not for others.
            assert any(0 < len(fl._spans) < len(fl.keys) for fl in warm.values())

    def test_one_query_builds_state_only_for_shared_keys(
        self, delaunay_labeling, tmp_path
    ):
        # A store whose file fits its cache keeps its labels resident.
        path = tmp_path / "labels.bin"
        write_labeling_binary(delaunay_labeling, path, num_shards=4)
        vertices = sorted(delaunay_labeling.labels, key=repr)
        store = ShardedLabelStore.mapped(path, label_cache=len(vertices))
        partial = 0
        try:
            for u, v in zip(vertices, reversed(vertices)):
                if u == v:
                    continue
                store._cache.clear()
                fu, fv = store.flat_label(u), store.flat_label(v)
                assert fu._spans == {} and fv._spans == {}
                assert fu._keys is None  # key tuples are derived on demand
                store.estimate(u, v)
                shared = fu.index.keys() & fv.index.keys()
                assert set(fu._spans) == set(fv._spans) == shared
                partial += shared < fu.index.keys() or shared < fv.index.keys()
        finally:
            store.close()
        assert partial  # some pair shares only part of its keys

    def test_store_larger_than_its_cache_decodes_labels_without_state(
        self, delaunay_labeling, tmp_path
    ):
        path = tmp_path / "labels.bin"
        write_labeling_binary(delaunay_labeling, path, num_shards=4)
        vertices = sorted(delaunay_labeling.labels, key=repr)
        store = ShardedLabelStore.mapped(path, label_cache=len(vertices) - 1)
        try:
            for u, v in zip(vertices, reversed(vertices)):
                store.estimate(u, v)
                assert store.flat_label(u)._spans is None
                assert store.flat_label(v)._spans is None
            assert store.cached_labels == len(vertices) - 1
        finally:
            store.close()

    def test_zero_portal_key_combines_like_reference(self, tmp_path):
        u = VertexLabel(1, {(0, 0, 0): [], (0, 0, 1): [(0.0, 1.0)]})
        v = VertexLabel(2, {(0, 0, 0): [(0.0, 0.5)], (0, 0, 1): [(2.0, 3.0)]})
        assert dict_estimate(u, v) == 6.0
        labeling = RemoteLabels(0.25, {1: flat_label(u), 2: flat_label(v)})
        reader, fresh = _fresh_flat_labels(labeling, tmp_path)
        with reader:
            for kind, make in fresh.items():
                fu = make(1)
                assert dict_label(fu) == u and fu.num_portals == 1
                assert fu.words == u.words
                if not kind.endswith("churned"):
                    empty = encode_path_key((0, 0, 0))
                    assert fu.span(empty) == ((), math.inf, 0.0)
            for codec in ("json", "binary"):
                # Every resident/churned mix, in both orders.
                _assert_kinds_agree(
                    fresh[codec], fresh[codec + "-churned"], [(1, 2)],
                    lambda a, b: 6.0,
                )


def _has_index(label: FlatLabel) -> bool:
    """Whether *label*'s ``index`` slot is filled, without filling it."""
    try:
        FlatLabel.index.__get__(label)
    except AttributeError:
        return False
    return True


class TestLazyCodeIndex:
    """``FlatLabel.index`` is built on its first read: no constructor
    builds it, a BATCH combine never reads it, and once read it maps
    each code to its storage index from the label's own slot."""

    def test_built_on_first_read_only(self, tmp_path):
        g = random_delaunay_graph(64, seed=11)[0]
        labeling = build_labeling(g, build_decomposition(g), epsilon=0.25)
        built = list(labeling.labels.values())  # assemble_labels
        copies = [FlatLabel.from_label(label) for label in built]
        assert not any(map(_has_index, built + copies))
        edited = [
            label.with_changes([((0, 0, 0), [(0.0, 1.0)])], [])[0]
            for label in copies
        ]
        assert all(map(_has_index, copies))  # the edit read them
        assert not any(map(_has_index, edited))
        reader, fresh = _fresh_flat_labels(labeling, tmp_path)
        vertices = sorted(labeling.labels, key=repr)
        with reader:
            for kind, make in fresh.items():
                labels = [make(v) for v in vertices]  # both decoders
                assert not any(map(_has_index, labels)), kind
                flat_estimate_many(list(zip(labels, reversed(labels))))
                assert not any(map(_has_index, labels)), kind
                flat_estimate(labels[0], labels[1])
                for label in labels[:2]:
                    index = label.index
                    assert index == dict(zip(label.codes, range(len(label.codes))))
                    assert FlatLabel.index.__get__(label) is index
        with pytest.raises(AttributeError, match="no_such_field"):
            built[0].no_such_field


class TestResidentAndChurnedAgree:
    """Differential: a churned label (no merge state, no pruning) and
    its resident twin give bit-identical estimates against either kind,
    in both argument orders, whatever built the label (the zero-portal
    key case is in :class:`TestLazyMergeState`)."""

    def test_json_labels(self, delaunay_labeling):
        remote = load_labeling(dump_labeling(delaunay_labeling))
        payloads = {v: encode_label(label) for v, label in remote.labels.items()}
        vertices = sorted(remote.labels, key=repr)
        rng = random.Random(17)
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(150)]
        _assert_kinds_agree(
            lambda x: decode_label(payloads[x]),
            lambda x: _churned(decode_label(payloads[x])),
            pairs,
            lambda a, b: dict_estimate(
                dict_label(remote.labels[a]), dict_label(remote.labels[b])
            ),
        )

    def test_binary_labels(self, delaunay_labeling, tmp_path):
        path = tmp_path / "labels.bin"
        write_labeling_binary(delaunay_labeling, path, num_shards=4)
        vertices = sorted(delaunay_labeling.labels, key=repr)
        rng = random.Random(19)
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(150)]
        with BinaryLabelReader(path) as reader:
            _assert_kinds_agree(
                reader.get_flat,
                lambda x: reader.get_flat(x, memo=False),
                pairs,
                lambda a, b: dict_estimate(
                    dict_label(reader.get_flat(a)), dict_label(reader.get_flat(b))
                ),
            )

    def test_delta_overlay_labels(self, tmp_path):
        g = random_delaunay_graph(48, seed=23)[0]
        labeling = build_labeling(g, build_decomposition(g), epsilon=0.25)
        path = tmp_path / "labels.bin"
        write_labeling_binary(labeling, path, num_shards=4)
        rng = random.Random(29)
        stores = [
            ShardedLabelStore.mapped(path, label_cache=cache)
            for cache in (0, len(labeling.labels))
        ]
        try:
            for epoch in (1, 2, 3):
                delta = incremental_relabel(labeling, random_reweight(rng, g))
                delta.epoch = epoch
                for store in stores:
                    store.apply_delta(delta)
            churned, resident = stores
            overlay = sorted(resident._overlay, key=repr)
            assert overlay and sorted(churned._overlay, key=repr) == overlay
            vertices = sorted(labeling.labels, key=repr)
            pairs = [(x, rng.choice(vertices)) for x in overlay]
            pairs += [(x, y) for x in overlay for y in overlay]
            _assert_kinds_agree(
                resident.flat_label,
                lambda x: _churned(churned.flat_label(x)),
                pairs,
                lambda a, b: dict_estimate(
                    dict_label(labeling.labels[a]), dict_label(labeling.labels[b])
                ),
            )
            for u, v in pairs:
                assert _bits(churned.estimate(u, v)) == _bits(resident.estimate(u, v))
        finally:
            for store in stores:
                store.close()


class TestConstructionKernelEdges:
    def test_small_residual_delegates_to_dict_kernel(self):
        g = grid_2d(3, weight_range=(1.0, 5.0), seed=2)  # 9 < SMALL_RESIDUAL
        assert len(set(g.vertices())) < SMALL_RESIDUAL
        tree = build_decomposition(g)
        ctx = FlatBuildContext(g, tree)
        units = tree.phase_units()
        node_id, phase_idx, residual = units[0]
        arrays, sources = flat_unit_entries(
            ctx, node_id, phase_idx, residual, 0.25
        )
        assert (unit_triples(ctx, node_id, phase_idx, arrays), sources) == (
            unit_entries(g, tree, node_id, phase_idx, residual, 0.25)
        )

    def test_large_residual_matches_dict_kernel(self):
        # The flat kernel walks vertices in CSR-index order, the dict
        # kernel in residual order; the builder keys entries by
        # (vertex, path key), so only the *set* of triples must agree
        # — and it must, bit for bit, portal list included.
        g = grid_2d(7, weight_range=(1.0, 5.0), seed=3)  # 49 >= threshold
        tree = build_decomposition(g)
        ctx = FlatBuildContext(g, tree)
        checked = 0
        for node_id, phase_idx, residual in tree.phase_units():
            if len(residual) < SMALL_RESIDUAL:
                continue
            arrays, flat_sources = flat_unit_entries(
                ctx, node_id, phase_idx, residual, 0.25
            )
            flat_out = unit_triples(ctx, node_id, phase_idx, arrays)
            ref_out, ref_sources = unit_entries(
                g, tree, node_id, phase_idx, residual, 0.25
            )
            assert flat_sources == ref_sources
            assert {
                (v, key): portals for v, key, portals in flat_out
            } == {(v, key): portals for v, key, portals in ref_out}
            assert len(flat_out) == len(ref_out)
            checked += 1
        assert checked  # the graph is big enough to hit the flat path

    def test_source_outside_residual_mirrors_reference_error(self):
        g = grid_2d(7, weight_range=(1.0, 5.0), seed=3)
        tree = build_decomposition(g)
        ctx = FlatBuildContext(g, tree)
        for node_id, phase_idx, residual in tree.phase_units():
            if len(residual) < SMALL_RESIDUAL:
                continue
            phase = tree.nodes[node_id].separator.phases[phase_idx]
            victim = phase.paths[0][0]
            broken = [v for v in residual if v != victim]
            if len(broken) < SMALL_RESIDUAL:
                continue
            with pytest.raises(GraphError, match="not in the allowed set"):
                flat_unit_entries(ctx, node_id, phase_idx, broken, 0.25)
            with pytest.raises(GraphError, match="not in the allowed set"):
                unit_entries(g, tree, node_id, phase_idx, broken, 0.25)
            return
        pytest.fail("no unit large enough to exercise the flat kernel")


class TestBigEndianFallback:
    def test_struct_decode_path_equals_fast_path(self, tmp_path, monkeypatch):
        # Force the portable struct-unpack branch of the /2 flat
        # decoder and require bit-identical FlatLabels: on a
        # little-endian host this proves the big-endian fallback reads
        # the same columns the array frombytes path does.
        g = random_delaunay_graph(40, seed=9)[0]
        tree = build_decomposition(g)
        labeling = build_labeling(g, tree, epsilon=0.25)
        path = tmp_path / "labels.bin"
        write_labeling_binary(labeling, path, num_shards=4)

        with BinaryLabelReader(path) as reader:
            fast = {v: reader.get_flat(v) for v in reader.iter_vertices()}
        import repro.core.binfmt as binfmt

        monkeypatch.setattr(binfmt, "_LITTLE_ENDIAN", False)
        with BinaryLabelReader(path) as reader:
            slow = {v: reader.get_flat(v) for v in reader.iter_vertices()}
        assert fast.keys() == slow.keys()
        for v, a in fast.items():
            b = slow[v]
            assert a.keys == b.keys
            assert list(a.offs) == list(b.offs)
            assert a.index == b.index
            # Codes and portal floats alike are bit-equal.
            assert a.codes.tobytes() == b.codes.tobytes()
            assert a.runs.tobytes() == b.runs.tobytes()
            assert all(
                math.isfinite(x)
                for portals in a.entries().values()
                for pair in portals
                for x in pair
            )


    def test_portable_pack_path_equals_fast_path(self, monkeypatch):
        # The /2 writer's big-endian branch packs each column's items
        # as little-endian values; on a little-endian host it must
        # write the same bytes as writing each label's columns verbatim.
        g = random_delaunay_graph(40, seed=9)[0]
        labeling = build_labeling(g, build_decomposition(g), epsilon=0.25)
        fast = pack_labeling(labeling, num_shards=4)
        import repro.core.binfmt as binfmt

        monkeypatch.setattr(binfmt, "_LITTLE_ENDIAN", False)
        assert pack_labeling(labeling, num_shards=4) == fast


class TestDynamicFlatHelpers:
    """The flat helpers behind ``incremental_relabel``'s cold-unit
    recomputes: in-place CSR reweights and the unit distance rows,
    bit-identical to ``phase_portal_distance_maps``."""

    def _case(self, seed=9):
        g = grid_2d(7, weight_range=(1.0, 5.0), seed=seed)  # 49 >= threshold
        tree = build_decomposition(g)
        return g, tree, FlatBuildContext(g, tree)

    def test_set_weight_updates_both_arcs(self):
        g, tree, ctx = self._case()
        u, v = (0, 0), (0, 1)
        assert g.has_edge(u, v)
        ctx.csr.set_weight(u, v, 9.25)
        assert dict(ctx.csr.neighbors(u))[v] == 9.25
        assert dict(ctx.csr.neighbors(v))[u] == 9.25

    def test_set_weight_missing_edge_raises(self):
        g, tree, ctx = self._case()
        with pytest.raises(GraphError, match="no edge"):
            ctx.csr.set_weight((0, 0), (6, 6), 1.0)

    def _assert_rows_match(self, g, ctx, unit, phase_unit):
        node_id, phase_idx, residual = phase_unit
        ref = phase_portal_distance_maps(g, ctx.tree, node_id, phase_idx, residual)
        assert list(unit.rows) == list(ref)  # same dedup source order
        indices = [ctx.csr.index_of(v) for v in unit.verts]
        assert indices == sorted(indices) and set(unit.verts) == set(residual)
        assert unit.pos == {v: i for i, v in enumerate(unit.verts)}
        assert unit.slots == len(ref) * len(residual)
        for x, ref_map in ref.items():
            row = unit.rows[x]
            assert len(row) == len(unit.verts)
            for v, d in zip(unit.verts, row):
                assert repr(d) == repr(ref_map.get(v, math.inf))

    def test_distance_maps_bit_identical_to_batched_dijkstra(self):
        # The CSR kernel's rows against batched_dijkstra itself.
        g, tree, ctx = self._case()
        checked = 0
        for node_id, phase_idx, residual in tree.phase_units():
            if len(residual) < SMALL_RESIDUAL:
                continue
            unit = flat_unit_rows(ctx, node_id, phase_idx, residual)
            ref = batched_dijkstra(g, list(unit.rows), allowed=residual)
            for x, row in unit.rows.items():
                assert [repr(d) for d in row] == [
                    repr(ref[x].get(v, math.inf)) for v in unit.verts
                ]
            checked += 1
        assert checked

    def test_phase_distance_maps_match_reference(self):
        g, tree, ctx = self._case()
        sizes = set()
        for node_id, phase_idx, residual in tree.phase_units():
            unit = flat_unit_rows(ctx, node_id, phase_idx, residual)
            self._assert_rows_match(g, ctx, unit, (node_id, phase_idx, residual))
            sizes.add(len(residual) < SMALL_RESIDUAL)
        assert sizes == {True, False}  # both kernels ran

    def test_distance_rows_store_unreached_as_inf(self):
        # Cut one grid corner off the root unit's residual by dropping
        # its two neighbors: every row must read inf at the corner.
        g, tree, ctx = self._case()
        node_id, phase_idx, full = next(iter(tree.phase_units()))
        on_paths = {
            x for path in tree.nodes[node_id].separator.phases[phase_idx].paths
            for x in path
        }
        for corner, cut in (
            ((0, 0), {(0, 1), (1, 0)}), ((6, 6), {(5, 6), (6, 5)}),
            ((0, 6), {(0, 5), (1, 6)}), ((6, 0), {(5, 0), (6, 1)}),
        ):
            if not ({corner} | cut) & on_paths:
                break
        else:
            pytest.fail("every corner touches a separator path")
        residual = frozenset(full) - cut
        assert len(residual) >= SMALL_RESIDUAL  # the CSR kernel runs
        unit = flat_unit_rows(ctx, node_id, phase_idx, residual)
        self._assert_rows_match(g, ctx, unit, (node_id, phase_idx, residual))
        assert all(row[unit.pos[corner]] == math.inf for row in unit.rows.values())

    def test_small_allowed_set_delegates_to_batched_dijkstra(
        self, monkeypatch
    ):
        g, tree, ctx = self._case()
        calls = []
        monkeypatch.setattr(
            flat_build, "_induced_distances",
            lambda *args: calls.append(args),
        )
        small = [u for u in tree.phase_units() if len(u[2]) < SMALL_RESIDUAL]
        for node_id, phase_idx, residual in small:
            unit = flat_unit_rows(ctx, node_id, phase_idx, residual)
            self._assert_rows_match(g, ctx, unit, (node_id, phase_idx, residual))
        assert small and calls == []  # the CSR kernel never ran

    def test_distance_maps_source_validation_matches_reference(self):
        g, tree, ctx = self._case()
        node_id, phase_idx, residual = next(iter(tree.phase_units()))
        x = tree.nodes[node_id].separator.phases[phase_idx].paths[0][0]
        with pytest.raises(GraphError, match="not in the allowed set"):
            flat_unit_rows(ctx, node_id, phase_idx, frozenset(residual) - {x})

    def test_incremental_relabel_flat_matches_dict_path(self, monkeypatch):
        # Two independent, bit-identical labelings; one takes the flat
        # cold-unit path, the other is routed through the pure-Python
        # reference kernels.  Every delta and the final labeling must
        # agree.
        def build():
            g = grid_2d(7, weight_range=(1.0, 5.0), seed=11)
            tree = build_decomposition(g)
            return build_labeling(g, tree, epsilon=0.25)

        flat_side, dict_side = build(), build()
        assert dump_labeling(flat_side) == dump_labeling(dict_side)
        rng = random.Random(4)
        updates = []
        for _ in range(4):
            upd = random_reweight(rng, flat_side.graph)
            updates.append(EdgeUpdate(upd.u, upd.v, upd.weight))
        deltas_flat = [
            delta_to_dict(incremental_relabel(flat_side, upd))
            for upd in updates
        ]
        assert flat_side._flat_ctx is not None  # flat path actually ran
        monkeypatch.setattr(flat_build, "SMALL_RESIDUAL", 1 << 62)
        deltas_dict = [
            delta_to_dict(incremental_relabel(dict_side, upd))
            for upd in updates
        ]
        assert deltas_flat == deltas_dict
        assert dump_labeling(flat_side) == dump_labeling(dict_side)

"""Incremental relabeling: byte-identical to a from-scratch rebuild."""

import random

import pytest

from repro.core import build_labeling
from repro.core.serialize import dump_labeling
from repro.dynamic import (
    DeltaError,
    DynamicError,
    EdgeUpdate,
    affected_units,
    apply_delta_to_labels,
    delta_from_dict,
    delta_to_dict,
    incremental_relabel,
)
from repro.core.flat_build import FlatBuildContext, flat_unit_rows
from repro.dynamic import rebuild
from repro.dynamic.rebuild import _UnitDistCache

from tests.dynamic.conftest import CASES, EPSILON, fresh_case


def random_reweight(rng, graph):
    edges = sorted(graph.edges(), key=repr)
    u, v, w = edges[rng.randrange(len(edges))]
    new_w = round(float(w) * rng.uniform(0.5, 2.0), 9)
    if new_w == float(w) or new_w <= 0:
        new_w = float(w) + 0.25
    return EdgeUpdate(u, v, new_w)


@pytest.mark.parametrize("case", sorted(CASES))
class TestByteIdentity:
    def test_five_updates_stay_byte_identical(self, case):
        graph, tree, labeling = fresh_case(case)
        rng = random.Random(13)
        for _ in range(5):
            update = random_reweight(rng, graph)
            delta = incremental_relabel(labeling, update)
            assert delta.epsilon == EPSILON
            # Full rebuild on the *same* tree with the mutated weights.
            fresh = build_labeling(graph, tree, epsilon=EPSILON)
            assert dump_labeling(labeling) == dump_labeling(fresh)

    def test_cache_eviction_keeps_byte_identity(self, case):
        # A one-entry budget evicts every unit but the newest on each
        # put, so most units recompute cold after an eviction.
        graph, tree, labeling = fresh_case(case)
        cache = labeling._unit_dist_cache = _UnitDistCache(budget=1)
        rng = random.Random(13)
        evicted = False
        for _ in range(5):
            update = random_reweight(rng, graph)
            units = affected_units(tree, update.u, update.v)
            incremental_relabel(labeling, update)
            assert len(cache.units) == 1
            assert cache.slots == sum(
                len(row)
                for unit in cache.units.values()
                for row in unit.rows.values()
            )
            evicted |= len(units) > 1
            fresh = build_labeling(graph, tree, epsilon=EPSILON)
            assert dump_labeling(labeling) == dump_labeling(fresh)
        assert evicted

    def test_warm_rows_equal_a_cold_recompute(self, case, monkeypatch):
        # Increases and decreases fold into the cached rows in place;
        # afterwards every cached unit must hold, bit for bit, the rows
        # a cold recompute over the current weights gives.
        graph, tree, labeling = fresh_case(case)
        folds = {"increase": 0, "decrease": 0}
        for name in folds:
            fold = getattr(rebuild, f"_propagate_{name}")

            def counting(*args, _fold=fold, _name=name):
                changed = _fold(*args)
                folds[_name] += bool(changed)
                return changed

            monkeypatch.setattr(rebuild, f"_propagate_{name}", counting)
        rng = random.Random(21)
        for _ in range(4):
            update = random_reweight(rng, graph)
            u, v = update.u, update.v
            w = float(graph.weight(u, v))
            for factor in (2.0, 0.5, 1.5):  # up, below the start, up
                incremental_relabel(labeling, EdgeUpdate(u, v, factor * w))
        assert folds["increase"] and folds["decrease"]
        residuals = {(n, p): r for n, p, r in tree.phase_units()}
        ctx = FlatBuildContext(graph, tree)
        cache = labeling._unit_dist_cache
        assert cache.units
        for (node_id, phase_idx), warm in cache.units.items():
            cold = flat_unit_rows(
                ctx, node_id, phase_idx, residuals[node_id, phase_idx]
            )
            assert warm.verts == cold.verts
            assert warm.pos == cold.pos
            assert list(warm.rows) == list(cold.rows)
            for x, row in cold.rows.items():
                assert warm.rows[x].tobytes() == row.tobytes()
        assert cache.slots == sum(unit.slots for unit in cache.units.values())

    def test_raise_then_lower_restores_the_labels(self, case):
        # A warm increase followed by a warm decrease on the same edge
        # must land back on the original bytes.
        graph, tree, labeling = fresh_case(case)
        original = dump_labeling(labeling)
        # The lightest edge at a root separator vertex is its own
        # shortest path, so doubling it moves that source's distances.
        u = tree.path_vertices(next(tree.all_path_keys()))[0]
        v, w = min(graph.neighbor_items(u), key=lambda item: item[1])
        w = float(w)
        units = [unit[:2] for unit in affected_units(tree, u, v)]
        # The first round trip seeds the cache; the second runs warm.
        for warm in (False, True):
            cached = getattr(labeling, "_unit_dist_cache", None)
            assert warm == all(
                cached is not None and unit in cached.units for unit in units
            )
            up = incremental_relabel(labeling, EdgeUpdate(u, v, 2 * w))
            assert not up.is_noop
            down = incremental_relabel(labeling, EdgeUpdate(u, v, w))
            assert not down.is_noop
            assert dump_labeling(labeling) == original

    def test_delta_replays_onto_pristine_labels(self, case):
        graph, tree, labeling = fresh_case(case)
        _, _, pristine = fresh_case(case)
        rng = random.Random(29)
        update = random_reweight(rng, graph)
        delta = incremental_relabel(labeling, update)
        applied, removed = apply_delta_to_labels(pristine.labels, delta)
        assert applied == len(delta.changes)
        assert dump_labeling(pristine) == dump_labeling(labeling)


class TestDeltaCodec:
    def _delta(self):
        graph, _, labeling = fresh_case("grid-greedy")
        rng = random.Random(3)
        return incremental_relabel(labeling, random_reweight(rng, graph))

    def test_round_trip(self):
        delta = self._delta()
        clone = delta_from_dict(delta_to_dict(delta))
        assert delta_to_dict(clone) == delta_to_dict(delta)
        assert clone.update == delta.update
        assert clone.old_weight == delta.old_weight

    def test_strict_decoding(self):
        payload = delta_to_dict(self._delta())
        for breakage in (
            lambda d: d.pop("u"),
            lambda d: d.update(w=float("nan")),
            lambda d: d.update(w=True),
            lambda d: d.update(epoch=-1),
            lambda d: d.update(changes="nope"),
        ):
            broken = {k: (list(v) if isinstance(v, list) else v)
                      for k, v in payload.items()}
            breakage(broken)
            with pytest.raises(DeltaError):
                delta_from_dict(broken)

    @pytest.mark.parametrize(
        "key, pairs, reason",
        [
            ("0:0:0", [[5.0, 100.0], [0.0, 1.0]],
             r"under key '0:0:0' has portal positions out of order \(5.0 then 0.0\)"),
            ("0:0:0", [[0.0, 1.0], [2.0, 1.0], [2.0, 0.0], [1.0, 3.0]],
             r"portal positions out of order \(2.0 then 1.0\)"),
            ("0:65536:0", [[0.0, 1.0]],
             r"path key \(0, 65536, 0\) does not fit the key code"),
            ("4294967296:0:0", [[0.0, 1.0]], "does not fit the key code"),
        ],
        ids=["decreasing", "decreasing-after-a-tie", "phase-outside-u16",
             "node-outside-i32"],
    )
    def test_change_refused_with_a_one_line_reason(self, key, pairs, reason):
        payload = delta_to_dict(self._delta())
        payload["changes"] = [[0, key, pairs]]
        with pytest.raises(DeltaError, match=reason) as info:
            delta_from_dict(payload)
        assert "\n" not in str(info.value)

    def test_tied_positions_parse(self):
        payload = delta_to_dict(self._delta())
        payload["changes"] = [[0, "0:0:0", [[2.0, 1.0], [2.0, 0.0]]]]
        assert delta_from_dict(payload).changes == [(0, (0, 0, 0), [(2.0, 1.0), (2.0, 0.0)])]


class TestValidation:
    def test_structural_update_needs_full_rebuild(self):
        _, _, labeling = fresh_case("grid-greedy")
        with pytest.raises(DynamicError):
            incremental_relabel(labeling, EdgeUpdate((0, 0), (5, 5), 1.0))

    def test_bad_weights_rejected(self):
        _, _, labeling = fresh_case("grid-greedy")
        for bad in (0.0, -1.0, float("inf"), float("nan"), True, "x"):
            with pytest.raises(DynamicError):
                incremental_relabel(labeling, EdgeUpdate((0, 0), (0, 1), bad))

    def test_missing_vertex_in_apply_is_strict(self):
        graph, _, labeling = fresh_case("grid-greedy")
        rng = random.Random(3)
        delta = incremental_relabel(labeling, random_reweight(rng, graph))
        if not delta.changes:
            pytest.skip("delta touched no labels")
        with pytest.raises(DeltaError):
            apply_delta_to_labels({}, delta)
        applied, removed = apply_delta_to_labels(
            {}, delta, require_vertices=False
        )
        assert applied == 0

"""Incremental relabeling: recompute only the affected units.

:func:`incremental_relabel` takes a live :class:`DistanceLabeling`
and one edge reweight, recomputes exactly the units named by
:func:`repro.dynamic.invalidate.affected_units` through the same
distance-map kernels the offline build uses (:mod:`repro.core.flat`),
mutates the labeling in place, and returns a :class:`LabelDelta`
describing every entry that changed.

Byte-identity contract: after the call, ``dump_labeling(labeling)`` is
byte-identical to ``dump_labeling(build_labeling(updated_graph, tree,
epsilon))`` on the *same* decomposition tree.  Three facts carry it:

* untouched units reproduce their old entries exactly (their inputs
  are unchanged — see the soundness argument in
  :mod:`repro.dynamic.invalidate`), so skipping them is lossless;
* a full build lays each vertex's keys out in global unit order,
  which is ascending ``(node_id, phase, path)`` — i.e. *sorted* key
  order — so replacing a value in place keeps the order, deleting
  keeps the order, and inserting a brand-new key followed by a
  per-vertex key re-sort reproduces it
  (:meth:`repro.core.flat.FlatLabel.with_changes`, which also serves
  the stores);
* the label dict itself is in graph order in both builds, and a
  touched label is replaced under its own key.

The delta also travels: :func:`delta_to_dict` / :func:`delta_from_dict`
give it a strict JSON wire form (shared by the journal and the serve
``DELTA`` op), and :func:`apply_delta_to_labels` replays one onto any
``FlatLabel`` dict, a build's or a load's — replica stores apply the
same delta the builder computed and land in the same state.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from repro.core import flat as flat_core
from repro.core.decomposition import PathKey
from repro.core.flat import FlatLabel, group_entry_changes
from repro.core.labeling import INF, DistanceLabeling, PortalEntry
from repro.core.serialize import (
    SerializationError,
    decode_path_key,
    decode_vertex,
    encode_path_key,
    encode_vertex,
)
from repro.dynamic.invalidate import (
    EdgeUpdate,
    affected_units,
    units_path_keys,
)
from repro.obs import metrics, span
from repro.util.errors import GraphError, ReproError

Vertex = Hashable

#: One changed label entry: (vertex, path key, new portal list).
Change = Tuple[Vertex, PathKey, List[PortalEntry]]
#: One removed label entry: (vertex, path key).
Removal = Tuple[Vertex, PathKey]


class DynamicError(ReproError):
    """An update cannot be applied incrementally."""


class DeltaError(DynamicError):
    """A label delta is malformed or inconsistent with its target."""


@dataclass
class LabelDelta:
    """Everything that changed in one incremental relabel.

    ``epoch`` is 0 ("unstamped") until a journal or a caller assigns
    the delta its position in an update sequence; stores and servers
    gate application on it (see ``docs/dynamic.md``).
    """

    update: EdgeUpdate
    old_weight: float
    epsilon: float
    changes: List[Change] = field(default_factory=list)
    removals: List[Removal] = field(default_factory=list)
    units: int = 0
    epoch: int = 0

    @property
    def num_changes(self) -> int:
        return len(self.changes) + len(self.removals)

    @property
    def is_noop(self) -> bool:
        return not self.changes and not self.removals


#: Slot budget (row floats, not bytes) for the per-labeling cache of
#: unit distance rows.  Whole units are evicted LRU past the budget.
_DIST_CACHE_ENTRIES = 4_000_000


class _UnitDistCache:
    """LRU cache of per-unit distance rows
    (:class:`~repro.core.flat.UnitRows`), keyed (node, phase).

    Owned by one labeling (stashed on the instance): the rows hold
    ``d_J(x, .)`` for every separator-path vertex x of the unit under
    the labeling's *current* graph weights, and are updated in
    lock-step with each incremental relabel.  A hit turns "re-run
    Dijkstra from every path vertex of the unit" into "fold the
    reweight into each cached row" (:func:`_propagate_increase`,
    :func:`_propagate_decrease`).
    """

    def __init__(self, budget: int = _DIST_CACHE_ENTRIES) -> None:
        self.budget = budget
        self.units: "OrderedDict[Tuple[int, int], flat_core.UnitRows]" = OrderedDict()
        self.slots = 0

    def get(self, unit):
        rows = self.units.get(unit)
        if rows is not None:
            self.units.move_to_end(unit)
        return rows

    def put(self, unit, rows) -> None:
        """Cache the rows of *unit*, which :meth:`get` did not find."""
        self.units[unit] = rows
        self.slots += rows.slots
        while self.slots > self.budget and len(self.units) > 1:
            _, evicted = self.units.popitem(last=False)
            self.slots -= evicted.slots


def _dist_cache(labeling: DistanceLabeling) -> _UnitDistCache:
    cache = getattr(labeling, "_unit_dist_cache", None)
    if cache is None:
        cache = _UnitDistCache()
        labeling._unit_dist_cache = cache
    return cache


def _flat_context(labeling: DistanceLabeling) -> flat_core.FlatBuildContext:
    """The labeling's long-lived CSR view.

    Built lazily off the current graph and then kept in lock-step with
    it: every reweight that goes through :func:`incremental_relabel`
    also lands in the CSR arrays via ``set_weight``, so cold-unit
    recomputes run the same kernels as the offline build.  (Mutating
    ``labeling.graph`` behind the labeling's back already invalidates
    the unit distance cache's contract; the CSR mirror adds no new
    requirement.)
    """
    ctx = getattr(labeling, "_flat_ctx", None)
    if ctx is None:
        ctx = flat_core.FlatBuildContext(labeling.graph, labeling.tree)
        labeling._flat_ctx = ctx
    return ctx


def _propagate_decrease(adj, pos, row, near, far, new_weight):
    """Fold a weight decrease into one cached distance row, in place.

    ``row`` holds ``d_J(x, .)`` under the old weights at the unit's
    positions ``pos``, with ``near`` the closer edge endpoint to x.  A
    decrease can only *improve* values, and only along paths whose last
    fresh relaxation is the edge — so seeding one candidate
    ``d(x, near) + w_new`` at ``far`` and running the ordinary Dijkstra
    loop over the improvements reproduces, float op for float op,
    exactly the relaxations a from-scratch run would win with the new
    weight.  Values the loop never touches keep their (provably
    identical) old floats.  Returns the changed vertices.
    """
    base = row[pos[near]] + new_weight
    if base >= row[pos[far]]:
        return ()
    changed = set()
    heap = [(base, 0, far)]
    counter = 1
    push, pop = heapq.heappush, heapq.heappop
    pos_get = pos.get
    while heap:
        d, _, t = pop(heap)
        pt = pos[t]
        if d >= row[pt]:
            continue
        row[pt] = d
        changed.add(t)
        for nb, w in adj[t].items():
            pn = pos_get(nb)
            nd = d + w
            if pn is not None and nd < row[pn]:
                push(heap, (nd, counter, nb))
                counter += 1
    return changed


def _propagate_increase(adj, pos, row, near, far):
    """Fold a weight increase into one cached distance row, in place.

    An increase can only change values of vertices whose *every* old
    shortest path from x crosses the edge.  That affected set is found
    by walking the old shortest-path DAG outward from ``far`` in
    distance order: a vertex stays put the moment it has one tight
    predecessor that stayed put (tightness is float-exact — the stored
    value *is* the winning ``d(p) + w`` sum).  The affected vertices
    are then re-settled by a Dijkstra seeded from every unaffected
    neighbor, whose values are bitwise those a full run would carry in.
    The caller guarantees the edge is old-tight from x.  Returns the
    changed vertices.
    """
    pos_get = pos.get
    affected: set = set()
    enqueued = {far}
    heap = [(row[pos[far]], 0, far)]
    counter = 1
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, _, t = pop(heap)
        # One pass looks for a tight unaffected predecessor (the
        # reweighted edge supports nothing) and collects the tight
        # successors, which matter only when there is none.
        succ = []
        for p, w in adj[t].items():
            pp = pos_get(p)
            if pp is None:
                continue
            dp = row[pp]
            if dp + w == d and p not in affected and not (p == near and t == far):
                break
            if d + w == dp:
                succ.append(p)
        else:
            affected.add(t)
            for nb in succ:
                if nb not in enqueued:
                    enqueued.add(nb)
                    push(heap, (row[pos[nb]], counter, nb))
                    counter += 1
    if not affected:
        return ()
    # Re-settle the affected region from its unaffected boundary.
    best: Dict = {}  # tentative new distances
    for t in affected:
        seed = INF
        for p, w in adj[t].items():
            if p in affected:
                continue
            pp = pos_get(p)
            if pp is not None and row[pp] + w < seed:
                seed = row[pp] + w  # new weights; boundary is bitwise-old
        if seed < INF:
            best[t] = seed
    heap = [(d, counter + i, t) for i, (t, d) in enumerate(best.items())]
    counter += len(heap)
    heapq.heapify(heap)
    settled = set()
    while heap:
        d, _, t = pop(heap)
        if t in settled:
            continue
        settled.add(t)
        for nb, w in adj[t].items():
            if nb in settled or nb not in affected:
                continue
            nd = d + w
            if nd < best.get(nb, INF):
                best[nb] = nd
                push(heap, (nd, counter, nb))
                counter += 1
    changed = set()
    for t in affected:
        new_d = best.get(t, INF)
        pt = pos[t]
        if new_d != row[pt]:
            changed.add(t)
            row[pt] = new_d
    return changed


def incremental_relabel(
    labeling: DistanceLabeling, update: EdgeUpdate
) -> LabelDelta:
    """Apply one edge reweight to a labeling, in place.

    Mutates ``labeling.graph`` (the new weight), the tree's cached path
    prefixes, and the affected vertices' labels; returns the
    :class:`LabelDelta` to journal and ship to serving replicas.

    Raises :class:`DynamicError` for structural updates (the edge does
    not exist — adding or removing edges changes residual reachability
    and needs an offline rebuild) and for non-finite or non-positive
    weights.
    """
    graph, tree = labeling.graph, labeling.tree
    u, v, new_weight = update.u, update.v, update.weight
    if u == v:
        raise DynamicError("edge endpoints must differ")
    if not isinstance(new_weight, (int, float)) or isinstance(new_weight, bool):
        raise DynamicError(f"edge weight must be a number, got {new_weight!r}")
    new_weight = float(new_weight)
    if not math.isfinite(new_weight) or new_weight <= 0:
        raise DynamicError(
            f"edge weight must be finite and positive, got {new_weight!r}"
        )
    if not graph.has_edge(u, v):
        raise DynamicError(
            f"no edge {u!r} -- {v!r}: adding or removing edges changes the "
            f"decomposition and requires a full offline rebuild"
        )
    started = time.perf_counter()
    with span("dynamic.relabel", u=repr(u), v=repr(v)):
        old_weight = float(graph.weight(u, v))
        # Affected units and touched paths are properties of the tree
        # alone, so they are read off before the mutation.
        units = affected_units(tree, u, v)
        touched = set(units_path_keys(tree, units, u, v))
        cache = _dist_cache(labeling)
        flat_ctx = _flat_context(labeling)

        graph.add_edge(u, v, new_weight)
        flat_ctx.csr.set_weight(u, v, new_weight)
        for key in touched:
            tree.recompute_prefix(key)

        delta = LabelDelta(
            update=EdgeUpdate(u, v, new_weight),
            old_weight=old_weight,
            epsilon=labeling.epsilon,
            units=len(units),
        )
        increase = new_weight > old_weight
        labels = labeling.labels
        for node_id, phase_idx, residual in units:
            unit = (node_id, phase_idx)
            phase = tree.nodes[node_id].separator.phases[phase_idx]
            rows = cache.get(unit)
            if rows is None:
                # Cold unit (never computed, or evicted): full
                # recompute, and the rows seed the cache so the next
                # update over this unit folds into them instead.
                rows = flat_core.flat_unit_rows(
                    flat_ctx, node_id, phase_idx, residual
                )
                cache.put(unit, rows)
                changed = residual
            else:
                # Warm unit: fold the reweight into each cached row —
                # an increase re-settles the affected shortest-path
                # subtree, a decrease propagates the improvements; the
                # work follows what moved, and every row stays bitwise
                # what a from-scratch Dijkstra would produce.
                changed = set()
                pos = rows.pos
                pu, pv = pos[u], pos[v]
                for row in rows.rows.values():
                    a, b = row[pu], row[pv]
                    if a <= b:
                        near, far, near_d, far_d = u, v, a, b
                    else:
                        near, far, near_d, far_d = v, u, b, a
                    if far_d == INF:
                        continue
                    if increase:
                        if far_d != near_d + old_weight:
                            continue  # edge not on x's old SP DAG
                        changed.update(_propagate_increase(
                            graph._adj, pos, row, near, far
                        ))
                    else:
                        changed.update(_propagate_decrease(
                            graph._adj, pos, row, near, far, new_weight
                        ))
            # Deterministic delta ordering: paths in path order, then
            # vertices sorted by repr (frozenset iteration order is
            # hash-salted across processes for str vertices).
            ordered = {}  # whole residual? -> (targets by repr, positions)
            for path_idx, path in enumerate(phase.paths):
                key = (node_id, phase_idx, path_idx)
                code = flat_core.encode_path_key(key)
                # A touched prefix shifts every portal position on the
                # path, so its key refreshes all residual vertices even
                # when no distance row moved.
                whole = key in touched or changed is residual
                if not (whole or changed):
                    continue
                if whole not in ordered:
                    verts = sorted(residual if whole else changed, key=repr)
                    ordered[whole] = verts, [rows.pos[x] for x in verts]
                verts, picks = ordered[whole]
                covers = flat_core.flat_cover_portals(
                    tree.path_prefix(key),
                    [rows.rows[x] for x in path],
                    picks,
                    labeling.epsilon,
                )
                for vx, new in zip(verts, covers):
                    if new is None:
                        if code in labels[vx].index:
                            delta.removals.append((vx, key))
                    elif not labels[vx].portals_equal(code, new):
                        delta.changes.append((vx, key, new))
        # Each (vertex, key) is decided from the old label, so the
        # touched labels are replaced only now, each one once.
        apply_delta_to_labels(labels, delta)
        seconds = time.perf_counter() - started
        if metrics.enabled:
            metrics.inc("dynamic.updates")
            metrics.inc("dynamic.affected_units", len(units))
            metrics.inc("dynamic.changed_entries", delta.num_changes)
            metrics.observe("dynamic.rebuild_seconds", seconds)
            metrics.observe(
                "dynamic.affected_vertices",
                len({vx for vx, _, _ in delta.changes}
                    | {vx for vx, _ in delta.removals}),
            )
    return delta


def apply_delta_to_labels(
    labels: Dict[Vertex, FlatLabel],
    delta: LabelDelta,
    require_vertices: bool = True,
) -> Tuple[int, int]:
    """Replay a delta onto a label dict; returns ``(changes, removals)``
    actually applied.

    Each touched label is replaced by its
    :meth:`~repro.core.flat.FlatLabel.with_changes` splice, so a reader
    holding the old label never sees a half-applied delta.  With
    ``require_vertices`` (the default), a
    change naming a vertex the dict does not hold raises
    :class:`DeltaError` — the right behavior for a whole-graph store or
    a journal replay.  Sharded cluster stores pass ``False`` so a delta
    can be fanned out whole and each node applies only its owned slice.

    Removals of already-absent keys are no-ops (counted as skipped):
    application is idempotent at the entry level, and the epoch gate
    above this layer is what prevents double-apply.
    """
    applied_changes = applied_removals = 0
    for vx, (changes, removals) in group_entry_changes(
        delta.changes, delta.removals
    ).items():
        label = labels.get(vx)
        if label is None:
            if require_vertices:
                raise DeltaError(f"delta names unknown vertex {vx!r}")
            continue
        labels[vx], removed = label.with_changes(changes, removals)
        applied_removals += removed
        applied_changes += len(changes)
    return applied_changes, applied_removals


def delta_to_dict(delta: LabelDelta) -> dict:
    """The strict JSON wire form of a delta (journal records and the
    serve ``DELTA`` op both carry exactly this shape)."""
    return {
        "u": encode_vertex(delta.update.u),
        "v": encode_vertex(delta.update.v),
        "w": float(delta.update.weight),
        "old_w": float(delta.old_weight),
        "epsilon": float(delta.epsilon),
        "epoch": int(delta.epoch),
        "units": int(delta.units),
        "changes": [
            [
                encode_vertex(vx),
                encode_path_key(key),
                [[float(pos), float(dist)] for pos, dist in portals],
            ]
            for vx, key, portals in delta.changes
        ],
        "removals": [
            [encode_vertex(vx), encode_path_key(key)]
            for vx, key in delta.removals
        ],
    }


def _require_finite_positive(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DeltaError(f"delta field {name!r} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise DeltaError(
            f"delta field {name!r} must be finite and positive, got {value!r}"
        )
    return value


def _check_key_code(key: PathKey) -> None:
    try:
        flat_core.encode_path_key(key)
    except GraphError:
        raise DeltaError(
            f"path key {key!r} does not fit the key code "
            f"(i32 node, u16 phase and path)"
        ) from None


def delta_from_dict(data) -> LabelDelta:
    """Strict inverse of :func:`delta_to_dict`.

    Every malformation raises :class:`DeltaError` with a one-line
    reason; nothing is coerced silently.  That includes a changed key
    outside the ``/2`` key code's bounds and portal positions that
    decrease, which the combine's sorted merge would turn into an
    underestimate.  The journal loader and the serve ``DELTA`` op both
    funnel untrusted bytes through here.
    """
    if not isinstance(data, dict):
        raise DeltaError(f"delta payload must be an object, got {type(data).__name__}")
    required = {"u", "v", "w", "old_w", "epsilon", "epoch", "units",
                "changes", "removals"}
    missing = required - set(data)
    if missing:
        raise DeltaError(f"delta payload missing fields {sorted(missing)}")
    try:
        u = decode_vertex(data["u"])
        v = decode_vertex(data["v"])
    except SerializationError as exc:
        raise DeltaError(str(exc)) from None
    if u == v:
        raise DeltaError("delta endpoints must differ")
    weight = _require_finite_positive(data["w"], "w")
    old_weight = _require_finite_positive(data["old_w"], "old_w")
    epsilon = _require_finite_positive(data["epsilon"], "epsilon")
    epoch = data["epoch"]
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
        raise DeltaError(f"delta epoch must be a non-negative int, got {epoch!r}")
    units = data["units"]
    if isinstance(units, bool) or not isinstance(units, int) or units < 0:
        raise DeltaError(f"delta units must be a non-negative int, got {units!r}")
    changes: List[Change] = []
    if not isinstance(data["changes"], list):
        raise DeltaError("delta changes must be a list")
    for item in data["changes"]:
        if not isinstance(item, list) or len(item) != 3:
            raise DeltaError(f"malformed delta change {item!r}")
        enc_v, key_text, pairs = item
        try:
            vx = decode_vertex(enc_v)
            key = decode_path_key(key_text) if isinstance(key_text, str) else None
        except SerializationError as exc:
            raise DeltaError(str(exc)) from None
        if key is None:
            raise DeltaError(f"malformed path key {key_text!r}")
        _check_key_code(key)
        if not isinstance(pairs, list) or not pairs:
            raise DeltaError(f"delta change for {vx!r} has no portal entries")
        portals: List[PortalEntry] = []
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise DeltaError(f"malformed portal entry {pair!r}")
            pos, dist = pair
            for val in (pos, dist):
                if isinstance(val, bool) or not isinstance(val, (int, float)):
                    raise DeltaError(f"malformed portal entry {pair!r}")
                if not math.isfinite(float(val)):
                    raise DeltaError(f"non-finite portal entry {pair!r}")
            portals.append((float(pos), float(dist)))
            if len(portals) > 1 and portals[-1][0] < portals[-2][0]:
                raise DeltaError(
                    f"delta change for {vx!r} under key {key_text!r} has "
                    f"portal positions out of order ({portals[-2][0]!r} then "
                    f"{portals[-1][0]!r})"
                )
        changes.append((vx, key, portals))
    removals: List[Removal] = []
    if not isinstance(data["removals"], list):
        raise DeltaError("delta removals must be a list")
    for item in data["removals"]:
        if not isinstance(item, list) or len(item) != 2:
            raise DeltaError(f"malformed delta removal {item!r}")
        enc_v, key_text = item
        try:
            vx = decode_vertex(enc_v)
            key = decode_path_key(key_text) if isinstance(key_text, str) else None
        except SerializationError as exc:
            raise DeltaError(str(exc)) from None
        if key is None:
            raise DeltaError(f"malformed path key {key_text!r}")
        removals.append((vx, key))
    return LabelDelta(
        update=EdgeUpdate(u, v, weight),
        old_weight=old_weight,
        epsilon=epsilon,
        changes=changes,
        removals=removals,
        units=units,
        epoch=epoch,
    )

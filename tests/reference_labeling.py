"""Reference labeling: the dict build the flat build replaced.

The production build (:func:`repro.core.build_labeling`) has every
(node, phase) unit emit arrays and merges them into
:class:`~repro.core.flat.FlatLabel` slot runs with one stable sort.
The code here is the straightforward version it replaced: each unit
yields one ``(vertex, path key, portal list)`` triple per entry from
``batched_dijkstra`` and ``epsilon_cover_portals_at``, and the triples
are merged in unit order into one :class:`VertexLabel` dict per
vertex.  It is kept as the test oracle: a production build must dump to
the same ``/1`` text and ``/2`` bytes as :func:`reference_build_labeling`
(``tests/core/test_flat_differential.py``, E19, CI ``flat-smoke``).

The dict label form lives here too, with its combine
(:func:`dict_estimate`, over :func:`min_portal_pair`) and its delta
edit (:func:`apply_entry_changes`); production code holds, combines and
edits :class:`~repro.core.flat.FlatLabel` only.  :func:`dict_label`
and :func:`flat_label` convert one label between the forms, and
:meth:`ReferenceLabeling.flat` a whole labeling, so a reference
labeling dumps and serves through the production codecs.

:func:`use_reference_labeling` swaps it into the CLI, so a CLI build
can be ``cmp``'d against a reference build.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.core.decomposition import DecompositionTree, PathKey
from repro.core.flat import FlatLabel, group_entry_changes
from repro.core.labeling import INF, DistanceLabeling, PortalEntry
from repro.core.portals import epsilon_cover_portals_at
from repro.dynamic.rebuild import DeltaError
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import batched_dijkstra
from repro.obs import metrics
from repro.util.errors import GraphError
from repro.util.sizing import PORTAL_ENTRY_WORDS, SizeReport

Vertex = Hashable
UnitEntries = List[Tuple[Vertex, PathKey, List[PortalEntry]]]


@dataclass
class VertexLabel:
    """The distance label of one vertex: portal lists keyed by
    (node_id, phase_index, path_index).

    The dict form of the reference build; production code holds
    :class:`repro.core.flat.FlatLabel` instead.
    """

    vertex: Vertex
    entries: Dict[PathKey, List[PortalEntry]] = field(default_factory=dict)

    @property
    def num_portals(self) -> int:
        return sum(len(v) for v in self.entries.values())

    @property
    def words(self) -> int:
        """Label size in the paper's word model (see repro.util.sizing)."""
        return self.num_portals * PORTAL_ENTRY_WORDS + len(self.entries)


def dict_label(label: FlatLabel) -> VertexLabel:
    """The dict form of a production label, keys in storage order."""
    return VertexLabel(label.vertex, label.entries())


def flat_label(label: VertexLabel) -> FlatLabel:
    """The production form of a dict label, keys in dict order."""
    return FlatLabel.from_entries(label.vertex, label.entries)


def min_portal_pair(
    entries_u: Sequence[PortalEntry],
    entries_v: Sequence[PortalEntry],
) -> float:
    """Best estimate ``min d_u(c1) + d_Q(c1, c2) + d_v(c2)`` over portal
    pairs on one path, in O(|C_u| + |C_v|) by a sorted merge.

    ``d_Q(c1, c2)`` is the absolute prefix difference.  Entries must be
    sorted by prefix position (as produced by the cover functions).
    Returns ``inf`` when either list is empty.
    """
    if not entries_u or not entries_v:
        return INF
    best = INF
    i = j = 0
    best_u = INF  # min over u-portals seen so far of (d_u - pos)
    best_v = INF  # min over v-portals seen so far of (d_v - pos)
    while i < len(entries_u) or j < len(entries_v):
        take_u = j >= len(entries_v) or (
            i < len(entries_u) and entries_u[i][0] <= entries_v[j][0]
        )
        if take_u:
            pos, d = entries_u[i]
            i += 1
            if best_v + d + pos < best:
                best = best_v + d + pos
            if d - pos < best_u:
                best_u = d - pos
        else:
            pos, d = entries_v[j]
            j += 1
            if best_u + d + pos < best:
                best = best_u + d + pos
            if d - pos < best_v:
                best_v = d - pos
    return best


def dict_estimate(label_u: VertexLabel, label_v: VertexLabel) -> float:
    """The dict combine: the Theorem-2 estimate from two dict labels,
    bit-equal to :func:`repro.core.flat.flat_estimate` on the same
    labels.  Returns ``inf`` if the labels share no separator path."""
    if label_u.vertex == label_v.vertex:
        return 0.0
    a, b = label_u.entries, label_v.entries
    if len(b) < len(a):
        a, b = b, a
    best = INF
    scans = 0
    for key, entries_a in a.items():
        entries_b = b.get(key)
        if entries_b is None:
            continue
        scans += 1
        cand = min_portal_pair(entries_a, entries_b)
        if cand < best:
            best = cand
    if metrics.enabled:
        metrics.inc("oracle.query.count")
        metrics.inc("oracle.query.portal_scans", scans)
    return best


def insert_entry_sorted(
    entries: Dict[PathKey, List[PortalEntry]],
    key: PathKey,
    portals: List[PortalEntry],
) -> None:
    """Insert a (possibly brand-new) key, restoring full-build order.

    A full build writes each vertex's keys in ascending key order, so
    on the rare insert of a key the vertex did not previously hold we
    re-sort that one vertex's dict; replacements and deletions never
    disturb the order.
    """
    entries[key] = portals
    keys = list(entries)
    if keys != sorted(keys):
        items = sorted(entries.items())
        entries.clear()
        entries.update(items)


def apply_entry_changes(
    entries: Dict[PathKey, List[PortalEntry]],
    changes: Iterable[Tuple[PathKey, Sequence[PortalEntry]]],
    removals: Iterable[PathKey],
) -> int:
    """Set each ``(key, portals)`` of *changes* in the entry dict
    *entries* (by :func:`insert_entry_sorted`) and drop each key of
    *removals*; returns the number of removals that found their key.
    This edits a ``VertexLabel``'s dict; a ``FlatLabel`` is replaced by
    its :meth:`~FlatLabel.with_changes` splice, which gives the same
    entries in the same order."""
    for key, portals in changes:
        insert_entry_sorted(entries, key, list(portals))
    return sum(entries.pop(key, None) is not None for key in removals)


def apply_delta_to_dict_labels(
    labels: Dict[Vertex, VertexLabel], delta, require_vertices: bool = True
) -> Tuple[int, int]:
    """:func:`repro.dynamic.apply_delta_to_labels` on dict labels: each
    touched label is edited in place by :func:`apply_entry_changes`."""
    applied_changes = applied_removals = 0
    for vx, (changes, removals) in group_entry_changes(
        delta.changes, delta.removals
    ).items():
        label = labels.get(vx)
        if label is None:
            if require_vertices:
                raise DeltaError(f"delta names unknown vertex {vx!r}")
            continue
        applied_removals += apply_entry_changes(label.entries, changes, removals)
        applied_changes += len(changes)
    return applied_changes, applied_removals


def phase_portal_distance_maps(
    graph: Graph,
    tree: DecompositionTree,
    node_id: int,
    phase_idx: int,
    residual: AbstractSet,
) -> Dict[Vertex, Dict[Vertex, float]]:
    """Distance maps ``d_J(x, .)`` for every vertex x on the separator
    paths of one (node, phase), in one batched heap pass over the
    residual J.

    Because the graph is undirected, ``d_J(x, v)`` read from these maps
    equals the ``d_J(v, x)`` a per-vertex Dijkstra would produce, so
    portal selection for *every* vertex of J needs only this one batch
    instead of |J| truncated searches.
    """
    phase = tree.nodes[node_id].separator.phases[phase_idx]
    sources: List[Vertex] = []
    seen = set()
    for path in phase.paths:
        for x in path:
            if x not in seen:
                seen.add(x)
                sources.append(x)
    return batched_dijkstra(graph, sources, allowed=residual)


def unit_entries(
    graph: Graph,
    tree: DecompositionTree,
    node_id: int,
    phase_idx: int,
    residual,
    epsilon: float,
) -> Tuple[UnitEntries, int]:
    """Label entries contributed by one (node, phase) unit, as
    ``(vertex, path key, portals)`` triples plus the number of batched
    Dijkstra sources.

    The vertices needing entries for a unit are exactly the residual's
    members: every v in J has this node on its root path, and v appears
    in residual J_i precisely for the phases the per-vertex loop of the
    paper's construction would process.
    """
    dist_maps = phase_portal_distance_maps(
        graph, tree, node_id, phase_idx, residual
    )
    phase = tree.nodes[node_id].separator.phases[phase_idx]
    out: UnitEntries = []
    for path_idx, path in enumerate(phase.paths):
        key = (node_id, phase_idx, path_idx)
        prefix = tree.path_prefix(key)
        rows = [dist_maps[x] for x in path]
        for v in residual:
            pos_dist = [row.get(v, INF) for row in rows]
            portals = epsilon_cover_portals_at(prefix, pos_dist, epsilon)
            if portals:
                out.append((v, key, [(prefix[i], d) for i, d in portals]))
    return out, len(dist_maps)


def unit_triples(ctx, node_id: int, phase_idx: int, arrays) -> UnitEntries:
    """:func:`repro.core.flat_build.flat_unit_entries` arrays as the
    triples :func:`unit_entries` returns, in the arrays' entry order."""
    verts, paths, counts, pairs = arrays
    out: UnitEntries = []
    start = 0
    for i, path_idx, count in zip(verts.tolist(), paths.tolist(), counts.tolist()):
        portals = [tuple(pair) for pair in pairs[start : start + count].tolist()]
        out.append(
            (ctx.csr.vertex_of(i), (node_id, phase_idx, path_idx), portals)
        )
        start += count
    return out


class ReferenceLabeling:
    """A labeling held as :class:`VertexLabel` dicts, with the dict
    combine (:func:`dict_estimate`).  :meth:`flat` is the same labeling
    as a :class:`~repro.core.labeling.DistanceLabeling`, which dumps,
    packs and serves."""

    def __init__(self, graph, tree, epsilon: float, labels: Dict[Vertex, VertexLabel]):
        self.graph = graph
        self.tree = tree
        self.epsilon = epsilon
        self.labels = labels

    def label(self, v: Vertex) -> VertexLabel:
        try:
            return self.labels[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} has no label") from None

    def estimate(self, u: Vertex, v: Vertex) -> float:
        return dict_estimate(self.label(u), self.label(v))

    def flat(self) -> DistanceLabeling:
        """This labeling with each label converted by :func:`flat_label`."""
        return DistanceLabeling(
            self.graph,
            self.tree,
            self.epsilon,
            {v: flat_label(label) for v, label in self.labels.items()},
        )

    def size_report(self) -> SizeReport:
        return SizeReport.from_counts(
            (v, label.words) for v, label in self.labels.items()
        )


def reference_build_labeling(
    graph: Graph, tree: DecompositionTree, epsilon: float = 0.25, **_ignored
) -> ReferenceLabeling:
    """The dict build: every unit through :func:`unit_entries`, merged
    in unit order into per-vertex ``VertexLabel`` dicts prefilled in
    graph order (so each vertex's keys land in ascending key order)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    labels = {v: VertexLabel(vertex=v) for v in graph.vertices()}
    for node_id, phase_idx, residual in tree.phase_units():
        entries, _ = unit_entries(graph, tree, node_id, phase_idx, residual, epsilon)
        for v, key, portals in entries:
            labels[v].entries[key] = portals
    return ReferenceLabeling(graph, tree, epsilon, labels)


def reference_relabel(ref: ReferenceLabeling, update) -> Dict[Vertex, VertexLabel]:
    """Apply one edge reweight to *ref* the slow way: set the weight,
    recompute every path prefix and rebuild every label from scratch.
    Returns the labels *ref* held before, so a caller can replay a
    delta onto them and compare."""
    before = copy.deepcopy(ref.labels)
    ref.graph.add_edge(update.u, update.v, float(update.weight))
    for key in ref.tree.all_path_keys():
        ref.tree.recompute_prefix(key)
    ref.labels = reference_build_labeling(ref.graph, ref.tree, ref.epsilon).labels
    return before


def use_reference_labeling() -> None:
    """Point the CLI's label builds at :func:`reference_build_labeling`
    (converted by :meth:`ReferenceLabeling.flat` for the writers)."""
    from repro import cli

    cli.build_labeling = lambda *args, **kwargs: reference_build_labeling(
        *args, **kwargs
    ).flat()

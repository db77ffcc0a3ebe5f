"""Reference labeling: the dict build the flat build replaced.

The production build (:func:`repro.core.build_labeling`) has every
(node, phase) unit emit arrays and merges them into
:class:`~repro.core.flat.FlatLabel` slot runs with one stable sort.
The code here is the straightforward version it replaced: each unit
yields one ``(vertex, path key, portal list)`` triple per entry from
``batched_dijkstra`` and ``epsilon_cover_portals_at``, and the triples
are merged in unit order into one ``VertexLabel`` dict per vertex.  It
is kept as the test oracle: a production build must dump to the same
``/1`` text and ``/2`` bytes as :func:`reference_build_labeling`
(``tests/core/test_flat_differential.py``, E19, CI ``flat-smoke``).

:func:`use_reference_labeling` swaps it into the CLI, so a CLI build
can be ``cmp``'d against a reference build.
"""

from __future__ import annotations

import copy
from typing import AbstractSet, Dict, Hashable, List, Tuple

from repro.core.decomposition import DecompositionTree, PathKey
from repro.core.labeling import INF, PortalEntry, VertexLabel, estimate_distance
from repro.core.portals import epsilon_cover_portals_at
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import batched_dijkstra
from repro.util.errors import GraphError
from repro.util.sizing import SizeReport

Vertex = Hashable
UnitEntries = List[Tuple[Vertex, PathKey, List[PortalEntry]]]


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
    """:func:`repro.core.flat.flat_unit_entries` arrays as the
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
    """A labeling held as ``VertexLabel`` dicts, with the dict combine
    (:func:`~repro.core.labeling.estimate_distance`).  Dumps, packs and
    serves like a :class:`~repro.core.labeling.DistanceLabeling`."""

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
        return estimate_distance(self.label(u), self.label(v))

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
    """Point the CLI's label builds at :func:`reference_build_labeling`."""
    from repro import cli

    cli.build_labeling = reference_build_labeling

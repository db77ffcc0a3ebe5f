"""Lipton-Tarjan fundamental-cycle separators via the dual tree.

The classic argument: triangulate the embedded graph, take a spanning
tree T; the non-tree edges form a spanning tree of the *dual* (the
interdigitating-trees theorem), and some non-tree edge's fundamental
cycle — two T-paths plus the edge — encloses between 1/3 and 2/3 of
the weight.  With T a shortest-path tree rooted near the center, the
cycle's two root paths are exactly the "union of 2 minimum cost paths"
Thorup [44] and the paper's planar discussion use.

Implementation notes:

* big faces are star-triangulated with virtual vertices
  (:mod:`repro.planar.triangulate`); virtual vertices enter the
  spanning tree only as leaves and candidate non-tree edges incident
  to them are skipped, so emitted cycles live entirely in the real
  graph;
* interior weights from the dual tree are used to *rank* candidate
  edges (each real vertex is charged to one incident triangle, so the
  ranking is exact up to boundary vertices); the top candidates are
  then re-scored exactly by the largest component they leave
  (:func:`~repro.core.engines.largest_after_removal`), keeping the
  choice deterministic and correct.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.engines import TreeCentroidEngine, approx_center, largest_after_removal
from repro.core.separator import PathSeparator, SeparatorPhase
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.ops import induced_subgraph
from repro.graphs.shortest_paths import ShortestPathTree, dijkstra_tree
from repro.planar.rotation import NotPlanarError, embed_planar
from repro.planar.triangulate import star_triangulate
from repro.util.errors import GraphError

Vertex = Hashable
UEdge = FrozenSet[Vertex]


def cycle_candidates(
    graph: Graph,
    within: Optional[AbstractSet[Vertex]] = None,
    top_candidates: int = 12,
) -> Tuple[List[Tuple[Vertex, Vertex]], set, ShortestPathTree]:
    """The non-tree edges whose fundamental cycles come closest to
    halving the largest component of ``graph[within]`` by dual-tree
    interior weight, best first, at most *top_candidates* of them;
    with that component and its shortest-path tree.

    Raises :class:`NotPlanarError` when the component is not planar and
    :class:`GraphError` when it is a tree.
    """
    universe = set(within) if within is not None else set(graph.vertices())
    comps = connected_components(graph, within=universe)
    if not comps:
        raise GraphError("balanced_fundamental_cycle on an empty graph")
    comp = comps[0]
    sub = induced_subgraph(graph, comp)
    if sub.num_edges <= sub.num_vertices - 1:
        raise GraphError("component is a tree: no fundamental cycle exists")

    system = embed_planar(sub)
    _, triangles, virtual = star_triangulate(sub, system)
    tree = dijkstra_tree(graph, approx_center(graph, comp), allowed=comp)

    tree_edges: set = set()
    for v, p in tree.parent.items():
        if p is not None:
            tree_edges.add(frozenset((v, p)))

    # Dual tree over triangles, crossing only real non-tree edges.
    edge_triangles: Dict[UEdge, List[int]] = {}
    for t_index, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (a, c)):
            edge_triangles.setdefault(frozenset((u, v)), []).append(t_index)

    # Charge every real vertex to one incident triangle.
    charge: Dict[int, int] = {}
    assigned: set = set()
    for t_index, tri in enumerate(triangles):
        for u in tri:
            if u not in virtual and u not in assigned:
                assigned.add(u)
                charge[t_index] = charge.get(t_index, 0) + 1

    parent_tri: Dict[int, Optional[int]] = {0: None}
    parent_edge: Dict[int, UEdge] = {}
    order: List[int] = [0]
    queue = deque([0])
    while queue:
        t = queue.popleft()
        for edge, sides in _incident(triangles[t], edge_triangles):
            if edge in tree_edges:
                continue
            for other in sides:
                if other != t and other not in parent_tri:
                    parent_tri[other] = t
                    parent_edge[other] = edge
                    order.append(other)
                    queue.append(other)

    subtree_weight: Dict[int, int] = {t: charge.get(t, 0) for t in parent_tri}
    for t in reversed(order):
        p = parent_tri[t]
        if p is not None:
            subtree_weight[p] += subtree_weight[t]

    total = len(comp)
    candidates: List[Tuple[float, UEdge]] = []
    for t, edge in parent_edge.items():
        u, v = tuple(edge)
        if u in virtual or v in virtual:
            continue  # keep the cycle in the real graph
        interior = subtree_weight[t]
        imbalance = abs(interior - total / 2)
        candidates.append((imbalance, edge))
    if not candidates:
        raise GraphError(
            "no real non-tree edge available (all cycles pass through "
            "triangulation vertices)"
        )
    candidates.sort(key=lambda item: (item[0], sorted(map(repr, item[1]))))

    return [tuple(edge) for _, edge in candidates[:top_candidates]], comp, tree


def balanced_fundamental_cycle(
    graph: Graph,
    within: Optional[AbstractSet[Vertex]] = None,
    top_candidates: int = 12,
) -> List[List[Vertex]]:
    """A balanced fundamental cycle of the largest component of
    ``graph[within]``, as its two root paths.

    Returns the cycle as two root paths of a shortest-path tree (each
    a minimum-cost path of ``graph[within]``), chosen via dual-tree
    interior weights.  Raises :class:`NotPlanarError` when the
    component is not planar and :class:`GraphError` when it is a tree
    (no cycle exists — callers should use a centroid instead).
    """
    edges, comp, tree = cycle_candidates(graph, within, top_candidates)
    pairs = [[tree.path_to(u), tree.path_to(v)] for u, v in edges]
    scores = largest_after_removal(graph, comp, [pu + pv for pu, pv in pairs])
    return pairs[min(range(len(pairs)), key=scores.__getitem__)]


def _incident(triangle, edge_triangles):
    a, b, c = triangle
    for u, v in ((a, b), (b, c), (a, c)):
        edge = frozenset((u, v))
        yield edge, edge_triangles[edge]


class PlanarCycleEngine:
    """Separator engine using dual-tree fundamental cycles.

    Each phase removes one balanced cycle (two shortest root paths of
    the residual component); phases repeat until every component holds
    at most half the vertices, which for planar inputs takes one or
    two phases (Thorup's strong 3-path bound says three *paths*).
    Non-planar inputs raise :class:`NotPlanarError`.
    """

    def __init__(self, top_candidates: int = 12, max_phases: int = 32) -> None:
        self.top_candidates = top_candidates
        self.max_phases = max_phases

    def find_separator(
        self, graph: Graph, within: Optional[AbstractSet[Vertex]] = None
    ) -> PathSeparator:
        universe = (
            {v for v in within if v in graph}
            if within is not None
            else set(graph.vertices())
        )
        if not universe:
            return PathSeparator()
        half = len(universe) / 2
        phases: List[SeparatorPhase] = []
        residual = set(universe)
        while True:
            comps = connected_components(graph, within=residual)
            if not comps or len(comps[0]) <= half:
                break
            if len(phases) >= self.max_phases:
                raise GraphError(
                    f"PlanarCycleEngine exceeded max_phases={self.max_phases}"
                )
            comp = comps[0]
            try:
                paths = balanced_fundamental_cycle(
                    graph, within=comp, top_candidates=self.top_candidates
                )
            except GraphError as exc:
                if isinstance(exc, NotPlanarError):
                    raise
                # Tree-like residual: a centroid finishes the job.
                centroid = TreeCentroidEngine._centroid(graph, comp)
                paths = [[centroid]]
            phases.append(SeparatorPhase(paths=paths))
            for path in paths:
                residual -= set(path)
        return PathSeparator(phases=phases)

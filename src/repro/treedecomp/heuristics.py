"""Elimination-order constructions of tree decompositions.

Every vertex elimination order yields a tree decomposition whose width
is the largest "higher neighborhood" encountered.  ``min_degree`` and
``min_fill`` are the standard greedy orders; ``mcs`` (maximum
cardinality search) is exact on chordal graphs (e.g. the k-trees our
generator produces), recovering width exactly k.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List, Sequence, Set, Tuple

from repro.graphs.graph import Graph
from repro.treedecomp.decomposition import TreeDecomposition
from repro.treedecomp.elimination import (
    bag_tree,
    eliminate_in_order,
    min_degree_elimination,
    min_fill_elimination,
    stable_key,
)
from repro.treedecomp.elimination import mcs_order as _mcs_order
from repro.util.errors import GraphError, InvalidDecompositionError

Vertex = Hashable


def _int_adjacency(graph: Graph, verts: Sequence[Vertex]) -> List[Set[int]]:
    ids = {v: i for i, v in enumerate(verts)}
    return [{ids[u] for u in graph.neighbors(v)} for v in verts]


def _stable_vertices(graph: Graph) -> List[Vertex]:
    return sorted(graph.vertices(), key=stable_key)


def min_degree_order(graph: Graph) -> List[Vertex]:
    """Greedy elimination order: repeatedly eliminate a minimum-degree vertex.

    Elimination connects the vertex's remaining neighbors into a clique,
    as required for the induced decomposition to be valid.
    """
    verts = _stable_vertices(graph)
    order, _ = min_degree_elimination(_int_adjacency(graph, verts))
    return [verts[i] for i in order]


def min_fill_order(graph: Graph) -> List[Vertex]:
    """Greedy elimination order minimizing fill-in edges at each step.

    Slower than min-degree (it scans all remaining vertices each step)
    but usually produces lower width; intended for small graphs.
    """
    verts = _stable_vertices(graph)
    order, _ = min_fill_elimination(_int_adjacency(graph, verts))
    return [verts[i] for i in order]


def mcs_order(graph: Graph) -> List[Vertex]:
    """Maximum cardinality search, reversed into an elimination order.

    On chordal graphs the result is a perfect elimination order, so the
    induced decomposition has exactly the graph's treewidth.
    """
    verts = _stable_vertices(graph)
    return [verts[i] for i in _mcs_order(_int_adjacency(graph, verts))]


def decomposition_from_elimination(
    graph: Graph, order: Sequence[Vertex]
) -> TreeDecomposition:
    """Build the tree decomposition induced by an elimination *order*.

    Bag of v = {v} + its neighbors later in the order (after fill-in);
    the bag of v attaches to the bag of the earliest-eliminated vertex
    among those later neighbors.  This is the textbook construction.
    """
    position = {v: i for i, v in enumerate(order)}
    if len(position) != graph.num_vertices or any(v not in graph for v in position):
        raise GraphError("elimination order must enumerate every vertex exactly once")
    # Local id = position, so eliminating 0, 1, ... follows *order*.
    verts = list(position)
    higher = eliminate_in_order(_int_adjacency(graph, verts), range(len(verts)))
    bags, edges = bag_tree(range(len(verts)), higher)
    return TreeDecomposition(
        [frozenset(verts[i] for i in bag) for bag in bags], edges
    )


def min_degree_width(graph: Graph) -> int:
    """Width of the min-degree decomposition, without building its bags."""
    verts = _stable_vertices(graph)
    _, higher = min_degree_elimination(_int_adjacency(graph, verts))
    return max(map(len, higher), default=-1)


def min_degree_decomposition(graph: Graph) -> TreeDecomposition:
    """The min-degree heuristic decomposition (the package default)."""
    return decomposition_from_elimination(graph, min_degree_order(graph))


def decomposition_from_bags(
    graph: Graph, bags: Sequence[FrozenSet[Vertex]]
) -> TreeDecomposition:
    """Assemble a decomposition from a *bag set* known to be valid.

    Connects the bags by a maximum-weight spanning tree on pairwise
    intersection sizes (Prim); by the running-intersection property
    this yields a valid tree decomposition whenever one exists for the
    given bags (e.g. the (k+1)-cliques returned by the k-tree
    generator).  Quadratic in the number of bags.
    """
    bag_list = [frozenset(b) for b in bags]
    if not bag_list:
        raise InvalidDecompositionError("decomposition_from_bags needs >= 1 bag")
    n = len(bag_list)
    in_tree = [False] * n
    best_weight = [-1] * n
    best_parent = [-1] * n
    in_tree[0] = True
    for j in range(1, n):
        best_weight[j] = len(bag_list[0] & bag_list[j])
        best_parent[j] = 0
    edges: List[Tuple[int, int]] = []
    for _ in range(n - 1):
        pick = -1
        for j in range(n):
            if not in_tree[j] and (pick == -1 or best_weight[j] > best_weight[pick]):
                pick = j
        in_tree[pick] = True
        edges.append((pick, best_parent[pick]))
        for j in range(n):
            if not in_tree[j]:
                w = len(bag_list[pick] & bag_list[j])
                if w > best_weight[j]:
                    best_weight[j] = w
                    best_parent[j] = pick
    td = TreeDecomposition(bag_list, edges)
    td.validate(graph)
    return td

"""Lemma 1: every tree decomposition has a *center bag*.

A center bag C satisfies: every connected component of ``G \\ C`` has
at most ``n/2`` vertices.  This is the engine behind Theorem 7 (strong
(r+1)-path separators for treewidth-r graphs): each vertex of the
center bag is a trivial minimum-cost path, so C itself is a strong
|C|-path separator.

The implementation is the classic linear-time centroid walk: assign
each graph vertex to its topmost bag, compute subtree weights, and
descend from the root into any child subtree holding more than half
the vertices; the bag where the walk stops is a center.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.graphs.graph import Graph
from repro.treedecomp.decomposition import TreeDecomposition
from repro.treedecomp.elimination import center_bag_index
from repro.util.errors import InvalidDecompositionError

Vertex = Hashable


def center_bag(graph: Graph, td: TreeDecomposition, root: int = 0) -> int:
    """Index of a center bag of *td* for *graph* (Lemma 1).

    Requires *td* to be a valid decomposition of *graph*; with an
    invalid one the balance guarantee is meaningless and this function
    may return a non-center bag (``validate`` first when unsure).
    """
    if td.num_bags == 0:
        raise InvalidDecompositionError("cannot find a center of an empty decomposition")
    ids: Dict[Vertex, int] = {}
    bags = [[ids.setdefault(v, len(ids)) for v in bag] for bag in td.bags]
    if len(ids) != graph.num_vertices:
        raise InvalidDecompositionError(
            "decomposition does not cover exactly the graph's vertices"
        )
    return center_bag_index(len(ids), bags, td.tree_adj, root)

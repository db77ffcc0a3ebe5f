"""Elimination and center-bag walks on integer adjacency.

The vertex-object heuristics in :mod:`repro.treedecomp.heuristics` and
the center-bag separator engine both run on these routines.  Vertices
are local ids ``0..n-1``; callers number them in :func:`stable_key`
order, so a heap key ``(degree, id)`` orders exactly like ``(degree,
stable_key(v))`` and every tie-break matches the vertex-object form.

Eliminating a vertex turns its remaining neighbours into a clique.  The
neighbourhood a vertex has at that moment is its *higher* set: the
bag of the induced tree decomposition is the vertex plus that set, and
the bag hangs below the bag of the earliest-eliminated member of it.
One pass therefore yields the order, the bags and the tree edges.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Sequence, Set, Tuple

from repro.util.errors import InvalidDecompositionError

Adjacency = List[Set[int]]


def stable_key(v) -> str:
    """Deterministic tiebreak usable across mixed vertex types."""
    return f"{type(v).__name__}:{v!r}"


def _eliminate(adj: Adjacency, v: int) -> Set[int]:
    """Remove *v* from the elimination graph; return its higher set.

    *adj[v]* is left as the higher set and is never touched again."""
    nbrs = adj[v]
    for u in nbrs:
        row = adj[u]
        row.discard(v)
        row |= nbrs
        row.discard(u)
    return nbrs


#: Heap entries pack ``(degree, id)`` into one int, ``degree << _ID_BITS
#: | id``: ints order like the pairs and, unlike tuples, are not objects
#: the garbage collector has to track.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1


def min_degree_elimination(adj: Adjacency) -> Tuple[List[int], List[Set[int]]]:
    """Eliminate a minimum-degree vertex (lowest id on ties) until none
    is left.  Consumes *adj*; returns ``(order, higher)``.

    The heap always holds ``(degree, v)`` for every live vertex, so a
    popped entry that no longer matches is simply dropped, and a
    neighbour whose degree an elimination leaves unchanged needs no
    new entry."""
    heap = [len(nbrs) << _ID_BITS | v for v, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    done = [False] * len(adj)
    order: List[int] = []
    while heap:
        key = pop(heap)
        v = key & _ID_MASK
        nbrs = adj[v]
        if done[v] or key >> _ID_BITS != len(nbrs):
            continue
        done[v] = True
        order.append(v)
        for u in nbrs:
            row = adj[u]
            before = len(row)
            row.discard(v)
            row |= nbrs
            row.discard(u)
            if len(row) != before:
                push(heap, len(row) << _ID_BITS | u)
    return order, adj


def min_fill_elimination(adj: Adjacency) -> Tuple[List[int], List[Set[int]]]:
    """Eliminate the vertex adding the fewest fill edges (lowest id on
    ties) until none is left.  Quadratic; consumes *adj*."""
    remaining = set(range(len(adj)))
    order: List[int] = []
    while remaining:
        best = None
        for v in remaining:
            nbrs = adj[v]
            # Each neighbour a misses |nbrs - adj[a]| - 1 others (itself
            # included in the difference); every missing pair counts twice.
            fill = sum(len(nbrs - adj[a]) - 1 for a in nbrs) // 2
            if best is None or (fill, v) < best:
                best = (fill, v)
        v = best[1]
        remaining.discard(v)
        order.append(v)
        _eliminate(adj, v)
    return order, adj


def mcs_order(adj: Adjacency) -> List[int]:
    """Maximum cardinality search (lowest id on ties), reversed into an
    elimination order.  Does not modify *adj*."""
    weight = [0] * len(adj)
    visited = [False] * len(adj)
    visit: List[int] = []
    # Highest weight first: the heap keys (-weight, id) as one int.
    heap = list(range(len(adj)))
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        key = pop(heap)
        v = key & _ID_MASK
        if visited[v] or -(key >> _ID_BITS) != weight[v]:
            continue
        visited[v] = True
        visit.append(v)
        for u in adj[v]:
            if not visited[u]:
                weight[u] += 1
                push(heap, -weight[u] << _ID_BITS | u)
    visit.reverse()
    return visit


def eliminate_in_order(adj: Adjacency, order: Sequence[int]) -> List[Set[int]]:
    """Eliminate in the given *order*; consumes *adj*, returns ``higher``."""
    for v in order:
        _eliminate(adj, v)
    return adj


#: The elimination heuristics :func:`eliminate` knows.
RULES = ("min_degree", "min_fill", "mcs")


def eliminate(adj: Adjacency, rule: str = "min_degree") -> Tuple[List[int], List[Set[int]]]:
    """``(order, higher)`` of the *rule* heuristic, one of :data:`RULES`.
    Consumes *adj*."""
    if rule == "min_degree":
        return min_degree_elimination(adj)
    if rule == "min_fill":
        return min_fill_elimination(adj)
    if rule == "mcs":
        order = mcs_order(adj)
        return order, eliminate_in_order(adj, order)
    raise ValueError(f"unknown elimination order {rule!r}")


def bag_tree(
    order: Sequence[int], higher: Sequence[Set[int]]
) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """Bags and tree edges of the decomposition induced by an
    elimination: bag ``k`` is ``order[k]`` followed by its higher set,
    and it hangs below the bag of the earliest-eliminated member."""
    position = [0] * len(order)
    for k, v in enumerate(order):
        position[v] = k
    bags: List[List[int]] = []
    edges: List[Tuple[int, int]] = []
    for k, v in enumerate(order):
        nbrs = higher[v]
        bags.append([v, *nbrs])
        if nbrs:
            edges.append((k, min(map(position.__getitem__, nbrs))))
    return bags, edges


def center_bag_index(
    num_vertices: int,
    bags: Sequence[Iterable[int]],
    tree_adj: Sequence[Sequence[int]],
    root: int = 0,
) -> int:
    """Lemma 1's centroid walk on a bag tree given by adjacency lists,
    rooted at *root*: the index of a bag whose removal leaves no
    component of more than ``num_vertices / 2`` vertices.  Vertex ids
    must lie in ``0..num_vertices-1``."""
    parent = [-1] * len(bags)
    seen = [False] * len(bags)
    seen[root] = True
    order = [root]
    for a in order:
        for b in tree_adj[a]:
            if not seen[b]:
                seen[b] = True
                parent[b] = a
                order.append(b)
    return _center_walk(num_vertices, bags, parent, order)


def _center_walk(
    num_vertices: int,
    bags: Sequence[Iterable[int]],
    parent: Sequence[int],
    top_down: Sequence[int],
) -> int:
    """The walk itself, on a rooted bag tree: ``parent[b]`` is -1 at the
    root, and *top_down* lists the reachable bags, each after its parent.

    Each vertex weighs on its topmost bag, the first in *top_down* that
    holds it (the bags holding a vertex form a subtree, whose top comes
    before the rest of it).  The walk starts at the root and descends
    into the child subtree holding more than half the weight until no
    child does.  Subtrees that heavy form one chain down from the root
    (two siblings cannot both hold more than half), so the walk ends at
    the last of them in *top_down*.
    """
    covered = [False] * num_vertices
    weight = [0] * len(parent)
    count = 0
    for b in top_down:
        for v in bags[b]:
            if not covered[v]:
                covered[v] = True
                weight[b] += 1
                count += 1
    if count != num_vertices:
        raise InvalidDecompositionError("decomposition does not cover every graph vertex")
    for b in reversed(top_down):
        p = parent[b]
        if p >= 0:
            weight[p] += weight[b]
    half = num_vertices / 2
    for b in reversed(top_down):
        if weight[b] > half:
            return b
    return top_down[0]


def center_bag_ids(adj: Adjacency, rule: str = "min_degree") -> Set[int]:
    """The center bag (Lemma 1) of the *rule* elimination decomposition
    of a connected graph, with the tree rooted like
    :meth:`~repro.treedecomp.decomposition.TreeDecomposition.rooted`
    at the first bag.  Consumes *adj*.

    The bag tree comes straight from the elimination: bag ``k`` hangs
    below the bag of the earliest-eliminated member of its higher set,
    so the tree is rooted at the last bag.  Rooting it at bag 0 instead
    reverses only the parent links on the path from bag 0 up to that
    root; every other bag keeps its parent and comes after it when the
    bags are listed by decreasing index.
    """
    num_vertices = len(adj)
    order, higher = eliminate(adj, rule)
    position = [0] * num_vertices
    for k, v in enumerate(order):
        position[v] = k
    parent = [min(map(position.__getitem__, higher[v])) if higher[v] else -1 for v in order]
    if parent.count(-1) != 1:
        raise InvalidDecompositionError("center_bag_ids needs a connected graph")
    bags = []
    for v in order:
        bag = higher[v]
        bag.add(v)
        bags.append(bag)
    path = [0]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    on_path = bytearray(num_vertices)
    for b in path:
        on_path[b] = 1
    parent[0] = -1
    for child, above in zip(path[1:], path):
        parent[child] = above
    top_down = path + [b for b in range(num_vertices - 1, -1, -1) if not on_path[b]]
    return bags[_center_walk(num_vertices, bags, parent, top_down)]

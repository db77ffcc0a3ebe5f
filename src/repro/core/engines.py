"""Separator engines: algorithms that *find* k-path separators.

The paper's Theorem 1 is existential (via the Robertson-Seymour
structure theorem, which has no practical implementation); these
engines construct Definition-1 separators directly:

* :class:`TreeCentroidEngine` — trees: the centroid vertex is a 1-path
  separator (the paper's K3-free example).
* :class:`CenterBagEngine` — bounded treewidth: a center bag (Lemma 1)
  is a strong (w+1)-path separator of single-vertex paths (Theorem 7).
* :class:`FundamentalCycleEngine` — planar-style graphs: two or three
  root paths of a shortest-path tree, the Lipton-Tarjan/Thorup [44]
  strong 3-path construction evaluated by explicit balance checks.
* :class:`GreedyPeelingEngine` — any graph: repeatedly peel the root
  path (a residual shortest path) that best balances the largest
  component.  Always yields a valid Definition-1 separator; the
  measured k is the experimental quantity of Theorem 1.
* :class:`StrongGreedyEngine` — single-phase ("strong") mode for the
  Section 5.2 lower-bound experiments.

Every engine returns a :class:`PathSeparator` whose ``validate`` method
re-checks (P1)/(P3) independently.

The engines work on integer ids, not on the vertex objects: a call
numbers its vertex set in :func:`stable_key` order (so "smallest key"
is "smallest id") and keeps each vertex's neighbours inside the set as
an id list.  Candidate root paths are scored by one flood fill of the
set minus all candidates together, then one union-find per candidate
that merges the other candidates' vertices back onto those pieces.
Shortest-path trees of at least :data:`repro.core.flat_build.SMALL_RESIDUAL`
vertices run on scipy over an induced sub-CSR.  A scipy tree is used
only when every reached vertex has exactly one tight in-arc, so its
parents are the only possible ones and equal
:func:`~repro.graphs.shortest_paths.dijkstra`'s; otherwise (integer
weights on grids, say) the tree comes from ``dijkstra``, and so does
every later tree of the same scope.  Inside
:func:`~repro.core.decomposition.build_decomposition` every call shares
one :func:`build_scope`: the stable-key ranks and the CSR view are
made once per build and dropped with it.  ``tests/reference_engines.py``
keeps the vertex-object originals these must agree with.
"""

from __future__ import annotations

import hashlib
import math
import threading
from abc import ABC, abstractmethod
from bisect import bisect_left
from contextlib import contextmanager
from typing import AbstractSet, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set

import numpy as _np
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.core import flat_build
from repro.core.separator import PathSeparator, SeparatorPhase, singleton_separator
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import dijkstra, reconstruct_path
from repro.treedecomp.elimination import RULES, center_bag_ids, stable_key
from repro.treedecomp.heuristics import min_degree_width
from repro.obs import metrics
from repro.util.errors import GraphError
from repro.util.rng import SeedLike, derive_seed, ensure_rng, seed_fingerprint

Vertex = Hashable


class SeparatorEngine(ABC):
    """Interface: compute a path separator of ``graph[within]``."""

    @abstractmethod
    def find_separator(
        self, graph: Graph, within: Optional[AbstractSet[Vertex]] = None
    ) -> PathSeparator:
        """Return a separator S of the subgraph induced by *within*
        (the whole graph when *within* is None) satisfying (P1)+(P3)."""


# ----------------------------------------------------------------------
# Per-build scope and integer views
# ----------------------------------------------------------------------


class _Scope:
    """What every engine call on one graph can share: each vertex's
    stable-key rank and key bytes, (on first use) the CSR view the
    scipy trees gather their sub-CSRs from, and whether a scipy tree
    has already met tied parents (``tied``)."""

    __slots__ = ("graph", "rank", "keys", "_csr", "tied")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        keys = {v: stable_key(v) for v in graph.vertices()}
        self.rank = {v: r for r, v in enumerate(sorted(keys, key=keys.__getitem__))}
        self.keys = keys
        self._csr = None
        self.tied = False

    def ordered(self, vertices: Iterable[Vertex]) -> List[Vertex]:
        return sorted(vertices, key=self.rank.__getitem__)

    def fingerprint(self, ordered: Sequence[Vertex]) -> str:
        """Stable digest of a vertex set given in stable-key order."""
        keys = self.keys
        text = "".join([keys[v] + "\x00" for v in ordered])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def csr(self):
        """``(CSRGraph, vertex -> index, all -1 scratch)``, built once."""
        if self._csr is None:
            csr = flat_build.CSRGraph.from_graph(self.graph)
            gid = {v: i for i, v in enumerate(csr.verts)}
            g2l = _np.full(csr.num_vertices, -1, dtype=_np.int64)
            self._csr = (csr, gid, g2l)
        return self._csr


_active = threading.local()


@contextmanager
def build_scope(graph: Graph) -> Iterator[None]:
    """Share one scope among all engine calls on *graph* until exit.

    :func:`~repro.core.decomposition.build_decomposition` wraps its
    loop in this, so the stable-key sort and the CSR view are made once
    per build instead of once per node; nothing is kept after it."""
    previous = getattr(_active, "scope", None)
    _active.scope = _Scope(graph)
    try:
        yield
    finally:
        _active.scope = previous


def _scope(graph: Graph) -> _Scope:
    scope = getattr(_active, "scope", None)
    if scope is not None and scope.graph is graph:
        return scope
    return _Scope(graph)


class _Local:
    """A vertex set numbered in stable-key order: ``verts[i]`` is id
    ``i``, and ``adj[i]`` lists i's neighbours inside the set in graph
    adjacency order."""

    __slots__ = ("scope", "verts", "ids", "adj", "_gids")

    def __init__(self, scope: _Scope, vertices: Iterable[Vertex]) -> None:
        self.scope = scope
        self.verts = verts = scope.ordered(vertices)
        self.ids = ids = {v: i for i, v in enumerate(verts)}
        get = ids.get
        graph_adj = scope.graph._adj
        adj = []
        for v in verts:
            row = [get(u) for u in graph_adj[v]]
            if None in row:
                row = [i for i in row if i is not None]
            adj.append(row)
        self.adj = adj
        self._gids = None

    def __len__(self) -> int:
        return len(self.verts)

    def gids(self):
        """CSR index of every id, as an int64 array."""
        if self._gids is None:
            _, gid, _ = self.scope.csr()
            self._gids = _np.fromiter(
                (gid[v] for v in self.verts), dtype=_np.int64, count=len(self.verts)
            )
        return self._gids

    def vertices(self, ids: Iterable[int]) -> List[Vertex]:
        verts = self.verts
        return [verts[i] for i in ids]


def _universe(graph: Graph, within: Optional[AbstractSet[Vertex]]) -> Set[Vertex]:
    if within is None:
        return set(graph.vertices())
    return {v for v in within if v in graph}


def _component_rng(base_seed: int, engine: str, local: _Local):
    """Per-call RNG derived from a spawn key, not from shared state.

    Randomized engines used to consume one shared stream across
    ``find_separator`` calls, which made the decomposition depend on
    the order nodes happen to be expanded in — and would make forked
    worker processes that inherit the parent's RNG state produce
    correlated, irreproducible streams.  Deriving a child seed from
    ``(engine, component)`` makes each call's randomness a pure
    function of its inputs: order-independent, fork-safe, and
    byte-reproducible across runs.
    """
    fingerprint = local.scope.fingerprint(local.verts)
    return ensure_rng(derive_seed(base_seed, "engine", engine, fingerprint))


def _measure(parts: Iterable[Sequence[int]], weight: Optional[List[float]]):
    """The measure (P3) balances, of the union of disjoint id lists: the
    vertex count, or with vertex weights their correctly rounded sum
    (``math.fsum``), which does not depend on how the vertices are
    grouped or ordered."""
    if weight is None:
        return sum(map(len, parts))
    return math.fsum([weight[i] for part in parts for i in part])


def _heavy_component(
    adj: List[List[int]],
    seeds: Iterable[int],
    alive: bytearray,
    half: float,
    weight: Optional[List[float]] = None,
) -> Optional[List[int]]:
    """The component of the *alive* ids reached from *seeds* whose
    measure exceeds *half*, in ascending ids; None when there is none.
    Measures are non-negative, so at most one component qualifies."""
    seen = bytearray(len(adj))
    for s in seeds:
        if seen[s] or not alive[s]:
            continue
        seen[s] = 1
        comp = [s]
        for u in comp:
            for x in adj[u]:
                if alive[x] and not seen[x]:
                    seen[x] = 1
                    comp.append(x)
        if _measure([comp], weight) > half:
            comp.sort()
            return comp
    return None


_OUT, _CUT, _FREE = -3, -2, -1


def _heaviest_after_removal(
    adj: List[List[int]],
    region: Sequence[int],
    removals: Sequence[Sequence[int]],
    weight: Optional[List[float]] = None,
) -> list:
    """For each id collection in *removals*: the measure of the heaviest
    component of *region* minus that collection (0 when nothing is left).

    One flood fill splits the region minus the union of all removals
    into base pieces.  The union's own vertices are grouped into blocks:
    connected runs of vertices that lie in exactly the same removals,
    so that each removal keeps or drops a block whole.  Per removal, a
    union-find merges the kept blocks with each other and with the
    pieces they touch; untouched pieces stay as they are.
    """
    state = [_OUT] * len(adj)
    for v in region:
        state[v] = _FREE
    member_of: Dict[int, List[int]] = {}
    for i, removal in enumerate(removals):
        for v in removal:
            if state[v] != _OUT:
                owners = member_of.setdefault(v, [])
                if not owners or owners[-1] != i:
                    owners.append(i)
    for v in member_of:
        state[v] = _CUT

    pieces: List[List[int]] = []
    for s in region:
        if state[s] != _FREE:
            continue
        k = len(pieces)
        state[s] = k
        members = [s]
        for u in members:
            for x in adj[u]:
                if state[x] == _FREE:
                    state[x] = k
                    members.append(x)
        pieces.append(members)
    num_pieces = len(pieces)
    piece_measure = [_measure([members], weight) for members in pieces]
    heaviest_first = sorted(range(num_pieces), key=piece_measure.__getitem__, reverse=True)

    blocks: List[List[int]] = []
    block_of: Dict[int, int] = {}
    dropped: List[Set[int]] = [set() for _ in removals]
    for v, owners in member_of.items():
        if v in block_of:
            continue
        b = len(blocks)
        block_of[v] = b
        members = [v]
        for u in members:
            for x in adj[u]:
                if state[x] == _CUT and x not in block_of and member_of[x] == owners:
                    block_of[x] = b
                    members.append(x)
        blocks.append(members)
        for i in owners:
            dropped[i].add(b)
    block_links: List[List[int]] = []
    piece_links: List[List[int]] = []
    for b, members in enumerate(blocks):
        near_blocks, near_pieces = set(), set()
        for u in members:
            for x in adj[u]:
                if state[x] >= 0:
                    near_pieces.add(state[x])
                elif state[x] == _CUT:
                    near_blocks.add(block_of[x])
        near_blocks.discard(b)
        block_links.append(list(near_blocks))
        piece_links.append(list(near_pieces))

    scores = []
    for drop in dropped:
        # Union-find over the kept blocks (path halving, inlined); a
        # piece joins the set of the first kept block that touches it.
        parent = list(range(len(blocks)))
        piece_block: Dict[int, int] = {}
        kept = [b for b in range(len(blocks)) if b not in drop]
        for b in kept:
            root = b
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            for c in block_links[b]:
                if c in drop:
                    continue
                while parent[c] != c:
                    parent[c] = c = parent[parent[c]]
                if c != root:
                    parent[c] = root
            for k in piece_links[b]:
                c = piece_block.setdefault(k, root)
                while parent[c] != c:
                    parent[c] = c = parent[parent[c]]
                if c != root:
                    parent[c] = root
        groups: Dict[int, List[List[int]]] = {}
        for b in kept:
            root = b
            while parent[root] != root:
                root = parent[root]
            parent[b] = root
            groups.setdefault(root, []).append(blocks[b])
        for k, b in piece_block.items():
            groups[parent[b]].append(pieces[k])
        best = max((_measure(parts, weight) for parts in groups.values()), default=0)
        for k in heaviest_first:
            if k not in piece_block:
                best = max(best, piece_measure[k])
                break
        scores.append(best)
    return scores


def largest_after_removal(
    graph: Graph,
    comp: AbstractSet[Vertex],
    removals: Sequence[Sequence[Vertex]],
) -> List[int]:
    """For each vertex collection in *removals*: the vertex count of the
    largest component of ``graph[comp]`` minus it (0 when nothing is
    left), by one flood fill plus a union-find per collection."""
    local = _Local(_scope(graph), comp)
    ids = local.ids
    return _heaviest_after_removal(
        local.adj,
        range(len(local)),
        [[ids[v] for v in removal if v in ids] for removal in removals],
    )


class _Tree:
    """A shortest-path tree over local ids: ``dist`` and ``parent`` of
    every reached id (the root's parent is None)."""

    __slots__ = ("dist", "parent")

    def __init__(self, dist: Dict[int, float], parent: Dict[int, Optional[int]]) -> None:
        self.dist = dist
        self.parent = parent

    def path_to(self, v: int) -> List[int]:
        """The tree path root -> v (a shortest path of the region)."""
        return reconstruct_path(self.parent, v)


class _Region:
    """An ascending id subset of a :class:`_Local` that shortest-path
    trees are grown inside (Dijkstra's ``allowed`` set)."""

    __slots__ = ("local", "ids", "_sub", "_arc_rows", "_allowed")

    def __init__(self, local: _Local, ids: List[int]) -> None:
        self.local = local
        self.ids = ids
        self._sub = None
        self._arc_rows = None
        self._allowed = None

    def distances(self, root: int) -> Dict[int, float]:
        """Shortest distances from *root* to every reached id."""
        metrics.inc("engine.dijkstra_trees")
        if self._scipy_sized():
            dist, _ = self._scipy(root, parents=False)
            return dist
        ids = self.local.ids
        dist, _ = self._dijkstra(root)
        return {ids[v]: d for v, d in dist.items()}

    def tree(self, root: int) -> _Tree:
        """The shortest-path tree :func:`dijkstra` grows from *root*.

        Once one scipy tree of the scope has tied parents, later trees
        go straight to ``dijkstra``: ties come from the weights (unit
        grids, say), so the next tree would almost surely be thrown
        away too."""
        metrics.inc("engine.dijkstra_trees")
        scope = self.local.scope
        if self._scipy_sized() and not scope.tied:
            dist, parent = self._scipy(root, parents=True)
            if parent is not None:
                return _Tree(dist, parent)
            scope.tied = True
        ids = self.local.ids
        dist, parent = self._dijkstra(root)
        return _Tree(
            {ids[v]: d for v, d in dist.items()},
            {ids[v]: None if p is None else ids[p] for v, p in parent.items()},
        )

    def _scipy_sized(self) -> bool:
        return len(self.ids) >= flat_build.SMALL_RESIDUAL

    def _dijkstra(self, root: int):
        """The reference kernel, on the vertex objects."""
        local = self.local
        if self._allowed is None:
            self._allowed = set(local.vertices(self.ids))
        return dijkstra(local.scope.graph, local.verts[root], allowed=self._allowed)

    def _scipy(self, root: int, parents: bool):
        np = _np
        if self._sub is None:
            csr, _, g2l = self.local.scope.csr()
            ids = np.asarray(self.ids, dtype=np.int64)
            self._sub = (ids, flat_build.induced_csr(csr, g2l, self.local.gids()[ids]))
        ids, sub = self._sub
        row = bisect_left(self.ids, root)
        if parents:
            dist, pred = _csgraph_dijkstra(
                sub, directed=True, indices=row, return_predecessors=True
            )
        else:
            dist = _csgraph_dijkstra(sub, directed=True, indices=row)
        reached = np.flatnonzero(np.isfinite(dist))
        reached_ids = ids[reached].tolist()
        dist_map = dict(zip(reached_ids, dist[reached].tolist()))
        if not parents or not self._parents_unique(sub, dist, row):
            return dist_map, None
        parent = dict(zip(reached_ids, ids[np.maximum(pred[reached], 0)].tolist()))
        parent[root] = None
        return dist_map, parent

    def _parents_unique(self, sub, dist, row: int) -> bool:
        """Whether every reached vertex but the root has exactly one
        tight in-arc (``dist[u] + w == dist[v]``).  Any Dijkstra's
        parent is a tight in-arc, so then all of them agree."""
        np = _np
        if self._arc_rows is None:
            counts = np.diff(sub.indptr)
            self._arc_rows = np.repeat(np.arange(len(counts)), counts)
        tail = dist[self._arc_rows]
        tight = np.isfinite(tail) & (tail + sub.data == dist[sub.indices])
        in_tight = np.bincount(sub.indices[tight], minlength=len(dist))
        reached = np.isfinite(dist)
        reached[row] = False
        return bool(np.all(in_tight[reached] == 1))


def _approx_center(region: _Region) -> int:
    """Midpoint of a double-sweep diametral path of the region."""
    start = region.ids[0]
    if len(region.ids) == 1:
        return start
    dist0 = region.distances(start)
    a = max(dist0, key=lambda v: (dist0[v], v))
    tree_a = region.tree(a)
    dist = tree_a.dist
    b = max(dist, key=lambda v: (dist[v], v))
    diam_path = tree_a.path_to(b)
    half = dist[b] / 2
    for v in diam_path:
        if dist[v] >= half:
            return v
    return diam_path[-1]


def approx_center(graph: Graph, comp: AbstractSet[Vertex]) -> Vertex:
    """Approximate center of a component: midpoint of a double-sweep
    diametral path.  A good Dijkstra-tree root for balanced peeling."""
    local = _Local(_scope(graph), comp)
    return local.verts[_approx_center(_Region(local, list(range(len(local)))))]


def _centroid(region: _Region) -> int:
    """The centroid of a region that induces a tree."""
    root = region.ids[0]
    tree = region.tree(root)
    dist, parent = tree.dist, tree.parent
    size = dict.fromkeys(dist, 1)
    children: Dict[int, List[int]] = {}
    for v in sorted(dist, key=dist.__getitem__, reverse=True):
        p = parent[v]
        if p is not None:
            size[p] += size[v]
            children.setdefault(p, []).append(v)
    total = len(region.ids)
    v = root
    while True:
        heavy = None
        for c in children.get(v, ()):
            if size[c] > total / 2:
                heavy = c
                break
        if heavy is None:
            return v
        v = heavy


def _path_candidates(
    tree: _Tree,
    inside: Optional[AbstractSet[int]],
    num_candidates: int,
    rng,
) -> List[int]:
    """Candidate path endpoints inside *inside* (None: the whole tree):
    the farthest vertex, deep leaves, and a random sample — a spread
    that works well across graph families."""
    dist = tree.dist
    reachable = list(dist) if inside is None else [v for v in dist if v in inside]
    if not reachable:
        return []
    picks: List[int] = []
    seen: Set[int] = set()

    def take(v: int) -> None:
        if v not in seen:
            seen.add(v)
            picks.append(v)

    take(max(reachable, key=lambda v: (dist[v], v)))
    has_child = set(tree.parent.values())
    leaves = [v for v in reachable if v not in has_child]
    leaves.sort(key=lambda v: (-dist[v], v))
    for v in leaves[: max(1, num_candidates // 2)]:
        take(v)
    pool = sorted(reachable)
    while len(picks) < num_candidates and len(seen) < len(reachable):
        take(pool[rng.randrange(len(pool))])
    return picks[:num_candidates]


def _first_best(scores: Sequence, paths: Sequence[Sequence[int]]) -> int:
    """Index of the lowest ``(score, path length)``; the first on ties."""
    return min(range(len(paths)), key=lambda i: (scores[i], len(paths[i])))


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


class TreeCentroidEngine(SeparatorEngine):
    """1-path separators for forests: the centroid vertex.

    Raises :class:`GraphError` when the induced subgraph has a cycle.
    """

    def find_separator(
        self, graph: Graph, within: Optional[AbstractSet[Vertex]] = None
    ) -> PathSeparator:
        metrics.inc("engine.calls", engine="centroid")
        local = _Local(_scope(graph), _universe(graph, within))
        n = len(local)
        comp = _heavy_component(local.adj, range(n), bytearray(b"\x01") * n, n / 2)
        if comp is None:
            return PathSeparator()
        edge_count = sum(len(local.adj[v]) for v in comp) // 2
        if edge_count != len(comp) - 1:
            raise GraphError("TreeCentroidEngine requires an acyclic (sub)graph")
        return singleton_separator([local.verts[_centroid(_Region(local, comp))]])

    @staticmethod
    def _centroid(graph: Graph, comp: AbstractSet[Vertex]) -> Vertex:
        """The centroid of *comp*, which must induce a tree."""
        local = _Local(_scope(graph), comp)
        return local.verts[_centroid(_Region(local, list(range(len(local)))))]


class CenterBagEngine(SeparatorEngine):
    """Strong (w+1)-path separators via Lemma 1 center bags.

    Computes a tree decomposition of the induced subgraph with the
    chosen elimination heuristic (``'min_degree'``, ``'min_fill'``, or
    ``'mcs'`` — exact on chordal graphs such as k-trees) and emits the
    center bag as single-vertex paths (Theorem 7's construction).  The
    elimination, bags and center walk run in one pass over integer
    adjacency (:func:`~repro.treedecomp.elimination.center_bag_ids`).
    """

    def __init__(self, order: str = "min_degree") -> None:
        if order not in RULES:
            raise ValueError(f"unknown elimination order {order!r}")
        self.order_name = order

    def find_separator(
        self, graph: Graph, within: Optional[AbstractSet[Vertex]] = None
    ) -> PathSeparator:
        metrics.inc("engine.calls", engine="centerbag")
        local = _Local(_scope(graph), _universe(graph, within))
        n = len(local)
        comp = _heavy_component(local.adj, range(n), bytearray(b"\x01") * n, n / 2)
        if comp is None:
            return PathSeparator()
        # Renumber the component 0..len-1, still in stable-key order.
        remap = {v: i for i, v in enumerate(comp)}
        adj = [{remap[u] for u in local.adj[v]} for v in comp]
        bag = center_bag_ids(adj, self.order_name)
        return singleton_separator([local.verts[comp[i]] for i in sorted(bag)])


class GreedyPeelingEngine(SeparatorEngine):
    """General-purpose engine: peel residual shortest paths greedily.

    Each iteration roots a Dijkstra tree near the center of the current
    largest component of the residual graph, evaluates a handful of
    root paths by the balance they achieve, and removes the best one as
    its own phase.  Root paths of a residual Dijkstra tree are minimum
    cost paths of the residual graph, so (P1) holds by construction;
    the loop runs until (P3) holds.  ``num_paths`` of the result is the
    empirical k of Theorem 1.
    """

    def __init__(
        self,
        num_candidates: int = 16,
        max_paths: Optional[int] = None,
        seed: SeedLike = 0,
        vertex_weight: Optional[dict] = None,
    ) -> None:
        """*vertex_weight* switches (P3) to the paper's vertex-weighted
        variant: components are balanced by total (non-negative) weight,
        not count."""
        if num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        self.num_candidates = num_candidates
        self.max_paths = max_paths
        self._seed = seed
        # Fingerprint once at construction; per-call child streams are
        # derived from this base so call order never matters.
        self._base_seed = seed_fingerprint(seed)
        self.vertex_weight = vertex_weight

    def find_separator(
        self, graph: Graph, within: Optional[AbstractSet[Vertex]] = None
    ) -> PathSeparator:
        metrics.inc("engine.calls", engine="greedy")
        local = _Local(_scope(graph), _universe(graph, within))
        rng = _component_rng(self._base_seed, "greedy", local)
        weight = None
        if self.vertex_weight is not None:
            weight = [self.vertex_weight.get(v, 0.0) for v in local.verts]
        n = len(local)
        total = _measure([range(n)], weight)
        half = total / 2
        alive = bytearray(b"\x01") * n
        phases: List[SeparatorPhase] = []
        comp = _heavy_component(local.adj, range(n), alive, half, weight)
        while comp is not None:
            if self.max_paths is not None and len(phases) >= self.max_paths:
                raise GraphError(
                    f"GreedyPeelingEngine exceeded max_paths={self.max_paths} "
                    f"(heaviest component still {_measure([comp], weight)} "
                    f"of {total})"
                )
            path = self._best_peel(local, comp, rng, weight)
            phases.append(SeparatorPhase(paths=[local.vertices(path)]))
            for v in path:
                alive[v] = 0
            # Every other residual component weighs less than half, so
            # only the peeled component can still be too heavy.
            comp = _heavy_component(local.adj, comp, alive, half, weight)
        return PathSeparator(phases=phases)

    def _best_peel(self, local: _Local, comp: List[int], rng, weight) -> List[int]:
        region = _Region(local, comp)
        tree = region.tree(_approx_center(region))
        candidates = _path_candidates(tree, None, self.num_candidates, rng)
        metrics.inc("engine.candidates_evaluated", len(candidates))
        paths = [tree.path_to(x) for x in candidates]
        scores = _heaviest_after_removal(local.adj, comp, paths, weight)
        return paths[_first_best(scores, paths)]


class FundamentalCycleEngine(SeparatorEngine):
    """Strong 2/3-path separators for planar-style graphs.

    Implements the Lipton-Tarjan fundamental-cycle idea on a
    shortest-path tree: for a non-tree edge {u, v}, the two root paths
    to u and v form a cycle with the edge; in a planar graph some such
    cycle is balanced.  We sample non-tree edges, evaluate balance
    explicitly (so the engine also works on near-planar inputs), and
    augment with a third root path when two do not suffice — exactly
    Thorup's "three shortest root paths" shape.  Falls back to greedy
    peeling phases if the graph refuses to split strongly.
    """

    def __init__(
        self,
        max_edge_samples: int = 64,
        num_third_candidates: int = 16,
        seed: SeedLike = 0,
    ) -> None:
        self.max_edge_samples = max_edge_samples
        self.num_third_candidates = num_third_candidates
        self._seed = seed
        self._base_seed = seed_fingerprint(seed)

    def find_separator(
        self, graph: Graph, within: Optional[AbstractSet[Vertex]] = None
    ) -> PathSeparator:
        metrics.inc("engine.calls", engine="cycle")
        universe = _universe(graph, within)
        local = _Local(_scope(graph), universe)
        rng = _component_rng(self._base_seed, "cycle", local)
        n = len(local)
        half = n / 2
        alive = bytearray(b"\x01") * n
        comp = _heavy_component(local.adj, range(n), alive, half)
        if comp is None:
            return PathSeparator()
        region = _Region(local, comp)
        tree = region.tree(_approx_center(region))

        nontree = self._nontree_edges(local, tree, comp)
        metrics.inc("engine.nontree_edges_scanned", len(nontree))
        if not nontree:
            return singleton_separator([local.verts[_centroid(region)]])
        if len(nontree) > self.max_edge_samples:
            nontree = [
                nontree[i]
                for i in sorted(rng.sample(range(len(nontree)), self.max_edge_samples))
            ]

        pairs = [(tree.path_to(u), tree.path_to(v)) for u, v in nontree]
        scores = _heaviest_after_removal(local.adj, comp, [pu + pv for pu, pv in pairs])
        best = min(range(len(pairs)), key=scores.__getitem__)
        score, paths = scores[best], list(pairs[best])
        if score <= half:
            return PathSeparator(phases=[SeparatorPhase(paths=self._paths(local, paths))])

        # Third root path: aim into the largest remaining component.
        for path in paths:
            for v in path:
                alive[v] = 0
        rest = [v for v in comp if alive[v]]
        target = _heavy_component(local.adj, rest, alive, half)
        thirds = [
            tree.path_to(x)
            for x in _path_candidates(tree, set(target), self.num_third_candidates, rng)
        ]
        best3: Optional[List[int]] = None
        if thirds:
            s3 = _heaviest_after_removal(local.adj, rest, thirds)
            i3 = min(range(len(thirds)), key=s3.__getitem__)
            best3 = thirds[i3]
            if s3[i3] <= half:
                return PathSeparator(
                    phases=[SeparatorPhase(paths=self._paths(local, paths + [best3]))]
                )

        # Could not split strongly: finish with greedy-peeling phases.
        phases = [
            SeparatorPhase(paths=self._paths(local, paths + ([best3] if best3 else [])))
        ]
        residual = universe - phases[0].vertices()
        tail = GreedyPeelingEngine(seed=rng.getrandbits(32)).find_separator(
            graph, within=residual
        )
        # Rebase the tail's balance target onto the full universe.
        phases.extend(tail.phases)
        separator = PathSeparator(phases=phases)
        if separator.max_component_fraction(graph, within=universe) > 0.5:
            extra = GreedyPeelingEngine(seed=rng.getrandbits(32))
            residual2 = universe - separator.vertices()
            more = extra.find_separator(graph, within=residual2)
            separator.phases.extend(more.phases)
        return separator

    @staticmethod
    def _paths(local: _Local, paths: List[List[int]]) -> List[List[Vertex]]:
        return [local.vertices(path) for path in paths]

    @staticmethod
    def _nontree_edges(local: _Local, tree: _Tree, comp: List[int]):
        # comp is a whole component, so every neighbour is inside it.
        parent = tree.parent
        out = []
        for u in comp:
            for v in local.adj[u]:
                if v <= u or parent.get(u) == v or parent.get(v) == u:
                    continue
                out.append((u, v))
        return out


class StrongGreedyEngine(SeparatorEngine):
    """Single-phase ("strong") separators: all paths are shortest paths
    of the *original* induced graph.

    Used for the Section 5.2 experiments: on ``mesh_with_universal``
    graphs every shortest path has at most 3 vertices, so the number of
    paths this engine needs grows as Omega(sqrt(n)) — the paper's
    Theorem 6.3 lower bound made visible.
    """

    def __init__(
        self,
        num_candidates: int = 16,
        max_paths: Optional[int] = None,
        seed: SeedLike = 0,
    ) -> None:
        self.num_candidates = num_candidates
        self.max_paths = max_paths
        self._seed = seed
        self._base_seed = seed_fingerprint(seed)

    def find_separator(
        self, graph: Graph, within: Optional[AbstractSet[Vertex]] = None
    ) -> PathSeparator:
        metrics.inc("engine.calls", engine="strong")
        local = _Local(_scope(graph), _universe(graph, within))
        rng = _component_rng(self._base_seed, "strong", local)
        n = len(local)
        half = n / 2
        alive = bytearray(b"\x01") * n
        # Trees span the ORIGINAL induced graph so root paths are
        # shortest in it; only the scoring sees the removed paths.
        universe = _Region(local, list(range(n)))
        paths: List[List[Vertex]] = []
        comp = _heavy_component(local.adj, range(n), alive, half)
        while comp is not None:
            if self.max_paths is not None and len(paths) >= self.max_paths:
                raise GraphError(
                    f"StrongGreedyEngine exceeded max_paths={self.max_paths}"
                )
            tree = universe.tree(comp[rng.randrange(len(comp))])
            candidates = _path_candidates(tree, set(comp), self.num_candidates, rng)
            metrics.inc("engine.candidates_evaluated", len(candidates))
            cand_paths = [tree.path_to(x) for x in candidates]
            residual = [v for v in range(n) if alive[v]]
            scores = _heaviest_after_removal(local.adj, residual, cand_paths)
            best = cand_paths[_first_best(scores, cand_paths)]
            paths.append(local.vertices(best))
            for v in best:
                alive[v] = 0
            comp = _heavy_component(local.adj, comp, alive, half)
        if not paths:
            return PathSeparator()
        return PathSeparator(phases=[SeparatorPhase(paths=paths)])


def auto_engine(
    graph: Graph,
    treewidth_threshold: int = 6,
    seed: SeedLike = 0,
) -> SeparatorEngine:
    """Pick a sensible engine for *graph*.

    Forests get the centroid engine; graphs whose min-degree heuristic
    width is small get center bags (strong separators of at most
    width+1 single-vertex paths); everything else gets greedy peeling.
    """
    n, m = graph.num_vertices, graph.num_edges
    if m <= max(0, n - 1):
        comps = connected_components(graph)
        if sum(len(c) for c in comps) - len(comps) == m:
            return TreeCentroidEngine()
    if min_degree_width(graph) <= treewidth_threshold:
        return CenterBagEngine(order="min_degree")
    return GreedyPeelingEngine(seed=seed)

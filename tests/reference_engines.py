"""Reference separator engines: the pure-Python, Graph-based originals.

The production engines in :mod:`repro.core.engines` score candidate
paths with one flood fill plus a union-find per candidate, eliminate
center-bag decompositions on integer adjacency, and run large Dijkstra
trees on scipy.  The classes here are the straightforward versions
they replaced: one :func:`connected_components` walk per candidate, a
rebuilt induced :class:`Graph` per component, the dict elimination
heuristics, and :func:`dijkstra_tree` everywhere.  They are kept as the
test oracle: every production engine must return the same phases and
paths as its twin here, and a ``build_decomposition`` with either must
list the same nodes in the same order (``tests/core/test_engine_differential.py``).
The planar engine's twin shares its candidate generation
(:func:`~repro.planar.lipton_tarjan.cycle_candidates`) and differs only
in how it scores them.

:func:`use_reference_engines` swaps them into the CLI's engine table,
so a CLI build can be ``cmp``'d against a reference build.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from typing import AbstractSet, Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.separator import PathSeparator, SeparatorPhase, singleton_separator
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.ops import induced_subgraph
from repro.graphs.shortest_paths import ShortestPathTree, dijkstra_tree
from repro.treedecomp.decomposition import TreeDecomposition
from repro.util.errors import GraphError
from repro.util.rng import SeedLike, derive_seed, ensure_rng, seed_fingerprint

Vertex = Hashable


def _stable_key(v) -> str:
    return f"{type(v).__name__}:{v!r}"


def _component_fingerprint(universe: AbstractSet[Vertex]) -> str:
    digest = hashlib.sha256()
    for key in sorted(_stable_key(v) for v in universe):
        digest.update(key.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _component_rng(base_seed: int, engine: str, universe: AbstractSet[Vertex]):
    return ensure_rng(
        derive_seed(base_seed, "engine", engine, _component_fingerprint(universe))
    )


def _universe(graph: Graph, within: Optional[AbstractSet[Vertex]]) -> Set[Vertex]:
    if within is None:
        return set(graph.vertices())
    return {v for v in within if v in graph}


def approx_center(graph: Graph, comp: AbstractSet[Vertex]) -> Vertex:
    start = min(comp, key=_stable_key)
    if len(comp) == 1:
        return start
    tree0 = dijkstra_tree(graph, start, allowed=comp)
    a = max(tree0.dist, key=lambda v: (tree0.dist[v], _stable_key(v)))
    tree_a = dijkstra_tree(graph, a, allowed=comp)
    b = max(tree_a.dist, key=lambda v: (tree_a.dist[v], _stable_key(v)))
    diam_path = tree_a.path_to(b)
    half = tree_a.dist[b] / 2
    for v in diam_path:
        if tree_a.dist[v] >= half:
            return v
    return diam_path[-1]


def _largest_within(graph: Graph, vertices: Set[Vertex]) -> int:
    comps = connected_components(graph, within=vertices)
    return len(comps[0]) if comps else 0


def _path_candidates(
    tree: ShortestPathTree,
    comp: AbstractSet[Vertex],
    num_candidates: int,
    rng,
) -> List[Vertex]:
    reachable = [v for v in tree.dist if v in comp]
    if not reachable:
        return []
    picks: List[Vertex] = []
    seen: Set[Vertex] = set()

    def take(v: Vertex) -> None:
        if v not in seen:
            seen.add(v)
            picks.append(v)

    take(max(reachable, key=lambda v: (tree.dist[v], _stable_key(v))))
    leaves = [v for v in reachable if not tree.children.get(v)]
    leaves.sort(key=lambda v: (-tree.dist[v], _stable_key(v)))
    for v in leaves[: max(1, num_candidates // 2)]:
        take(v)
    pool = sorted(reachable, key=_stable_key)
    while len(picks) < num_candidates and len(seen) < len(reachable):
        take(pool[rng.randrange(len(pool))])
    return picks[:num_candidates]


# ----------------------------------------------------------------------
# Dict elimination heuristics (the originals of repro.treedecomp.heuristics)
# ----------------------------------------------------------------------


def min_degree_order(graph: Graph) -> List[Vertex]:
    adj: Dict[Vertex, Set[Vertex]] = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    heap = [(len(nbrs), _stable_key(v), v) for v, nbrs in adj.items()]
    heapq.heapify(heap)
    order: List[Vertex] = []
    eliminated: Set[Vertex] = set()
    while heap:
        deg, _, v = heapq.heappop(heap)
        if v in eliminated or deg != len(adj[v]):
            if v not in eliminated:
                heapq.heappush(heap, (len(adj[v]), _stable_key(v), v))
            continue
        order.append(v)
        eliminated.add(v)
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
        nbr_list = list(nbrs)
        for i, a in enumerate(nbr_list):
            for b in nbr_list[i + 1 :]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
        for u in nbrs:
            heapq.heappush(heap, (len(adj[u]), _stable_key(u), u))
    return order


def min_fill_order(graph: Graph) -> List[Vertex]:
    adj: Dict[Vertex, Set[Vertex]] = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    order: List[Vertex] = []
    remaining = set(adj)
    while remaining:
        best_v = None
        best_fill = None
        for v in remaining:
            nbrs = adj[v]
            fill = 0
            nbr_list = list(nbrs)
            for i, a in enumerate(nbr_list):
                for b in nbr_list[i + 1 :]:
                    if b not in adj[a]:
                        fill += 1
            key = (fill, _stable_key(v))
            if best_fill is None or key < best_fill:
                best_fill = key
                best_v = v
        v = best_v
        order.append(v)
        remaining.discard(v)
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
        nbr_list = list(nbrs)
        for i, a in enumerate(nbr_list):
            for b in nbr_list[i + 1 :]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
    return order


def mcs_order(graph: Graph) -> List[Vertex]:
    weights: Dict[Vertex, int] = {v: 0 for v in graph.vertices()}
    visited: Set[Vertex] = set()
    visit_order: List[Vertex] = []
    heap = [(0, _stable_key(v), v) for v in graph.vertices()]
    heapq.heapify(heap)
    while heap:
        neg_w, _, v = heapq.heappop(heap)
        if v in visited or -neg_w != weights[v]:
            continue
        visited.add(v)
        visit_order.append(v)
        for u in graph.neighbors(v):
            if u not in visited:
                weights[u] += 1
                heapq.heappush(heap, (-weights[u], _stable_key(u), u))
    return list(reversed(visit_order))


def decomposition_from_elimination(
    graph: Graph, order: Sequence[Vertex]
) -> TreeDecomposition:
    position = {v: i for i, v in enumerate(order)}
    if len(position) != graph.num_vertices:
        raise GraphError("elimination order must enumerate every vertex exactly once")
    adj: Dict[Vertex, Set[Vertex]] = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    bags: List[FrozenSet[Vertex]] = []
    bag_index: Dict[Vertex, int] = {}
    higher: Dict[Vertex, Set[Vertex]] = {}
    for v in order:
        nbrs = {u for u in adj[v] if position[u] > position[v]}
        higher[v] = nbrs
        nbr_list = list(nbrs)
        for i, a in enumerate(nbr_list):
            for b in nbr_list[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        bag_index[v] = len(bags)
        bags.append(frozenset({v} | nbrs))
    edges: List[Tuple[int, int]] = []
    for v in order:
        nbrs = higher[v]
        if nbrs:
            parent_vertex = min(nbrs, key=position.__getitem__)
            edges.append((bag_index[v], bag_index[parent_vertex]))
    return TreeDecomposition(bags, edges)


def center_bag(graph: Graph, td: TreeDecomposition, root: int = 0) -> int:
    """The original Lemma 1 walk over a :class:`TreeDecomposition`."""
    n = graph.num_vertices
    parent, order = td.rooted(root)
    assigned_weight = [0] * td.num_bags
    seen_vertices: Dict[Vertex, bool] = {}
    for b in order:
        for v in td.bags[b]:
            if v not in seen_vertices:
                seen_vertices[v] = True
                assigned_weight[b] += 1
    subtree = list(assigned_weight)
    for b in reversed(order):
        p = parent[b]
        if p is not None:
            subtree[p] += subtree[b]
    children: List[List[int]] = [[] for _ in range(td.num_bags)]
    for b, p in enumerate(parent):
        if p is not None:
            children[p].append(b)
    current = root
    while True:
        heavy = None
        for c in children[current]:
            if subtree[c] > n / 2:
                heavy = c
                break
        if heavy is None:
            return current
        current = heavy


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


class TreeCentroidEngine:
    def find_separator(self, graph, within=None) -> PathSeparator:
        universe = _universe(graph, within)
        if not universe:
            return PathSeparator()
        comps = connected_components(graph, within=universe)
        comp = comps[0]
        if len(comp) <= len(universe) / 2:
            return PathSeparator()
        edge_count = sum(
            1
            for u in comp
            for v in graph.neighbors(u)
            if v in comp and _stable_key(u) < _stable_key(v)
        )
        if edge_count != len(comp) - 1:
            raise GraphError("TreeCentroidEngine requires an acyclic (sub)graph")
        return singleton_separator([self._centroid(graph, comp)])

    @staticmethod
    def _centroid(graph: Graph, comp: AbstractSet[Vertex]) -> Vertex:
        root = min(comp, key=_stable_key)
        tree = dijkstra_tree(graph, root, allowed=comp)
        sizes = tree.subtree_sizes()
        total = len(comp)
        v = root
        while True:
            heavy = None
            for c in tree.children.get(v, ()):
                if sizes[c] > total / 2:
                    heavy = c
                    break
            if heavy is None:
                return v
            v = heavy


class CenterBagEngine:
    _ORDERS = {
        "min_degree": min_degree_order,
        "min_fill": min_fill_order,
        "mcs": mcs_order,
    }

    def __init__(self, order: str = "min_degree") -> None:
        self._order_fn = self._ORDERS[order]

    def find_separator(self, graph, within=None) -> PathSeparator:
        universe = _universe(graph, within)
        if not universe:
            return PathSeparator()
        comps = connected_components(graph, within=universe)
        comp = comps[0]
        if len(comp) <= len(universe) / 2:
            return PathSeparator()
        sub = induced_subgraph(graph, comp)
        td = decomposition_from_elimination(sub, self._order_fn(sub))
        bag = td.bags[center_bag(sub, td)]
        return singleton_separator(sorted(bag, key=_stable_key))


class GreedyPeelingEngine:
    def __init__(
        self,
        num_candidates: int = 16,
        max_paths: Optional[int] = None,
        seed: SeedLike = 0,
        vertex_weight: Optional[dict] = None,
    ) -> None:
        self.num_candidates = num_candidates
        self.max_paths = max_paths
        self._base_seed = seed_fingerprint(seed)
        self.vertex_weight = vertex_weight

    def _measure(self, vertices) -> float:
        if self.vertex_weight is None:
            return len(vertices)
        weight = self.vertex_weight
        return math.fsum(weight.get(v, 0.0) for v in vertices)

    def find_separator(self, graph, within=None) -> PathSeparator:
        universe = _universe(graph, within)
        rng = _component_rng(self._base_seed, "greedy", universe)
        half = self._measure(universe) / 2
        phases: List[SeparatorPhase] = []
        residual = set(universe)
        while True:
            comps = connected_components(graph, within=residual)
            if not comps:
                break
            comp = max(comps, key=self._measure)
            if self._measure(comp) <= half:
                break
            if self.max_paths is not None and len(phases) >= self.max_paths:
                raise GraphError(
                    f"GreedyPeelingEngine exceeded max_paths={self.max_paths}"
                )
            path = self._best_peel(graph, comp, rng)
            phases.append(SeparatorPhase(paths=[path]))
            residual -= set(path)
        return PathSeparator(phases=phases)

    def _best_peel(self, graph, comp, rng) -> List[Vertex]:
        root = approx_center(graph, comp)
        tree = dijkstra_tree(graph, root, allowed=comp)
        candidates = _path_candidates(tree, comp, self.num_candidates, rng)
        best_path = None
        best_score = None
        for x in candidates:
            path = tree.path_to(x)
            rest = comp - set(path)
            rest_comps = connected_components(graph, within=rest)
            heaviest = max((self._measure(c) for c in rest_comps), default=0.0)
            score = (heaviest, len(path))
            if best_score is None or score < best_score:
                best_score = score
                best_path = path
        return best_path


class FundamentalCycleEngine:
    def __init__(
        self,
        max_edge_samples: int = 64,
        num_third_candidates: int = 16,
        seed: SeedLike = 0,
    ) -> None:
        self.max_edge_samples = max_edge_samples
        self.num_third_candidates = num_third_candidates
        self._base_seed = seed_fingerprint(seed)

    def find_separator(self, graph, within=None) -> PathSeparator:
        universe = _universe(graph, within)
        rng = _component_rng(self._base_seed, "cycle", universe)
        half = len(universe) / 2
        comps = connected_components(graph, within=universe)
        if not comps or len(comps[0]) <= half:
            return PathSeparator()
        comp = comps[0]
        root = approx_center(graph, comp)
        tree = dijkstra_tree(graph, root, allowed=comp)

        nontree = self._nontree_edges(graph, tree, comp)
        if not nontree:
            return singleton_separator([TreeCentroidEngine._centroid(graph, comp)])
        if len(nontree) > self.max_edge_samples:
            nontree = [
                nontree[i]
                for i in sorted(rng.sample(range(len(nontree)), self.max_edge_samples))
            ]

        best = None
        for u, v in nontree:
            pu, pv = tree.path_to(u), tree.path_to(v)
            rest = comp - set(pu) - set(pv)
            score = _largest_within(graph, rest)
            if best is None or score < best[0]:
                best = (score, [pu, pv])
        score, paths = best
        if score <= half:
            return PathSeparator(phases=[SeparatorPhase(paths=paths)])

        removed = set().union(*(set(p) for p in paths))
        sub_comps = connected_components(graph, within=comp - removed)
        target = sub_comps[0]
        sub_tree_candidates = _path_candidates(
            tree, target, self.num_third_candidates, rng
        )
        best3 = None
        for x in sub_tree_candidates:
            p3 = tree.path_to(x)
            rest = comp - removed - set(p3)
            s3 = _largest_within(graph, rest)
            if best3 is None or s3 < best3[0]:
                best3 = (s3, p3)
        if best3 is not None and best3[0] <= half:
            return PathSeparator(phases=[SeparatorPhase(paths=paths + [best3[1]])])

        phases = [SeparatorPhase(paths=paths + ([best3[1]] if best3 else []))]
        residual = universe - set().union(*(set(p) for p in phases[0].paths))
        tail = GreedyPeelingEngine(seed=rng.getrandbits(32)).find_separator(
            graph, within=residual
        )
        phases.extend(tail.phases)
        separator = PathSeparator(phases=phases)
        if separator.max_component_fraction(graph, within=universe) > 0.5:
            extra = GreedyPeelingEngine(seed=rng.getrandbits(32))
            residual2 = universe - separator.vertices()
            more = extra.find_separator(graph, within=residual2)
            separator.phases.extend(more.phases)
        return separator

    @staticmethod
    def _nontree_edges(graph, tree, comp):
        out = []
        for u in sorted(comp, key=_stable_key):
            for v in graph.neighbors(u):
                if v not in comp or _stable_key(v) <= _stable_key(u):
                    continue
                if tree.parent.get(u) == v or tree.parent.get(v) == u:
                    continue
                out.append((u, v))
        return out


class StrongGreedyEngine:
    def __init__(
        self,
        num_candidates: int = 16,
        max_paths: Optional[int] = None,
        seed: SeedLike = 0,
    ) -> None:
        self.num_candidates = num_candidates
        self.max_paths = max_paths
        self._base_seed = seed_fingerprint(seed)

    def find_separator(self, graph, within=None) -> PathSeparator:
        universe = _universe(graph, within)
        rng = _component_rng(self._base_seed, "strong", universe)
        half = len(universe) / 2
        paths: List[List[Vertex]] = []
        removed: Set[Vertex] = set()
        while True:
            comps = connected_components(graph, within=universe - removed)
            if not comps or len(comps[0]) <= half:
                break
            if self.max_paths is not None and len(paths) >= self.max_paths:
                raise GraphError(f"StrongGreedyEngine exceeded max_paths={self.max_paths}")
            comp = comps[0]
            pool = sorted(comp, key=_stable_key)
            root = pool[rng.randrange(len(pool))]
            tree = dijkstra_tree(graph, root, allowed=universe)
            candidates = _path_candidates(tree, comp, self.num_candidates, rng)
            best_path = None
            best_score = None
            for x in candidates:
                path = tree.path_to(x)
                rest = universe - removed - set(path)
                score = (_largest_within(graph, rest), len(path))
                if best_score is None or score < best_score:
                    best_score = score
                    best_path = path
            paths.append(best_path)
            removed.update(best_path)
        if not paths:
            return PathSeparator()
        return PathSeparator(phases=[SeparatorPhase(paths=paths)])


def balanced_fundamental_cycle(graph, within=None, top_candidates: int = 12):
    """:func:`repro.planar.lipton_tarjan.balanced_fundamental_cycle`
    with its candidates re-scored by one flood fill each."""
    from repro.planar.lipton_tarjan import cycle_candidates

    edges, comp, tree = cycle_candidates(graph, within, top_candidates)
    best_paths = None
    best_score = None
    for u, v in edges:
        pu, pv = tree.path_to(u), tree.path_to(v)
        score = _largest_within(graph, comp - set(pu) - set(pv))
        if best_score is None or score < best_score:
            best_score = score
            best_paths = [pu, pv]
    return best_paths


class PlanarCycleEngine:
    def __init__(self, top_candidates: int = 12, max_phases: int = 32) -> None:
        self.top_candidates = top_candidates
        self.max_phases = max_phases

    def find_separator(self, graph, within=None) -> PathSeparator:
        from repro.planar.rotation import NotPlanarError

        universe = _universe(graph, within)
        if not universe:
            return PathSeparator()
        half = len(universe) / 2
        phases: List[SeparatorPhase] = []
        residual = set(universe)
        while True:
            comps = connected_components(graph, within=residual)
            if not comps or len(comps[0]) <= half:
                break
            comp = comps[0]
            try:
                paths = balanced_fundamental_cycle(
                    graph, within=comp, top_candidates=self.top_candidates
                )
            except GraphError as exc:
                if isinstance(exc, NotPlanarError):
                    raise
                paths = [[TreeCentroidEngine._centroid(graph, comp)]]
            phases.append(SeparatorPhase(paths=paths))
            for path in paths:
                residual -= set(path)
        return PathSeparator(phases=phases)


def auto_engine(graph: Graph, treewidth_threshold: int = 6, seed: SeedLike = 0):
    """The reference twin of :func:`repro.core.engines.auto_engine`."""
    n, m = graph.num_vertices, graph.num_edges
    if m <= max(0, n - 1):
        comps = connected_components(graph)
        if sum(len(c) for c in comps) - len(comps) == m:
            return TreeCentroidEngine()
    width = decomposition_from_elimination(graph, min_degree_order(graph)).width
    if width <= treewidth_threshold:
        return CenterBagEngine(order="min_degree")
    return GreedyPeelingEngine(seed=seed)


def use_reference_engines() -> None:
    """Point the CLI's ``--engine`` table at the reference engines."""
    from repro import cli

    cli.ENGINES.update(
        {
            "auto": lambda g, seed: auto_engine(g, seed=seed),
            "greedy": lambda g, seed: GreedyPeelingEngine(seed=seed),
            "centerbag": lambda g, seed: CenterBagEngine(order="min_degree"),
            "centroid": lambda g, seed: TreeCentroidEngine(),
            "strong": lambda g, seed: StrongGreedyEngine(seed=seed),
            "planar": lambda g, seed: PlanarCycleEngine(),
        }
    )

"""The decomposition tree of Section 4.

``T`` is a rooted tree whose root is G; the children of a node H are
the connected components of ``H \\ S(H)`` where S(H) is H's k-path
separator.  Because every component has at most |H|/2 vertices, the
depth is at most ``log2 n`` — the fact every object-location bound in
the paper rests on.

Every vertex of G is removed by exactly one separator, at exactly one
node: its *home*.  The home map, the per-node phase residuals, and the
per-path prefix (cumulative distance along each separator path) are
the data the labeling scheme (Theorem 2), the routing scheme, and the
small-world augmentation all consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.engines import SeparatorEngine, auto_engine, build_scope
from repro.core.separator import PathSeparator
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.validation import require_connected
from repro.obs import metrics, span
from repro.util.errors import InvalidDecompositionError

Vertex = Hashable

# A vertex's home: (node_id, phase_index, path_index, position on path).
Home = Tuple[int, int, int, int]
# Key identifying one separator path globally.
PathKey = Tuple[int, int, int]


@dataclass
class DecompositionNode:
    """One node H of the decomposition tree."""

    node_id: int
    vertices: FrozenSet[Vertex]
    separator: PathSeparator
    parent: Optional[int]
    depth: int
    children: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.vertices)

    def residual_sets(self) -> Iterator[Tuple[int, Set[Vertex]]]:
        """Yield ``(phase_index, J)`` where J = H minus earlier phases —
        the graph each phase's paths are shortest paths of."""
        residual = set(self.vertices)
        for i, phase in enumerate(self.separator.phases):
            yield i, residual
            residual = residual - phase.vertices()


class DecompositionTree:
    """The full recursive decomposition of a connected graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.nodes: List[DecompositionNode] = []
        self.home: Dict[Vertex, Home] = {}
        self._prefix: Dict[PathKey, List[float]] = {}
        self._phase_units: Optional[
            List[Tuple[int, int, FrozenSet[Vertex]]]
        ] = None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        return max((node.depth for node in self.nodes), default=0)

    @property
    def max_paths_per_node(self) -> int:
        """The empirical k: the largest number of separator paths any
        single node needed (property (P2)'s measured quantity)."""
        return max((node.separator.num_paths for node in self.nodes), default=0)

    def root(self) -> DecompositionNode:
        return self.nodes[0]

    def node_path(self, node_id: int) -> List[int]:
        """Node ids from the root down to *node_id* inclusive."""
        chain: List[int] = []
        current: Optional[int] = node_id
        while current is not None:
            chain.append(current)
            current = self.nodes[current].parent
        chain.reverse()
        return chain

    def root_path(self, v: Vertex) -> List[int]:
        """The paper's H_1(v), ..., H_r(v): every node containing v,
        root-down, ending at v's home node."""
        return self.node_path(self.home[v][0])

    def path_vertices(self, key: PathKey) -> List[Vertex]:
        node_id, phase_idx, path_idx = key
        return self.nodes[node_id].separator.phases[phase_idx].paths[path_idx]

    def path_prefix(self, key: PathKey) -> List[float]:
        """Cumulative distance along a separator path (prefix[0] = 0).

        ``|prefix[i] - prefix[j]|`` is the distance between path
        positions i and j *along the path*, which upper-bounds (and for
        a shortest path of the residual equals) their residual
        distance.
        """
        return self._prefix[key]

    def recompute_prefix(self, key: PathKey) -> List[float]:
        """Rebuild one path's prefix sums from the graph's *current*
        weights, replacing the cached value.

        The dynamic-update path (:mod:`repro.dynamic`) reweights edges
        of ``self.graph`` in place while holding the tree structure
        fixed; any path on which the edge's endpoints are consecutive
        reads that weight in its prefix and must be refreshed before
        labels are recomputed.
        """
        path = self.path_vertices(key)
        prefix = [0.0]
        for u, v in zip(path, path[1:]):
            prefix.append(prefix[-1] + self.graph.weight(u, v))
        self._prefix[key] = prefix
        return prefix

    def all_path_keys(self) -> Iterator[PathKey]:
        for node in self.nodes:
            for i, phase in enumerate(node.separator.phases):
                for j in range(len(phase.paths)):
                    yield (node.node_id, i, j)

    def phase_units(self) -> List[Tuple[int, int, FrozenSet[Vertex]]]:
        """Every ``(node_id, phase_index, residual)`` of the tree, in
        deterministic (node, phase) order.

        One unit is the batch granule of label construction: the
        vertices that need portal entries for a unit are exactly its
        residual's members, and all their per-path distances come from
        one multi-source Dijkstra pass
        (:func:`~repro.core.flat_build.flat_unit_entries`).  Cached after the
        first call — forked labeling workers inherit the cache instead
        of recomputing it.
        """
        units = self._phase_units
        if units is None:
            units = [
                (node.node_id, phase_idx, frozenset(residual))
                for node in self.nodes
                for phase_idx, residual in node.residual_sets()
            ]
            self._phase_units = units
        return units

    def stats(self) -> Dict[str, float]:
        """Summary statistics used by experiment E1/E2 tables."""
        n = self.graph.num_vertices
        return {
            "n": n,
            "nodes": self.num_nodes,
            "depth": self.depth,
            "log2_n": math.log2(n) if n else 0.0,
            "max_paths_per_node": self.max_paths_per_node,
            "mean_paths_per_node": (
                sum(nd.separator.num_paths for nd in self.nodes) / self.num_nodes
                if self.nodes
                else 0.0
            ),
            "max_phases_per_node": max(
                (nd.separator.num_phases for nd in self.nodes), default=0
            ),
            "strong_fraction": (
                sum(1 for nd in self.nodes if nd.separator.is_strong) / self.num_nodes
                if self.nodes
                else 0.0
            ),
        }

    def to_dot(self, max_label_vertices: int = 4) -> str:
        """Graphviz DOT rendering of the decomposition tree.

        Each node shows its size and separator shape; handy for
        inspecting how an engine splits a graph
        (``dot -Tsvg tree.dot > tree.svg``).
        """
        lines = ["digraph decomposition {", "  node [shape=box];"]
        for node in self.nodes:
            sep = node.separator
            preview = ", ".join(
                repr(v) for v in list(sep.vertices())[:max_label_vertices]
            )
            if len(sep.vertices()) > max_label_vertices:
                preview += ", ..."
            label = (
                f"H{node.node_id}: |H|={node.size}\\n"
                f"{sep.num_paths} paths / {sep.num_phases} phases\\n"
                f"sep: {preview}"
            )
            label = label.replace('"', "'")
            lines.append(f'  n{node.node_id} [label="{label}"];')
            for child in node.children:
                lines.append(f"  n{node.node_id} -> n{child};")
        lines.append("}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def validate(self, check_shortest: bool = True) -> None:
        """Re-verify the whole decomposition against the graph.

        Checks: every vertex has exactly one home; children of each node
        are exactly the components of ``H \\ S(H)`` and none exceeds
        |H|/2; depth <= log2(n) + 1; and optionally each separator's
        (P1) via :meth:`PathSeparator.validate`.
        """
        seen: Set[Vertex] = set()
        for node in self.nodes:
            sep_vertices = node.separator.vertices()
            overlap = sep_vertices & seen
            if overlap:
                raise InvalidDecompositionError(
                    f"vertex {next(iter(overlap))!r} removed by two separators"
                )
            seen.update(sep_vertices)
            if check_shortest:
                node.separator.validate(self.graph, within=node.vertices)
            remaining = set(node.vertices) - sep_vertices
            comps = connected_components(self.graph, within=remaining)
            child_sets = [frozenset(c) for c in comps]
            actual_children = [
                frozenset(self.nodes[c].vertices) for c in node.children
            ]
            if sorted(child_sets, key=sorted_key) != sorted(
                actual_children, key=sorted_key
            ):
                raise InvalidDecompositionError(
                    f"children of node {node.node_id} do not match the components "
                    f"of H minus its separator"
                )
            for child in child_sets:
                if len(child) > node.size / 2:
                    raise InvalidDecompositionError(
                        f"child of node {node.node_id} has {len(child)} vertices, "
                        f"more than half of {node.size}"
                    )
        if seen != set(self.graph.vertices()):
            raise InvalidDecompositionError("some vertices were never removed")
        n = self.graph.num_vertices
        if n and self.depth > math.log2(n) + 1:
            raise InvalidDecompositionError(
                f"depth {self.depth} exceeds log2({n}) + 1"
            )


def sorted_key(fs: FrozenSet) -> str:
    return repr(sorted(fs, key=repr))


def build_decomposition(
    graph: Graph,
    engine: Optional[SeparatorEngine] = None,
    validate: bool = False,
) -> DecompositionTree:
    """Build the decomposition tree of a connected weighted graph.

    Parameters
    ----------
    engine:
        The separator engine; ``auto_engine(graph)`` when omitted.
    validate:
        Re-verify every separator and the tree structure (slow; meant
        for tests).
    """
    require_connected(graph)
    if engine is None:
        engine = auto_engine(graph)
    tree = DecompositionTree(graph)
    if graph.num_vertices == 0:
        return tree

    with span(
        "decomposition.build",
        n=graph.num_vertices,
        engine=type(engine).__name__,
    ), build_scope(graph):
        pending: List[Tuple[FrozenSet[Vertex], Optional[int], int]] = [
            (frozenset(graph.vertices()), None, 0)
        ]
        while pending:
            vertices, parent, depth = pending.pop()
            separator = engine.find_separator(graph, within=vertices)
            sep_vertices = separator.vertices()
            if not sep_vertices:
                raise InvalidDecompositionError(
                    "engine returned an empty separator for a non-empty component"
                )
            node = DecompositionNode(
                node_id=len(tree.nodes),
                vertices=vertices,
                separator=separator,
                parent=parent,
                depth=depth,
            )
            tree.nodes.append(node)
            if parent is not None:
                tree.nodes[parent].children.append(node.node_id)
            if metrics.enabled:
                metrics.inc("decomposition.nodes")
                metrics.inc("decomposition.level.nodes", level=depth)
                metrics.inc("separator.paths_peeled", separator.num_paths)
                metrics.inc(
                    "decomposition.level.separator_vertices",
                    len(sep_vertices),
                    level=depth,
                )
                metrics.observe("decomposition.node_size", node.size)
                metrics.observe("separator.paths_per_node", separator.num_paths)

            for i, phase in enumerate(separator.phases):
                for j, path in enumerate(phase.paths):
                    key = (node.node_id, i, j)
                    prefix = [0.0]
                    for u, v in zip(path, path[1:]):
                        prefix.append(prefix[-1] + graph.weight(u, v))
                    tree._prefix[key] = prefix
                    for pos, v in enumerate(path):
                        # A vertex may appear on two paths of one phase
                        # ("two paths in the same P_i may intersect"); its
                        # home is the first occurrence.
                        if v not in tree.home:
                            tree.home[v] = (node.node_id, i, j, pos)

            remaining = set(vertices) - sep_vertices
            for comp in connected_components(graph, within=remaining):
                pending.append((frozenset(comp), node.node_id, depth + 1))

        metrics.gauge("decomposition.levels", tree.depth + 1)
        metrics.gauge("decomposition.max_paths_per_node", tree.max_paths_per_node)

    if validate:
        tree.validate()
    return tree

"""Which labels can an edge update touch?  The affected-unit set.

Label construction is organized in ``(node, phase)`` *units*: the
portal entries written for unit ``(H, i)`` are a function of (a) the
residual ``J = J_i(H)``, (b) the weights of edges with **both**
endpoints in J (those are the only edges ``batched_dijkstra`` relaxes
when restricted to J), and (c) the prefix sums of phase i's separator
paths (only consecutive path edges contribute).  Reweighting edge
``{u, v}`` therefore leaves a unit's output untouched unless both u
and v lie in its residual.

Soundness argument, spelled out:

* If ``u not in J`` or ``v not in J`` then no relaxation inside J ever
  reads ``w(u, v)``, so every ``d_J(x, .)`` row is unchanged.  The
  prefix of a path of the unit can only change if u, v are consecutive
  on it — but path vertices are members of J (paths are peeled from
  the residual), so that case implies both endpoints are in J.
* Hence the labels that can change are exactly those written by units
  whose residual contains both endpoints, and the vertex set whose
  labels can change is the union of those residuals.

Minimality of the *unit* set is structural, not per-instance: a unit
whose residual contains both endpoints genuinely depends on the
updated weight (a different weight can change its output), even though
for a particular update the recomputation may reproduce identical
entries — the rebuild diff (:mod:`repro.dynamic.rebuild`) filters
those no-ops out of the delta.

Shape of the set: the nodes containing any fixed vertex form a
root-down chain of the decomposition tree (children partition
``H \\ S(H)``), so nodes containing *both* endpoints form a prefix of
both chains — we walk it directly instead of scanning every unit.
``affected_units_bruteforce`` is the definitional full scan kept for
the differential soundness tests.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List, Set, Tuple

from repro.core.decomposition import DecompositionTree, PathKey
from repro.util.errors import GraphError

Vertex = Hashable

# One affected unit: (node_id, phase_index, residual).
AffectedUnit = Tuple[int, int, FrozenSet[Vertex]]


def affected_units(
    tree: DecompositionTree, u: Vertex, v: Vertex
) -> List[AffectedUnit]:
    """Units whose output can depend on the weight of edge ``{u, v}``.

    Returned in global unit order (the order ``tree.phase_units()``
    yields them), which is the order the offline build writes them —
    the rebuild relies on this for byte-identical output.
    """
    if u == v:
        raise GraphError("edge endpoints must differ")
    if u not in tree.home or v not in tree.home:
        missing = u if u not in tree.home else v
        raise GraphError(f"vertex {missing!r} is not in the decomposition tree")
    out: List[AffectedUnit] = []
    if not tree.nodes:
        return out
    node = tree.root()
    while True:
        # Node ids increase along any root-down chain, and phase_units()
        # lists phases of a node in ascending order, so appending along
        # the walk yields global unit order.
        for phase_idx, residual in node.residual_sets():
            if u in residual and v in residual:
                out.append((node.node_id, phase_idx, frozenset(residual)))
        next_node = None
        for child_id in node.children:
            child = tree.nodes[child_id]
            if u in child.vertices and v in child.vertices:
                next_node = child
                break
        if next_node is None:
            return out
        node = next_node


def affected_units_bruteforce(
    tree: DecompositionTree, u: Vertex, v: Vertex
) -> List[AffectedUnit]:
    """The definitional scan: every unit whose residual holds both
    endpoints, straight from ``tree.phase_units()``.  Used by the
    differential tests that pin :func:`affected_units` to the
    definition; O(total residual size) instead of O(chain)."""
    if u == v:
        raise GraphError("edge endpoints must differ")
    return [
        (node_id, phase_idx, residual)
        for node_id, phase_idx, residual in tree.phase_units()
        if u in residual and v in residual
    ]


def affected_vertices(
    tree: DecompositionTree, u: Vertex, v: Vertex
) -> Set[Vertex]:
    """Vertices whose labels can change when edge ``{u, v}`` is
    reweighted: the union of the affected units' residuals."""
    out: Set[Vertex] = set()
    for _, _, residual in affected_units(tree, u, v):
        out.update(residual)
    return out


def touched_path_keys(
    tree: DecompositionTree, u: Vertex, v: Vertex
) -> List[PathKey]:
    """Separator paths on which u and v are *consecutive* — the paths
    whose prefix sums read ``w(u, v)`` and must be recomputed.

    Any such path belongs to an affected unit: path vertices are
    members of the residual they were peeled from, so a path containing
    both endpoints certifies both are in that unit's residual.  Only
    the affected units' phases are scanned (:func:`units_path_keys`),
    in global unit order, so keys come out in the same order a scan of
    every path would give.
    """
    return units_path_keys(tree, affected_units(tree, u, v), u, v)


def units_path_keys(
    tree: DecompositionTree, units: List[AffectedUnit], u: Vertex, v: Vertex
) -> List[PathKey]:
    """The keys of the paths of *units*' phases on which u and v are
    consecutive, in unit order: :func:`touched_path_keys` for a caller
    that holds ``affected_units(tree, u, v)`` already."""
    out: List[PathKey] = []
    for node_id, phase_idx, _ in units:
        phase = tree.nodes[node_id].separator.phases[phase_idx]
        for path_idx, path in enumerate(phase.paths):
            for a, b in zip(path, path[1:]):
                if (a == u and b == v) or (a == v and b == u):
                    out.append((node_id, phase_idx, path_idx))
                    break
    return out

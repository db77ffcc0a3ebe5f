"""Flat-array construction kernels: CSR adjacency and the units that
build the labels.

* :class:`CSRGraph` — compressed-sparse-row adjacency.  Indexing goes
  through :func:`~repro.core.serialize.canonical_vertex`, so ``1`` and
  ``1.0`` resolve to one index, like the shard router and the binary
  vertex codec.
* :func:`flat_unit_entries` — one (node, phase) unit of construction:
  an induced sub-CSR, one multi-source C Dijkstra pass and a vectorized
  epsilon-cover scan, emitting arrays; :func:`assemble_labels` merges
  every unit's arrays into :class:`~repro.core.flat.FlatLabel` labels.
* :func:`flat_unit_rows` — one unit's separator distances as
  ``array('d')`` rows (:class:`UnitRows`), the form the incremental
  relabeler caches and folds reweights into.

numpy and scipy are hard imports here, so a build never runs without
them and pays no import per call; the label core it builds into
(:mod:`repro.core.flat`) needs numpy only, which keeps scipy out of the
serving side.

Equivalence contract (``tests/core/test_flat_differential.py`` and the
property suite): these kernels produce the *bit-identical* labeling as
the dict reference build (``tests/reference_labeling.py``).  Both
compute the same float expressions in the same order: Dijkstra
distances are the unique float fixed point of ``d[v] = min_u fl(d[u] +
w(u, v))`` for positive weights regardless of settling order, and the
cover scan replicates the reference arithmetic operation for operation.
Units whose residual is below :data:`SMALL_RESIDUAL` run the reference
kernels (``batched_dijkstra``, ``epsilon_cover_portals_at``) and emit
the same arrays.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as _np
from scipy.sparse import csr_matrix as _csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.core.flat import _I32_MAX, _I32_MIN, _U16_MAX, INF, FlatLabel, PathKey
from repro.core.labeling import PortalEntry
from repro.core.portals import epsilon_cover_portals_at
from repro.core.serialize import SerializationError, canonical_vertex
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import batched_dijkstra
from repro.util.errors import GraphError

Vertex = Hashable

__all__ = [
    "CSRGraph",
    "FlatBuildContext",
    "SMALL_RESIDUAL",
    "UnitRows",
    "assemble_labels",
    "flat_cover_portals",
    "flat_unit_entries",
    "flat_unit_rows",
    "induced_csr",
]


# -- CSR adjacency --------------------------------------------------------

class CSRGraph:
    """Compressed-sparse-row view of a :class:`Graph`.

    ``verts[i]`` is the vertex object of index ``i`` (graph insertion
    order, so anything derived from CSR iteration reproduces the
    reference kernels' ordering); ``index`` maps the *canonical* form of
    each vertex back to its index.  Both directions of every undirected edge
    are stored, so ``indices[indptr[i]:indptr[i+1]]`` (with parallel
    ``weights``) is the full neighborhood of ``i``.
    """

    __slots__ = ("verts", "index", "indptr", "indices", "weights")

    def __init__(self, verts, index, indptr, indices, weights) -> None:
        self.verts = verts
        self.index = index
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        verts: List[Vertex] = list(graph.vertices())
        index: Dict[Vertex, int] = {}
        for i, v in enumerate(verts):
            key = canonical_vertex(v)
            if key in index:
                raise GraphError(
                    f"vertices {verts[index[key]]!r} and {v!r} canonicalize "
                    f"to the same key {key!r}"
                )
            index[key] = i
        n = len(verts)
        adj = graph._adj
        indptr = _np.zeros(n + 1, dtype=_np.int64)
        for i, v in enumerate(verts):
            indptr[i + 1] = indptr[i] + len(adj[v])
        num_arcs = int(indptr[-1])
        indices = _np.empty(num_arcs, dtype=_np.int64)
        weights = _np.empty(num_arcs, dtype=_np.float64)
        pos = 0
        for v in verts:
            for u, w in adj[v].items():
                indices[pos] = index[canonical_vertex(u)]
                weights[pos] = w
                pos += 1
        return cls(verts, index, indptr, indices, weights)

    @property
    def num_vertices(self) -> int:
        return len(self.verts)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def index_of(self, v: Vertex) -> int:
        """The index of *v*; ``1`` and ``1.0`` resolve identically."""
        try:
            return self.index[v]
        except KeyError:
            pass
        try:
            return self.index[canonical_vertex(v)]
        except KeyError:
            raise GraphError(f"vertex {v!r} not in graph") from None

    def vertex_of(self, i: int) -> Vertex:
        return self.verts[i]

    def __contains__(self, v: Vertex) -> bool:
        try:
            self.index_of(v)
        except GraphError:
            return False
        return True

    def neighbors(self, v: Vertex) -> List[Tuple[Vertex, float]]:
        """``(neighbor, weight)`` pairs of *v* in adjacency order."""
        i = self.index_of(v)
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        verts = self.verts
        return [
            (verts[int(self.indices[k])], float(self.weights[k]))
            for k in range(lo, hi)
        ]

    def set_weight(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Reweight the existing edge ``u -- v`` in place (both arcs).

        The incremental-relabel path keeps a long-lived CSR view in
        lock-step with the dict graph it mirrors; a reweight touches
        two arc slots instead of rebuilding the whole O(m) structure.
        Like :func:`~repro.dynamic.rebuild.incremental_relabel`, this
        is reweight-only — a missing edge is a structural change and
        raises.
        """
        iu, iv = self.index_of(u), self.index_of(v)
        w = float(weight)
        indptr, indices = self.indptr, self.indices
        for a, b in ((iu, iv), (iv, iu)):
            lo, hi = int(indptr[a]), int(indptr[a + 1])
            hit = _np.nonzero(indices[lo:hi] == b)[0]
            if hit.size == 0:
                raise GraphError(f"no edge {u!r} -- {v!r}")
            self.weights[lo + int(hit[0])] = w

    def to_graph(self) -> Graph:
        """Reconstruct a dict-backed graph (round-trip testing)."""
        g = Graph()
        for v in self.verts:
            g.add_vertex(v)
        indptr, indices, weights = self.indptr, self.indices, self.weights
        for i, v in enumerate(self.verts):
            for k in range(int(indptr[i]), int(indptr[i + 1])):
                j = int(indices[k])
                if i < j:
                    g.add_edge(v, self.verts[j], float(weights[k]))
        return g


# -- construction kernel --------------------------------------------------

#: Residuals smaller than this run the reference kernels instead
#: (``batched_dijkstra`` and ``epsilon_cover_portals_at``): the
#: outputs are identical either way, and below this size the
#: numpy/scipy per-call overhead costs more than the whole unit
#: (measured crossover ~32 on the E3/E4 graph families).
SMALL_RESIDUAL = 32


class FlatBuildContext:
    """Per-build state shared by every (node, phase) unit: the CSR view
    of the graph, the decomposition tree, and a reusable global->local
    index scratch (allocating an O(n) map per unit would make small
    units quadratic in aggregate).  Built once in the parent process
    (before any fork), so parallel workers inherit it by copy-on-write
    like the rest of the worker state."""

    __slots__ = ("graph", "csr", "tree", "_g2l")

    def __init__(self, graph: Graph, tree) -> None:
        self.graph = graph
        self.csr = CSRGraph.from_graph(graph)
        self.tree = tree
        self._g2l = _np.full(self.csr.num_vertices, -1, dtype=_np.int64)


def induced_csr(csr: CSRGraph, g2l, allowed) -> _csr_matrix:
    """The sub-CSR of *csr* induced by the global indices *allowed*:
    row and column ``i`` stand for ``allowed[i]``, and each row keeps
    its arcs in *csr*'s order.

    *g2l* is a length-n int64 scratch that is all ``-1`` on entry and
    is left that way; callers own one per build, because allocating an
    O(n) map per call would make small subsets quadratic in aggregate.
    """
    np = _np
    m = len(allowed)
    g2l[allowed] = np.arange(m, dtype=np.int64)
    try:
        starts = csr.indptr[allowed]
        counts = csr.indptr[allowed + 1] - starts
        total = int(counts.sum())
        # Gather the concatenated neighborhoods of the allowed vertices:
        # position k of the gather belongs to row `row_ids[k]` and reads
        # the row's `k - row_start`-th arc.
        row_ids = np.repeat(np.arange(m, dtype=np.int64), counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        gather = np.repeat(starts, counts) + within
        cols_local = g2l[csr.indices[gather]]
    finally:
        g2l[allowed] = -1
    keep = cols_local >= 0
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_ids[keep], minlength=m), out=indptr[1:])
    return _csr_matrix(
        (csr.weights[gather][keep], cols_local[keep], indptr), shape=(m, m)
    )


def _induced_distances(ctx: FlatBuildContext, src_idx, allowed):
    """Multi-source Dijkstra distances inside the induced subgraph.

    *allowed* is the sorted array of global vertex indices of the
    residual; *src_idx* the (deduped, phase-ordered) global indices of
    the separator-path vertices.  Returns the ``len(src_idx) x
    len(allowed)`` float64 distance matrix in local (allowed-position)
    columns — ``inf`` for unreachable, bit-identical to the pure-Python
    :func:`~repro.graphs.shortest_paths.batched_dijkstra` because
    Dijkstra's float distances are a unique fixed point under positive
    weights.
    """
    sub = induced_csr(ctx.csr, ctx._g2l, allowed)
    sources = _np.searchsorted(allowed, src_idx)
    return _csgraph_dijkstra(sub, directed=True, indices=sources)


def _cover_portals_matrix(dist_t, prefix, epsilon):
    """Epsilon-cover portal selection for every residual vertex of one
    path at once.

    *dist_t* is the ``m x L`` matrix ``d_J(v, path[idx])`` (rows =
    residual vertices in local order, columns = path positions) and
    *prefix* the path's cumulative-distance row.  This is exactly
    :func:`~repro.core.portals.epsilon_cover_portals_at` per row, with
    the outer per-vertex Python loop turned inside out: one pass over
    path *positions*, each step a vectorized update of every row's scan
    state.  The float expressions match the reference scan operation
    for operation (see the inline notes), so the chosen portals and
    their stored distances are bit-identical.

    Returns ``(chosen, any_finite)``: a boolean ``m x L`` selection
    matrix and the rows that reached the path at all.
    """
    np = _np
    m, L = dist_t.shape
    finite = np.isfinite(dist_t)
    any_finite = finite.any(axis=1)
    # closest = min(reached, key=(dist, index)): argmin takes the first
    # occurrence of the minimum, i.e. the lowest index among ties.
    closest = np.argmin(np.where(finite, dist_t, INF), axis=1)
    rows = np.arange(m)
    chosen = np.zeros((m, L), dtype=bool)
    chosen[rows[any_finite], closest[any_finite]] = True

    eps1 = 1.0 + epsilon
    for direction in (1, -1):
        cur_val = dist_t[rows, closest]
        cur_pref = prefix[closest]
        idxs = range(1, L) if direction == 1 else range(L - 2, -1, -1)
        for idx in idxs:
            dx = dist_t[:, idx]
            # Reference: via = pos_dist[current] + abs(prefix[idx] -
            # prefix[current]); chosen when via > (1 + eps) * dx.  The
            # abs() collapses to a signed difference per direction
            # (prefix is monotone), which is bit-equal because IEEE
            # negation is exact.
            if direction == 1:
                active = finite[:, idx] & (closest < idx)
                via = cur_val + (prefix[idx] - cur_pref)
            else:
                active = finite[:, idx] & (idx < closest)
                via = cur_val + (cur_pref - prefix[idx])
            trigger = active & (via > eps1 * dx)
            if trigger.any():
                chosen[trigger, idx] = True
                cur_val = np.where(trigger, dx, cur_val)
                cur_pref = np.where(trigger, prefix[idx], cur_pref)
    return chosen, any_finite


def flat_unit_entries(
    ctx: FlatBuildContext,
    node_id: int,
    phase_idx: int,
    residual,
    epsilon: float,
):
    """Label entries contributed by one (node, phase) unit, as
    ``((verts, paths, counts, pairs), num_sources)``: entry ``e`` gives
    vertex ``verts[e]`` (a CSR index) ``counts[e]`` portals on path
    ``paths[e]``, and ``pairs`` is the ``(sum(counts), 2)`` float64
    block of every entry's ``(position, distance)`` portals in entry
    order.  Each vertex's entries come in path order.  Residuals below
    :data:`SMALL_RESIDUAL` run the reference kernels: same arrays."""
    if len(residual) < SMALL_RESIDUAL:
        return _small_unit_entries(ctx, node_id, phase_idx, residual, epsilon)
    np = _np
    csr, tree = ctx.csr, ctx.tree
    phase = tree.nodes[node_id].separator.phases[phase_idx]
    index_of = csr.index_of
    _, src_idx = _unit_sources(ctx, phase, residual)
    if not src_idx:
        return _no_entries(), 0
    allowed = np.fromiter(
        map(index_of, residual), dtype=np.int64, count=len(residual)
    )
    allowed.sort()
    dist = _induced_distances(ctx, np.asarray(src_idx, dtype=np.int64), allowed)
    src_row = {g: r for r, g in enumerate(src_idx)}

    verts, paths, counts, pairs = [], [], [], []
    for path_idx, path in enumerate(phase.paths):
        path_rows = np.asarray(
            [src_row[index_of(x)] for x in path], dtype=np.int64
        )
        dist_t = np.ascontiguousarray(dist[path_rows].T)
        prefix = np.asarray(
            tree.path_prefix((node_id, phase_idx, path_idx)), dtype=np.float64
        )
        chosen, _ = _cover_portals_matrix(dist_t, prefix, epsilon)
        # Row-major: portals grouped by row, in ascending position.
        sel_rows, sel_cols = np.nonzero(chosen)
        per_row = np.bincount(sel_rows, minlength=len(allowed))
        rows = np.flatnonzero(per_row)
        verts.append(allowed[rows])
        paths.append(np.full(len(rows), path_idx, dtype=np.int64))
        counts.append(per_row[rows])
        block = np.empty((len(sel_rows), 2), dtype=np.float64)
        block[:, 0] = prefix[sel_cols]
        block[:, 1] = dist_t[sel_rows, sel_cols]
        pairs.append(block)
    return (
        np.concatenate(verts),
        np.concatenate(paths),
        np.concatenate(counts),
        np.concatenate(pairs),
    ), len(src_idx)


def _no_entries():
    np = _np
    empty = np.empty(0, dtype=np.int64)
    return empty, empty, empty, np.empty((0, 2), dtype=np.float64)


def _small_unit_entries(ctx, node_id, phase_idx, residual, epsilon):
    """:func:`flat_unit_entries` on the reference kernels: one
    ``batched_dijkstra`` pass, then the per-vertex cover scan per path.
    Such units hold 2.6 vertices on average (ktree3 n=4096), and
    building :class:`UnitRows` for them slowed that labeling by a third."""
    tree = ctx.tree
    phase = tree.nodes[node_id].separator.phases[phase_idx]
    dist_maps = batched_dijkstra(
        ctx.graph, dict.fromkeys(chain.from_iterable(phase.paths)), residual
    )
    target_idx = [ctx.csr.index_of(v) for v in residual]
    rows, pairs = [], []
    for path_idx, path in enumerate(phase.paths):
        prefix = tree.path_prefix((node_id, phase_idx, path_idx))
        maps = [dist_maps[x] for x in path]
        for i, v in zip(target_idx, residual):
            portals = epsilon_cover_portals_at(
                prefix, [m.get(v, INF) for m in maps], epsilon
            )
            if portals:
                rows.append((i, path_idx, len(portals)))
                pairs += [(prefix[j], d) for j, d in portals]
    np = _np
    verts, paths, counts = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    block = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    return (verts, paths, counts, block), len(dist_maps)


def assemble_labels(
    ctx: FlatBuildContext, produced: List[Tuple[int, tuple]]
) -> Dict[Vertex, FlatLabel]:
    """Every vertex's :class:`FlatLabel`, in graph order, from
    *produced*: ``(unit index, flat_unit_entries arrays)`` in unit
    order, emptied once merged so the arrays are freed before the
    labels are cut.  A stable sort by vertex leaves each vertex's keys
    in unit then path order, i.e. ascending key order."""
    np = _np
    tree = ctx.tree
    units = tree.phase_units()
    keys: List[PathKey] = []
    first_key: List[int] = []
    for node_id, phase_idx, _ in units:
        first_key.append(len(keys))
        num_paths = len(tree.nodes[node_id].separator.phases[phase_idx].paths)
        keys.extend((node_id, phase_idx, j) for j in range(num_paths))
    parts = [_no_entries()] + [arrays for _, arrays in produced]
    verts = np.concatenate([p[0] for p in parts])
    key_ids = np.concatenate(
        [parts[0][1]]
        + [arrays[1] + first_key[u] for u, arrays in produced]
    )
    counts = np.concatenate([p[2] for p in parts])
    pairs = np.concatenate([p[3] for p in parts])
    del parts
    produced.clear()

    fields = np.array(keys, dtype=np.int64).reshape(-1, 3)
    lows = np.array([_I32_MIN, 0, 0], dtype=np.int64)
    highs = np.array([_I32_MAX, _U16_MAX, _U16_MAX], dtype=np.int64)
    bad = np.flatnonzero(((fields < lows) | (fields > highs)).any(axis=1))
    if len(bad):
        raise SerializationError(
            f"path key {keys[int(bad[0])]!r} does not fit the key code "
            f"(i32 node, u16 phase and path)"
        )
    key_codes = fields[:, 0] << 32 | fields[:, 1] << 16 | fields[:, 2]
    order = np.argsort(verts, kind="stable")
    entry_codes = key_codes[key_ids[order]]
    sorted_counts = counts[order]
    # Portal block of entry e (original order) starts at pair_starts[e]
    # and moves to its entry's place in vertex order.
    dest = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(sorted_counts, out=dest[1:])
    pair_starts = np.cumsum(counts) - counts
    entry_dest = np.empty(len(order), dtype=np.int64)
    entry_dest[order] = dest[:-1]
    portals = np.empty_like(pairs)
    portals[
        np.repeat(entry_dest - pair_starts, counts)
        + np.arange(len(pairs), dtype=np.int64)
    ] = pairs
    del pairs, counts, pair_starts, entry_dest

    n = ctx.csr.num_vertices
    per_vertex = np.bincount(verts, minlength=n)
    del verts
    entry_bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_vertex, out=entry_bounds[1:])
    portal_bounds = dest[entry_bounds]
    rel_offs = (
        dest[:-1] - np.repeat(portal_bounds[:-1], per_vertex)
    ).astype(np.uint32)
    entry_bounds = entry_bounds.tolist()
    portal_bounds = portal_bounds.tolist()

    code_raw = memoryview(entry_codes.tobytes())
    offs_raw = memoryview(rel_offs.tobytes())
    pair_raw = memoryview(portals.view(np.uint8).reshape(-1))
    labels: Dict[Vertex, FlatLabel] = {}
    for i, v in enumerate(ctx.csr.verts):
        lo, hi = entry_bounds[i], entry_bounds[i + 1]
        p0, p1 = portal_bounds[i], portal_bounds[i + 1]
        codes = array("q")
        codes.frombytes(code_raw[8 * lo : 8 * hi])
        offs = array("I")
        offs.frombytes(offs_raw[4 * lo : 4 * hi])
        offs.append(p1 - p0)
        runs = array("d")
        runs.frombytes(pair_raw[16 * p0 : 16 * p1])
        labels[v] = FlatLabel(v, codes, offs, runs)
    pair_raw.release()
    return labels


def _unit_sources(ctx: FlatBuildContext, phase, residual):
    """The distinct separator-path vertices of one unit's *phase* in
    path-then-position order, as ``(vertices, CSR indices)``."""
    index_of = ctx.csr.index_of
    sources: List[Vertex] = []
    src_idx: List[int] = []
    seen = set()
    for path in phase.paths:
        for x in path:
            if x not in residual:
                # Mirrors batched_dijkstra's source validation.
                raise GraphError(f"source {x!r} not in the allowed set")
            i = index_of(x)
            if i not in seen:
                seen.add(i)
                sources.append(x)
                src_idx.append(i)
    return sources, src_idx


class UnitRows(NamedTuple):
    """One (node, phase) unit's separator distances as flat rows:
    ``verts`` is the residual in CSR-index order, ``pos`` maps each of
    its vertices to its position there, and ``rows`` maps each distinct
    separator-path vertex x, in source order, to the ``array('d')`` row
    of ``d_J(x, verts[i])`` (``inf`` where unreached).  The relabeler
    folds reweights into the rows in place (:mod:`repro.dynamic.rebuild`).
    """

    verts: List[Vertex]
    pos: Dict[Vertex, int]
    rows: Dict[Vertex, array]

    @property
    def slots(self) -> int:
        return len(self.rows) * len(self.verts)


def flat_unit_rows(
    ctx: FlatBuildContext, node_id: int, phase_idx: int, residual
) -> UnitRows:
    """``d_J(x, .)`` for every separator-path vertex x of one (node,
    phase) unit.  A residual of at least :data:`SMALL_RESIDUAL` runs
    the build's induced-subgraph C Dijkstra and copies each matrix row
    once, a smaller one ``batched_dijkstra``: the same floats (the
    unique fixed point)."""
    phase = ctx.tree.nodes[node_id].separator.phases[phase_idx]
    sources, src_idx = _unit_sources(ctx, phase, residual)
    allowed = sorted(map(ctx.csr.index_of, residual))
    verts = [ctx.csr.verts[i] for i in allowed]
    m = len(verts)
    if m < SMALL_RESIDUAL:
        maps = batched_dijkstra(ctx.graph, sources, allowed=residual)
        rows = {
            x: array("d", map(maps[x].get, verts, repeat(INF, m)))
            for x in sources
        }
    else:
        int64 = _np.int64
        dist = _induced_distances(
            ctx, _np.asarray(src_idx, int64), _np.asarray(allowed, int64)
        )
        rows = {x: array("d", dist[r].tobytes()) for r, x in enumerate(sources)}
    return UnitRows(verts, dict(zip(verts, range(m))), rows)


def flat_cover_portals(
    prefix: Sequence[float],
    rows: Sequence[array],
    targets: Sequence[int],
    epsilon: float,
) -> List[Optional[List[PortalEntry]]]:
    """Each target's ``(position, distance)`` portals on one path, or
    None where it reaches no position; *rows* are the
    :class:`UnitRows` rows of the path's vertices in path order and
    *targets* positions in them.  At least :data:`SMALL_RESIDUAL`
    targets run the full build's vectorized scan over one ``targets x
    path`` matrix, gathered through ``np.frombuffer`` views of the
    rows; fewer run the per-target scan: same portals.

    The threshold suits incremental relabel too.  Timed on every call
    of E18's relabel sequences (delaunay and ktree3, n=2048: 2912
    calls, most on one-vertex paths), the matrix scan costs a fixed
    ~27us and the per-target scan ~3us per target, so single calls
    cross over at 8-16 targets; the summed scan time is within 1.5%
    of its minimum for any threshold from 10 to 32, and 45% above it
    with the matrix scan alone."""
    if len(targets) < SMALL_RESIDUAL:
        out: List[Optional[List[PortalEntry]]] = []
        for t in targets:
            portals = epsilon_cover_portals_at(
                prefix, [row[t] for row in rows], epsilon
            )
            out.append([(prefix[i], d) for i, d in portals] or None)
        return out
    np = _np
    picks = np.asarray(targets, dtype=np.int64)
    m = len(picks)
    dist_t = np.empty((m, len(rows)), dtype=np.float64)
    for j, row in enumerate(rows):
        dist_t[:, j] = np.frombuffer(row, dtype=np.float64)[picks]
    prefix_arr = np.asarray(prefix, dtype=np.float64)
    chosen, _ = _cover_portals_matrix(dist_t, prefix_arr, epsilon)
    sel_rows, sel_cols = np.nonzero(chosen)
    pairs = list(
        zip(prefix_arr[sel_cols].tolist(), dist_t[sel_rows, sel_cols].tolist())
    )
    out = []
    start = 0
    for count in np.bincount(sel_rows, minlength=m).tolist():
        out.append(pairs[start : start + count] or None)
        start += count
    return out

"""Flat-array core: CSR adjacency and array-backed labels.

The dict-of-dict :class:`~repro.graphs.graph.Graph` and per-vertex
``VertexLabel`` objects are the *reference* implementation — obviously
correct, pleasant to debug, and the byte-level source of truth for
every serialized artifact.  This module is the *performance* core: the
same two hot kernels (batched per-unit Dijkstra during construction,
the label ``estimate`` combine during serving) ported onto index-based
flat arrays.

* :class:`CSRGraph` — compressed-sparse-row adjacency with a stable
  vertex<->index mapping.  Indexing goes through
  :func:`~repro.core.serialize.canonical_vertex`, so ``1`` and ``1.0``
  resolve to one index, exactly like the shard router and the binary
  vertex codec (the PR 7 canonical-key rule).
* :func:`flat_unit_entries` — one (node, phase) unit of label
  construction: an induced sub-CSR over the residual, one multi-source
  C Dijkstra pass, and a vectorized epsilon-cover scan that walks path
  *positions* (O(path length) array ops) instead of per-vertex Python
  loops.
* :class:`FlatLabel` — one vertex's label as integer key codes plus
  interleaved ``array('d')`` ``(position, distance)`` runs, built
  either from a ``VertexLabel`` or straight off a ``/2`` record's bytes
  (:meth:`repro.core.binfmt.BinaryLabelReader.get_flat`), with per-key
  merge state built only when a query first needs it.  It is the only
  form in which the serving stores hold labels.
* :func:`flat_estimate` — the Theorem-2 combine as a sorted-run
  intersection scan over two ``FlatLabel``s instead of dict probes.

Equivalence contract (fenced by ``tests/core/test_flat_differential.py``
and the property suite): for every graph the flat core produces the
*bit-identical* labeling, serialized bytes (both codecs), estimates and
delta-application results as the reference kernels in
:mod:`repro.core.labeling` and :mod:`repro.graphs.shortest_paths`.
The argument is that both compute the same float expressions in the
same order: Dijkstra distances are the unique float fixed point of
``d[v] = min_u fl(d[u] + w(u, v))`` for positive weights regardless of
settling order, and the cover scan / portal merge below replicate the
reference arithmetic operation for operation.

Units whose residual is below :data:`SMALL_RESIDUAL` run the reference
kernels directly; raising that threshold above ``n`` routes a whole
build or incremental relabel through them, which is how the tests
obtain the reference labeling to compare against.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as _np
from scipy.sparse import csr_matrix as _csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.core.labeling import VertexLabel
from repro.core.serialize import canonical_vertex
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import batched_dijkstra
from repro.obs import metrics
from repro.util.errors import GraphError
from repro.util.sizing import PORTAL_ENTRY_WORDS

Vertex = Hashable
PathKey = Tuple[int, int, int]
INF = float("inf")

__all__ = [
    "CSRGraph",
    "FlatBuildContext",
    "FlatLabel",
    "encode_path_key",
    "flat_distance_maps",
    "flat_estimate",
    "flat_phase_distance_maps",
    "flat_unit_entries",
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


# -- flat label storage ---------------------------------------------------

_I32_MIN = -(1 << 31)
_I32_MAX = (1 << 31) - 1


def encode_path_key(key: PathKey) -> int:
    """One path key as a single integer whose numeric order equals the
    tuple order: ``(node_id << 64) + (phase_idx << 32) + path_idx``.
    The last two components fit the binary codec's i32 fields, so
    ``path_idx`` takes at most ``2**32`` consecutive values and
    ``(phase_idx << 32) + path_idx`` at most ``2**64``, which makes the
    sum injective and order-preserving for any integer node id.
    ``binfmt`` computes the same expression inline when it decodes a
    record."""
    node_id, phase_idx, path_idx = key
    if not (
        _I32_MIN <= phase_idx <= _I32_MAX and _I32_MIN <= path_idx <= _I32_MAX
    ):
        raise GraphError(f"path key {key!r} outside the flat key range")
    return (node_id << 64) + (phase_idx << 32) + path_idx


def decode_path_key(code: int) -> PathKey:
    """The path key that :func:`encode_path_key` maps to *code*."""
    path_idx = (code - _I32_MIN) % (1 << 32) + _I32_MIN
    high = (code - path_idx) >> 32
    phase_idx = (high - _I32_MIN) % (1 << 32) + _I32_MIN
    return ((high - phase_idx) >> 32, phase_idx, path_idx)


#: Pruning slack for :func:`flat_estimate` (see the error-bound note
#: there): ~8000 ulps — astronomically wider than the worst-case float
#: drift of a three-addition candidate, still tight enough to prune
#: keys whose portals are even fractionally farther than the best.
_PRUNE_SLACK = 2.0 ** -40


class FlatLabel:
    """One vertex's label as flat arrays.

    Storage order (``keys``/``offs``/``runs``) is the entry order of
    the source — a ``VertexLabel``'s dict order or a ``/2`` record's
    field order — so :meth:`to_label` reproduces the reference object
    exactly and serialization stays byte-identical.  ``runs`` is laid
    out like a ``/2`` record's entries region, in 16-byte slots of two
    floats: key ``k`` (storage order) owns slots ``offs[k]`` up to
    ``offs[k+1]``, the first of which is a header slot that is never
    read (a decoded label keeps the record's entry header bytes there,
    so one ``frombytes`` copies the whole region; a label built from
    entries keeps zeros), and the rest its portals as interleaved
    ``(position, distance)`` pairs, i.e.
    ``runs[2*offs[k] + 2 : 2*offs[k+1]]``.  ``index`` maps each key's
    integer code (:func:`encode_path_key`) to its storage index, and
    ``key_set`` holds the same codes for C-speed set intersection.
    ``keys``, the path-key tuples, are only read to rebuild the dict
    form, so a label decoded without them derives them from ``index``
    on first access.

    That is all a label holds when it is built.  The per-key merge
    state — the run with its floats boxed once into a tuple (the merge
    loop reads each float several times; tuple reads reuse the box,
    array reads re-box every time), its minimum distance and its
    pruning slack — is built by :meth:`span` the first time a query
    shares that key, and memoized on the label.  A query reads only
    the keys its two labels share (under half of them for a uniform
    pair), so a label decoded off the mmap never pays for the rest.
    """

    __slots__ = (
        "vertex", "offs", "runs", "index", "key_set", "_keys", "_spans",
        "_label",
    )

    def __init__(
        self,
        vertex: Vertex,
        offs: Sequence[int],
        runs: array,
        index: Dict[int, int],
        keys: Optional[Tuple[PathKey, ...]] = None,
    ) -> None:
        self.vertex = vertex
        self.offs = offs
        self.runs = runs
        self.index = index
        self.key_set = frozenset(index)
        self._keys = keys
        self._spans: Dict[int, Tuple[Tuple[float, ...], float, float]] = {}
        self._label: Optional[VertexLabel] = None

    @classmethod
    def from_entries(
        cls, vertex: Vertex, entries: Dict[PathKey, List[Tuple[float, float]]]
    ) -> "FlatLabel":
        offs = [0]
        runs = array("d")
        append = runs.append
        for portals in entries.values():
            append(0.0)
            append(0.0)
            for pos, dist in portals:
                append(pos)
                append(dist)
            offs.append(len(runs) // 2)
        index = {encode_path_key(key): k for k, key in enumerate(entries)}
        return cls(vertex, offs, runs, index, tuple(entries))

    @classmethod
    def from_label(cls, label: VertexLabel) -> "FlatLabel":
        return cls.from_entries(label.vertex, label.entries)

    def span(self, code: int) -> Tuple[Tuple[float, ...], float, float]:
        """``(run tuple, min distance, pruning slack)`` of the key with
        code *code*, built on first use and memoized."""
        k = self.index[code]
        offs = self.offs
        run = tuple(self.runs[2 * offs[k] + 2 : 2 * offs[k + 1]])
        mind = INF
        mag = 0.0
        for i in range(0, len(run), 2):
            d = run[i + 1]
            if d < mind:
                mind = d
            m = d + run[i]
            if m > mag:
                mag = m
        state = (run, mind, mag * _PRUNE_SLACK)
        self._spans[code] = state
        return state

    @property
    def keys(self) -> Tuple[PathKey, ...]:
        """The path keys, in storage order."""
        if self._keys is None:
            self._keys = tuple(map(decode_path_key, self.index))
        return self._keys

    def entries(self) -> Dict[PathKey, List[Tuple[float, float]]]:
        """A fresh ``{path key: portal list}`` dict in storage order;
        the caller owns it (it is never the :meth:`to_label` memo)."""
        runs, offs = self.runs, self.offs
        entries: Dict[PathKey, List[Tuple[float, float]]] = {}
        for key, k in zip(self.keys, self.index.values()):
            lo, hi = 2 * offs[k] + 2, 2 * offs[k + 1]
            entries[key] = [(runs[i], runs[i + 1]) for i in range(lo, hi, 2)]
        return entries

    def to_label(self) -> VertexLabel:
        """The dict form, memoized: repeated calls return one object, so
        a cached label answers LABEL with the same object every time."""
        if self._label is None:
            self._label = VertexLabel(self.vertex, self.entries())
        return self._label

    @property
    def num_portals(self) -> int:
        return self.offs[-1] - (len(self.offs) - 1)

    @property
    def words(self) -> int:
        """Same word-model accounting as :attr:`VertexLabel.words`."""
        return self.num_portals * PORTAL_ENTRY_WORDS + len(self.offs) - 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlatLabel({self.vertex!r}, keys={len(self.offs) - 1}, "
            f"portals={self.num_portals})"
        )


def flat_estimate(label_u: FlatLabel, label_v: FlatLabel) -> float:
    """:func:`~repro.core.labeling.estimate_distance` over flat labels.

    Key intersection is one C-level set operation; each shared key
    (its merge state built by :meth:`FlatLabel.span` on first use) runs
    the same sorted merge as
    :func:`~repro.core.portals.min_portal_pair` directly on the
    interleaved runs — identical float expressions in identical order,
    so the result is bit-equal to the dict kernel's (``inf`` when no
    key is shared; the running minimum is order-independent because
    updates are strict).

    Shared keys are visited deepest-first (descending key code: deeper
    tree nodes hold the closer portals, so the first merges give a
    near-final ``best``) and a key is skipped outright when even its
    best conceivable candidate cannot beat ``best``.  The skip is
    *exact*, not heuristic: every candidate is the three-addition float
    evaluation of ``d_u + d_v + |p_u - p_v| >= min_d_u + min_d_v``,
    whose accumulated rounding is below ``3 ulp`` of the operand
    magnitudes, bounded here by ``max(d + p)`` per run; the pruning
    threshold subtracts :data:`_PRUNE_SLACK` (thousands of ulps) of
    that magnitude, so no candidate a skipped key could produce is ever
    below ``best``.
    """
    if label_u.vertex == label_v.vertex:
        return 0.0
    a, b = label_u, label_v
    if len(b.key_set) < len(a.key_set):
        a, b = b, a
    shared = a.key_set & b.key_set
    best = INF
    if shared:
        sa, sb = a._spans, b._spans
        for code in sorted(shared, reverse=True):
            ra, ma, slack_a = sa.get(code) or a.span(code)
            rb, mb, slack_b = sb.get(code) or b.span(code)
            if ma + mb - slack_a - slack_b >= best:
                continue
            pe = len(ra)
            qe = len(rb)
            if pe == 2 and qe == 2:
                # Single portal on both sides: the merge below reduces
                # to exactly one candidate with these exact expressions.
                pa = ra[0]
                pb = rb[0]
                if pa <= pb:
                    cand = ((ra[1] - pa) + rb[1]) + pb
                else:
                    cand = ((rb[1] - pb) + ra[1]) + pa
                if cand < best:
                    best = cand
                continue
            p = q = 0
            best_u = INF  # min over a-portals seen so far of (d - pos)
            best_v = INF  # min over b-portals seen so far of (d - pos)
            while p < pe or q < qe:
                if q >= qe or (p < pe and ra[p] <= rb[q]):
                    pos = ra[p]
                    d = ra[p + 1]
                    p += 2
                    cand = best_v + d + pos
                    if cand < best:
                        best = cand
                    du = d - pos
                    if du < best_u:
                        best_u = du
                else:
                    pos = rb[q]
                    d = rb[q + 1]
                    q += 2
                    cand = best_u + d + pos
                    if cand < best:
                        best = cand
                    dv = d - pos
                    if dv < best_v:
                        best_v = dv
    if metrics.enabled:
        metrics.inc("oracle.query.count")
        metrics.inc("oracle.query.portal_scans", len(shared))
    return best


# -- construction kernel --------------------------------------------------

#: Residuals smaller than this run the reference dict kernel instead:
#: the outputs are identical either way, and below this size the
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
    """The flat twin of ``labeling._unit_entries``: label entries
    contributed by one (node, phase) unit, as ``(vertex, key, portal
    entries)`` triples plus the batched source count.

    Entry values are materialized back to Python floats via bulk
    ``tolist`` conversions (exact for float64), so downstream
    serialization sees the same objects the dict kernel produces.
    Units below :data:`SMALL_RESIDUAL` delegate to the reference dict
    kernel — same output, lower constant.
    """
    if len(residual) < SMALL_RESIDUAL:
        from repro.core.labeling import _unit_entries

        return _unit_entries(
            ctx.graph, ctx.tree, node_id, phase_idx, residual, epsilon
        )
    np = _np
    csr, tree = ctx.csr, ctx.tree
    phase = tree.nodes[node_id].separator.phases[phase_idx]
    index_of = csr.index_of
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
                src_idx.append(i)
    if not src_idx:
        return [], 0
    allowed = np.fromiter(
        (index_of(v) for v in residual), dtype=np.int64, count=len(residual)
    )
    allowed.sort()
    src_arr = np.asarray(src_idx, dtype=np.int64)
    dist = _induced_distances(ctx, src_arr, allowed)
    src_row = {g: r for r, g in enumerate(src_idx)}

    verts = csr.verts
    vert_ids = allowed.tolist()
    out = []
    for path_idx, path in enumerate(phase.paths):
        key = (node_id, phase_idx, path_idx)
        prefix = tree.path_prefix(key)
        path_rows = np.asarray(
            [src_row[index_of(x)] for x in path], dtype=np.int64
        )
        dist_t = np.ascontiguousarray(dist[path_rows].T)
        prefix_arr = np.asarray(prefix, dtype=np.float64)
        chosen, _ = _cover_portals_matrix(dist_t, prefix_arr, epsilon)
        sel_rows, sel_cols = np.nonzero(chosen)
        counts = np.bincount(sel_rows, minlength=len(vert_ids)).tolist()
        cols = sel_cols.tolist()
        dists = dist_t[sel_rows, sel_cols].tolist()
        ptr = 0
        for j, count in enumerate(counts):
            if count:
                out.append(
                    (
                        verts[vert_ids[j]],
                        key,
                        [
                            (prefix[cols[k]], dists[k])
                            for k in range(ptr, ptr + count)
                        ],
                    )
                )
                ptr += count
    return out, len(src_idx)


def flat_distance_maps(
    ctx: FlatBuildContext, sources, allowed
) -> Dict[Vertex, Dict[Vertex, float]]:
    """The flat twin of
    :func:`~repro.graphs.shortest_paths.batched_dijkstra` restricted to
    *allowed*: ``{source: {vertex: distance}}`` with one entry per
    distinct source and only reached vertices in each map.

    Distances come from the same induced-subgraph C Dijkstra as
    :func:`flat_unit_entries` and are bit-identical to the pure-Python
    reference (unique float fixed point under positive weights);
    unreachable vertices are *omitted* rather than stored as ``inf``,
    matching the reference dict shape, so the incremental-relabel fold
    (`m.get(v, INF)` probes, in-place row mutation) works on either.
    Like :func:`flat_unit_entries`, an *allowed* set below
    :data:`SMALL_RESIDUAL` runs the reference kernel instead.
    """
    if len(allowed) < SMALL_RESIDUAL:
        return batched_dijkstra(ctx.graph, sources, allowed=allowed)
    csr = ctx.csr
    index_of = csr.index_of
    src_idx: List[int] = []
    src_list: List[Vertex] = []
    seen = set()
    for s in sources:
        if s not in csr:
            raise GraphError(f"source {s!r} not in graph")
        if s not in allowed:
            raise GraphError(f"source {s!r} not in the allowed set")
        i = index_of(s)
        if i not in seen:
            seen.add(i)
            src_idx.append(i)
            src_list.append(s)
    np = _np
    allowed_arr = np.fromiter(
        (index_of(v) for v in allowed), dtype=np.int64, count=len(allowed)
    )
    allowed_arr.sort()
    dist = _induced_distances(
        ctx, np.asarray(src_idx, dtype=np.int64), allowed_arr
    )
    verts = csr.verts
    vert_ids = allowed_arr.tolist()
    maps: Dict[Vertex, Dict[Vertex, float]] = {}
    for r, s in enumerate(src_list):
        row = dist[r]
        finite = np.isfinite(row)
        cols = np.nonzero(finite)[0].tolist()
        vals = row[finite].tolist()
        maps[s] = {verts[vert_ids[c]]: vals[k] for k, c in enumerate(cols)}
    return maps


def flat_phase_distance_maps(
    ctx: FlatBuildContext, node_id: int, phase_idx: int, residual
) -> Dict[Vertex, Dict[Vertex, float]]:
    """The flat twin of
    :func:`~repro.core.decomposition.phase_portal_distance_maps`:
    ``d_J(x, .)`` for every separator-path vertex x of one (node,
    phase) unit, bit-identical to the reference (source order is the
    same paths-then-position dedup walk, so the returned dict iterates
    identically too)."""
    phase = ctx.tree.nodes[node_id].separator.phases[phase_idx]
    sources: List[Vertex] = []
    seen = set()
    for path in phase.paths:
        for x in path:
            if x not in seen:
                seen.add(x)
                sources.append(x)
    return flat_distance_maps(ctx, sources, residual)

"""Flat-array core: CSR adjacency, label construction and array-backed
labels.

* :class:`CSRGraph` — compressed-sparse-row adjacency.  Indexing goes
  through :func:`~repro.core.serialize.canonical_vertex`, so ``1`` and
  ``1.0`` resolve to one index, like the shard router and the binary
  vertex codec.
* :func:`flat_unit_entries` — one (node, phase) unit of construction:
  an induced sub-CSR, one multi-source C Dijkstra pass and a vectorized
  epsilon-cover scan, emitting arrays; :func:`assemble_labels` merges
  every unit's arrays into the labels.
* :func:`flat_unit_rows` — one unit's separator distances as
  ``array('d')`` rows (:class:`UnitRows`), the form the incremental
  relabeler caches and folds reweights into.
* :class:`FlatLabel` — one vertex's label as the three columns of its
  ``/2`` record (64-bit key codes, portal offsets, portals), and
  :func:`flat_estimate`, the Theorem-2 combine over two of them, with
  :func:`flat_estimate_many`, the same combine over a batch of pairs in
  numpy passes.  It is the only label form: builds, both codecs'
  loaders and writers, the stores and the LABEL op all hold it.

Equivalence contract (``tests/core/test_flat_differential.py`` and the
property suite): the flat core produces the *bit-identical* labeling,
serialized bytes, estimates and delta results as the dict reference
build (``tests/reference_labeling.py``).  Both compute the same float
expressions in the same order: Dijkstra distances are the unique float
fixed point of ``d[v] = min_u fl(d[u] + w(u, v))`` for positive weights
regardless of settling order, and the cover scan replicates the
reference arithmetic operation for operation.  Units whose residual is
below :data:`SMALL_RESIDUAL` run the reference kernels
(``batched_dijkstra``, ``epsilon_cover_portals_at``) and emit the same
arrays.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, repeat
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence
from typing import Tuple

import numpy as _np
from scipy.sparse import csr_matrix as _csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.core.labeling import PortalEntry
from repro.core.portals import epsilon_cover_portals_at
from repro.core.serialize import SerializationError, canonical_vertex
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
    "assemble_labels",
    "encode_path_key",
    "UnitRows",
    "flat_cover_portals",
    "flat_estimate",
    "flat_estimate_many",
    "flat_unit_entries",
    "flat_unit_rows",
    "group_entry_changes",
    "induced_csr",
    "label_content",
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
_U16_MAX = (1 << 16) - 1


def encode_path_key(key: PathKey) -> int:
    """One path key as its 64-bit code ``node_id << 32 | phase_idx << 16
    | path_idx``: ``node_id`` a signed 32-bit int, ``phase_idx`` and
    ``path_idx`` in ``[0, 2**16)``.  Within those bounds the code is
    injective, its numeric order is the tuple order, and it fits an
    ``i64``, so a label's codes form the ``/2`` record's key column; a
    key outside them raises :class:`~repro.util.errors.GraphError`."""
    node_id, phase_idx, path_idx = key
    if not (
        _I32_MIN <= node_id <= _I32_MAX
        and 0 <= phase_idx <= _U16_MAX
        and 0 <= path_idx <= _U16_MAX
    ):
        raise GraphError(f"path key {key!r} outside the flat key range")
    return node_id << 32 | phase_idx << 16 | path_idx


def _code_or_key(key):
    """*key*'s :func:`encode_path_key` code, or *key* if it has none."""
    try:
        return encode_path_key(key)
    except (GraphError, TypeError, ValueError):
        return key


def _label_code(vertex: Vertex, key) -> int:
    """*key*'s code, or a :class:`SerializationError` naming *vertex*."""
    code = _code_or_key(key)
    if type(code) is not int:
        raise SerializationError(_unfit(vertex, key))
    return code


def _unfit(vertex: Vertex, key) -> str:
    return (
        f"path key {key!r} of vertex {vertex!r} does not fit the key code "
        f"(i32 node, u16 phase and path)"
    )


def decode_path_key(code: int) -> PathKey:
    """The path key that :func:`encode_path_key` maps to *code*."""
    return (code >> 32, (code >> 16) & _U16_MAX, code & _U16_MAX)


#: Pruning slack for :func:`flat_estimate` (see the error-bound note
#: there): ~8000 ulps — astronomically wider than the worst-case float
#: drift of a three-addition candidate, still tight enough to prune
#: keys whose portals are even fractionally farther than the best.
_PRUNE_SLACK = 2.0 ** -40


class FlatLabel:
    """One vertex's label as three columns: the ``/2`` record's.

    ``codes`` (``array('q')``) holds each key's :func:`encode_path_key`
    code in storage order, ``offs`` (``array('I')``, one longer) the
    portal offsets, and ``runs`` (``array('d')``) every portal as a
    ``(position, distance)`` pair: key ``k`` owns portals ``offs[k]``
    up to ``offs[k+1]``, i.e. ``runs[2*offs[k] : 2*offs[k+1]]``, in
    ascending position.  On little-endian hosts the three columns'
    bytes are the record's body after its key count verbatim, which is
    how a label is packed and how a record is decoded (one copy each
    way).

    Storage order is the entry order of the source — a build's
    ascending key order, a ``/1`` label's key order or a ``/2``
    record's column order — so re-encoding a loaded label in either
    codec reproduces its bytes.  The build, both writers and
    :meth:`with_changes` keep it ascending.  ``index`` maps each code
    to its storage index.  ``keys``, the path-key tuples, are only read
    to write ``/1`` JSON or an entries dict, so a label built without
    them derives them from ``codes`` on first access.

    A label built with ``memo`` (the default) is *resident*: it is
    expected to answer many queries, so the per-key merge state — the
    run with its floats boxed once into a tuple (the merge loop reads
    each float several times; tuple reads reuse the box, array reads
    re-box every time), its minimum distance and its pruning slack — is
    built by :meth:`span` the first time a query shares that key, and
    memoized on the label.  A label built with ``memo=False`` is
    *churned*: a ``/2`` store whose file holds more labels than its
    decode cache evicts most labels after a query or two, and building
    and freeing that state costs more than it saves, so such a label
    holds none and :func:`flat_estimate` merges its ``runs`` directly.
    """

    __slots__ = ("vertex", "codes", "offs", "runs", "index", "_keys", "_spans")

    def __init__(
        self,
        vertex: Vertex,
        codes: array,
        offs: array,
        runs: array,
        index: Dict[int, int],
        keys: Optional[Tuple[PathKey, ...]] = None,
        memo: bool = True,
    ) -> None:
        self.vertex = vertex
        self.codes = codes
        self.offs = offs
        self.runs = runs
        self.index = index
        self._keys = keys
        self._spans: Optional[Dict[int, Tuple[Tuple[float, ...], float, float]]] = (
            {} if memo else None
        )

    @classmethod
    def from_entries(
        cls, vertex: Vertex, entries: Dict[PathKey, List[PortalEntry]]
    ) -> "FlatLabel":
        """The label of *vertex* holding *entries*, in their order.  A
        key outside :func:`encode_path_key`'s bounds raises
        :class:`~repro.core.serialize.SerializationError`."""
        code_list = [_label_code(vertex, key) for key in entries]
        runs = list(chain.from_iterable(chain.from_iterable(entries.values())))
        offs = array("I", accumulate(map(len, entries.values()), initial=0))
        index = dict(zip(code_list, range(len(code_list))))
        return cls(
            vertex, array("q", code_list), offs, array("d", runs), index,
            tuple(entries),
        )

    @classmethod
    def from_label(cls, label: "FlatLabel") -> "FlatLabel":
        """A fresh resident copy of *label*.  Only perfbench's store
        replay still calls it, on labels that load as ``FlatLabel``
        already; its next change can drop the call and this method."""
        return cls(
            label.vertex,
            array("q", label.codes),
            array("I", label.offs),
            array("d", label.runs),
            dict(label.index),
            label._keys,
        )

    def span(self, code: int) -> Tuple[Tuple[float, ...], float, float]:
        """``(run tuple, min distance, pruning slack)`` of the key with
        code *code*, built on first use and memoized."""
        k = self.index[code]
        offs = self.offs
        run = tuple(self.runs[2 * offs[k] : 2 * offs[k + 1]])
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
            self._keys = tuple(map(decode_path_key, self.codes))
        return self._keys

    def entries(self) -> Dict[PathKey, List[Tuple[float, float]]]:
        """A fresh ``{path key: portal list}`` dict in storage order,
        owned by the caller."""
        vals, offs = self.runs.tolist(), self.offs
        return {
            key: list(
                zip(
                    vals[2 * offs[k] : 2 * offs[k + 1] : 2],
                    vals[2 * offs[k] + 1 : 2 * offs[k + 1] : 2],
                )
            )
            for k, key in enumerate(self.keys)
        }

    def with_changes(
        self,
        changes: Iterable[Tuple[PathKey, Sequence[PortalEntry]]],
        removals: Iterable[PathKey],
    ) -> Tuple["FlatLabel", int]:
        """``(edited label, removals that found their key)``: each
        ``(key, portals)`` of *changes* set, then each key of *removals*
        dropped; this label is left as it is.  Kept keys are copied as
        slices of unchanged portal ranges of ``runs``, changed ones get
        their portals at their ascending position.  Bytes and count
        equal the dict edit of the test reference
        (``tests/reference_labeling.py``: ``apply_entry_changes`` on
        :meth:`entries`, then :meth:`from_entries`): a label not in
        ascending order is re-sorted once any change is set, and a key
        outside :func:`encode_path_key`'s bounds raises
        :class:`~repro.core.serialize.SerializationError`."""
        offs, runs = self.offs, self.runs
        # Code (the key itself where it has none) -> storage index of a
        # kept key or (key, portals) of a changed one, in the order the
        # entries dict of the round trip would hold them.
        plan: Dict = dict(self.index)
        resort = False
        for key, portals in changes:
            plan[_code_or_key(key)] = (key, portals)
            resort = True
        removed = sum(
            plan.pop(_code_or_key(key), None) is not None for key in removals
        )
        bad = [slot[0] for code, slot in plan.items() if type(code) is not int]
        if bad:
            raise SerializationError(_unfit(self.vertex, min(bad)))
        order = sorted(plan) if resort else list(plan)
        out, out_offs = array("d"), array("I", [0])
        lo = hi = 0  # portals lo..hi of this label, not yet copied
        for code in order:
            slot = plan[code]
            if type(slot) is int:
                a, b = offs[slot], offs[slot + 1]
                if a != hi:
                    out += runs[2 * lo : 2 * hi]
                    lo = a
                hi = b
            else:
                out += runs[2 * lo : 2 * hi]
                lo = hi = 0
                out.extend(chain.from_iterable(slot[1]))
            out_offs.append(len(out) // 2 + hi - lo)
        out += runs[2 * lo : 2 * hi]
        codes = array("q", order)
        index = dict(zip(order, range(len(order))))
        return FlatLabel(self.vertex, codes, out_offs, out, index), removed

    def portals_equal(
        self, code: int, portals: Sequence[PortalEntry]
    ) -> Optional[bool]:
        """Whether the key with code *code* holds exactly *portals*, as
        ``(position, distance)`` pairs compared with ``==``; None when
        the label holds no such key.  Reads the run in place."""
        k = self.index.get(code)
        if k is None:
            return None
        i, end = 2 * self.offs[k], 2 * self.offs[k + 1]
        if end - i != 2 * len(portals):
            return False
        runs = self.runs
        for pos, dist in portals:
            if runs[i] != pos or runs[i + 1] != dist:
                return False
            i += 2
        return True

    @property
    def num_portals(self) -> int:
        return self.offs[-1]

    @property
    def words(self) -> int:
        """Label size in the paper's word model (see
        :mod:`repro.util.sizing`): a header word per key plus
        :data:`~repro.util.sizing.PORTAL_ENTRY_WORDS` per portal."""
        return self.offs[-1] * PORTAL_ENTRY_WORDS + len(self.codes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlatLabel({self.vertex!r}, keys={len(self.codes)}, "
            f"portals={self.num_portals})"
        )


def label_content(label: FlatLabel):
    """A label's content as a comparable value (``FlatLabel`` has no
    ``__eq__``): its vertex, its path keys in storage order and its
    offset and portal columns' bytes."""
    return label.vertex, label.keys, label.offs.tobytes(), label.runs.tobytes()


def flat_estimate(label_u: FlatLabel, label_v: FlatLabel) -> float:
    """The Theorem-2 combine of two labels: the minimum over shared
    path keys of the best portal-pair sum on that path.

    Shared keys are found by walking the smaller label's ``index`` in
    reverse storage order and testing membership in the other's.  Each
    one runs a sorted merge of its two runs, with the same float
    expressions in the same order as the dict combine of the test
    reference (``tests/reference_labeling.py``), so the result is
    bit-equal to it (``inf`` when no key is shared; the running minimum
    is order-independent because updates are strict).
    Storage order is ascending key order (see :class:`FlatLabel`), so
    the walk visits the deepest keys first: deeper tree nodes hold the
    closer portals, so the first merges give a near-final ``best``.

    When both labels are resident, each shared key's runs are its
    memoized :meth:`FlatLabel.span` tuples, and a key is skipped
    outright when even its best conceivable candidate cannot beat
    ``best``.  The skip is *exact*, not heuristic: every candidate is
    the three-addition float evaluation of ``d_u + d_v + |p_u - p_v| >=
    min_d_u + min_d_v``, whose accumulated rounding is below ``3 ulp``
    of the operand magnitudes, bounded here by ``max(d + p)`` per run;
    the pruning threshold subtracts :data:`_PRUNE_SLACK` (thousands of
    ulps) of that magnitude, so no candidate a skipped key could
    produce is ever below ``best``.  When either label is churned, the
    merge reads both labels' ``runs`` in place and prunes nothing;
    skipping only ever drops candidates that are not below ``best``,
    so both ways give the same bits.
    """
    if label_u.vertex == label_v.vertex:
        return 0.0
    a, b = label_u, label_v
    if len(b.index) < len(a.index):
        a, b = b, a
    b_index = b.index
    sa, sb = a._spans, b._spans
    memo = sa is not None and sb is not None
    if not memo:
        ra, oa, rb, ob = a.runs, a.offs, b.runs, b.offs
    best = INF
    for code in reversed(a.index):
        if code not in b_index:
            continue
        if memo:
            ra, ma, slack_a = sa.get(code) or a.span(code)
            rb, mb, slack_b = sb.get(code) or b.span(code)
            if ma + mb - slack_a - slack_b >= best:
                continue
            p = q = 0
            pe = len(ra)
            qe = len(rb)
        else:
            ka = a.index[code]
            kb = b_index[code]
            p = 2 * oa[ka]
            pe = 2 * oa[ka + 1]
            q = 2 * ob[kb]
            qe = 2 * ob[kb + 1]
        if pe - p == 2 and qe - q == 2:
            # Single portal on both sides: the merge below reduces to
            # exactly one candidate with these exact expressions.
            pa = ra[p]
            pb = rb[q]
            if pa <= pb:
                cand = ((ra[p + 1] - pa) + rb[q + 1]) + pb
            else:
                cand = ((rb[q + 1] - pb) + ra[p + 1]) + pa
            if cand < best:
                best = cand
            continue
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
        metrics.inc(
            "oracle.query.portal_scans", sum(code in b_index for code in a.index)
        )
    return best


def flat_estimate_many(
    pairs: Sequence[Tuple[FlatLabel, FlatLabel]]
) -> List[float]:
    """:func:`flat_estimate` of every ``(label_u, label_v)`` pair of
    *pairs*, bit for bit, in a fixed number of numpy passes instead of
    one interpreted merge per pair.

    Per pair, ``a`` is the label :func:`flat_estimate` merges first
    (``label_u``, unless ``label_v`` holds strictly fewer keys).  The
    labels' columns are joined with ``bytes.join``; the batch's codes
    are ranked, so ``(pair, code)`` fits one ``int64`` and each
    ``b``-side key finds its ``a``-side twin with one ``searchsorted``.
    Every shared key then expands its portal cross product, and each
    candidate is the merge's own float expression for that portal pair:
    ``((d_b - p_b) + d_a) + p_a`` when ``p_b < p_a``, else ``((d_a -
    p_a) + d_b) + p_b`` (the merge takes an ``a`` portal first on a
    position tie).  Because runs are in ascending position, the merge's
    candidates for a key are exactly these, and rounding is monotone,
    so the minimum per pair is the merge's ``best``.  A vertex paired
    with itself gives ``0.0`` and is not counted, as in
    :func:`flat_estimate`; ``oracle.query.*`` counts the same totals.
    """
    np = _np
    out = [0.0] * len(pairs)
    live, firsts, seconds = [], [], []
    for i, (a, b) in enumerate(pairs):
        if a.vertex == b.vertex:
            continue
        if len(b.codes) < len(a.codes):
            a, b = b, a
        live.append(i)
        firsts.append(a)
        seconds.append(b)
    n = len(live)
    if not n:
        return out
    labels = firsts + seconds  # label j < n is pair j's a, n + j its b
    codes = np.frombuffer(b"".join([lab.codes for lab in labels]), np.int64)
    offs = np.frombuffer(b"".join([lab.offs for lab in labels]), np.uint32)
    runs = np.frombuffer(b"".join([lab.runs for lab in labels]), np.float64)
    sizes = np.array(
        [len(lab.codes) for lab in labels] + [lab.offs[-1] for lab in labels],
        dtype=np.int64,
    )
    num_keys, portal_base = sizes[: 2 * n], sizes[2 * n :]
    portal_base = np.cumsum(portal_base) - portal_base
    # Per key: its label, and its portal range in the joined runs (a
    # label's offs hold one entry more than its codes).
    owner = np.repeat(np.arange(2 * n, dtype=np.int64), num_keys)
    at = np.arange(len(codes), dtype=np.int64) + owner
    starts = portal_base[owner] + offs[at]
    stops = portal_base[owner] + offs[at + 1]
    # Rank the codes with one stable sort; (rank, pair) then ascends
    # along the sorted order on each side, so the b side's keys find
    # their a-side twins with one searchsorted.
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    rank = np.zeros(len(codes), dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=rank[1:])
    pair_key = rank * n + owner[order] % n
    on_a = order < int(num_keys[:n].sum())
    # A sentinel above every key keeps each hit inside the a side.
    key_a = np.append(pair_key[on_a], np.iinfo(np.int64).max)
    key_b = pair_key[~on_a]
    hit = np.searchsorted(key_a, key_b)
    shared = key_a[hit] == key_b
    kb = order[~on_a][shared]
    by_pair = np.argsort(kb)
    ka = order[on_a][hit[shared]][by_pair]
    kb = kb[by_pair]
    if metrics.enabled:
        metrics.inc("oracle.query.count", n)
        metrics.inc("oracle.query.portal_scans", len(kb))
    sa, sb = starts[ka], starts[kb]
    na, nb = stops[ka] - sa, stops[kb] - sb
    count = na * nb
    total = int(count.sum())
    best = np.full(n, INF)
    if total:
        # Candidate t of shared key m pairs a-portal sa + t // nb with
        # b-portal sb + t % nb.
        m = np.repeat(np.arange(len(kb), dtype=np.int64), count)
        t = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(count) - count, count
        )
        nbm = nb[m]
        i = t // nbm
        ia = 2 * (sa[m] + i)
        ib = 2 * (sb[m] + t - i * nbm)
        pa, da, pb, db = runs[ia], runs[ia + 1], runs[ib], runs[ib + 1]
        cand = np.where(pb < pa, ((db - pb) + da) + pa, ((da - pa) + db) + pb)
        # kb ascends, and each pair's b-side keys are stored together,
        # so the candidates come grouped by pair.
        pair = owner[kb][m] - n
        first = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
        best[pair[first]] = np.minimum.reduceat(cand, first)
    for slot, value in zip(live, best.tolist()):
        out[slot] = value
    return out


# -- label deltas ---------------------------------------------------------

def group_entry_changes(
    changes: Iterable[Tuple[Vertex, PathKey, Sequence[PortalEntry]]],
    removals: Iterable[Tuple[Vertex, PathKey]],
) -> Dict[Vertex, Tuple[list, list]]:
    """A delta's ``(vertex, key, portals)`` changes and ``(vertex,
    key)`` removals grouped per vertex, as ``{vertex: ([(key,
    portals)], [key])}`` in order of first mention."""
    grouped: Dict[Vertex, Tuple[list, list]] = {}
    for vx, key, portals in changes:
        grouped.setdefault(vx, ([], []))[0].append((key, portals))
    for vx, key in removals:
        grouped.setdefault(vx, ([], []))[1].append(key)
    return grouped


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
        labels[v] = FlatLabel(
            v, codes, offs, runs, dict(zip(codes, range(hi - lo)))
        )
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

"""Flat-array label core: the labels and the Theorem-2 combine.

* :class:`FlatLabel` — one vertex's label as the three columns of its
  ``/2`` record (64-bit key codes, portal offsets, portals), and
  :func:`flat_estimate`, the Theorem-2 combine over two of them, with
  :func:`flat_estimate_many`, the same combine over a batch of pairs in
  numpy passes.  It is the only label form: builds, both codecs'
  loaders and writers, the stores and the LABEL op all hold it.
* :func:`encode_path_key` — the 64-bit key code of a path key.
* :func:`group_entry_changes` — a delta's entries grouped per vertex.

This is all a query needs, so the serving side imports this module and
numpy only.  The construction kernels that produce the labels (CSR
adjacency, the unit Dijkstra and cover scan, the merge) live in
:mod:`repro.core.flat_build`, with scipy.

Equivalence contract (``tests/core/test_flat_differential.py`` and the
property suite): the flat core produces the *bit-identical* labeling,
serialized bytes, estimates and delta results as the dict reference
build (``tests/reference_labeling.py``).
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.labeling import PortalEntry
from repro.core.serialize import SerializationError
from repro.obs import metrics
from repro.util.errors import GraphError
from repro.util.sizing import PORTAL_ENTRY_WORDS

Vertex = Hashable
PathKey = Tuple[int, int, int]
INF = float("inf")

__all__ = [
    "FlatLabel",
    "encode_path_key",
    "flat_estimate",
    "flat_estimate_many",
    "group_entry_changes",
    "label_content",
]


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
    to its storage index; only :func:`flat_estimate` and the label
    edits read it, so it is built on its first read (a BATCH combine,
    :func:`flat_estimate_many`, never reads it) and is a plain slot
    read after that.  ``keys``, the path-key tuples, are only read to
    write ``/1`` JSON or an entries dict, so a label built without them
    derives them from ``codes`` on first access.

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
        keys: Optional[Tuple[PathKey, ...]] = None,
        memo: bool = True,
    ) -> None:
        self.vertex = vertex
        self.codes = codes
        self.offs = offs
        self.runs = runs
        self._keys = keys
        self._spans: Optional[Dict[int, Tuple[Tuple[float, ...], float, float]]] = (
            {} if memo else None
        )

    def __getattr__(self, name: str):
        # Only reached while a slot is unset: ``index`` is filled here
        # on its first read, and every later read finds the slot.
        if name != "index":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        codes = self.codes
        self.index = index = dict(zip(codes, range(len(codes))))
        return index

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
        return cls(
            vertex, array("q", code_list), offs, array("d", runs), tuple(entries)
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
        return FlatLabel(self.vertex, array("q", order), out_offs, out), removed

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

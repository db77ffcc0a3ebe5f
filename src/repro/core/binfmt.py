"""``repro-distance-labels/2`` — the packed binary label codec.

The JSON codec (:mod:`repro.core.serialize`, format ``/1``) is the
debug format: human-readable, but a serve node must parse the whole
file before answering its first query, and at millions of vertices the
text blows the label footprint up ~5x over the word model (E12).
This module is the production codec: fixed-width little-endian
records, a per-shard offset index in the header, and an ``mmap``-backed
reader, so opening a multi-GB shard is O(1) — map the file, read 80
bytes of header — and each query touches only the pages holding the
two labels it needs.  The OS page cache does the rest.

Grounded in "Compact I/O-Efficient Representation of Separable Graphs"
(arXiv 1811.06749): separable graphs admit compact locality-friendly
layouts, and our records keep the *source* (decomposition) order — the
natural layout key — while the hash index carries the shard-local
lookup structure on the side.

File layout (all integers little-endian)::

    header (80 bytes)
      0   8s   magic  b"RDLBLc2\\n"   (the /2 format stamp)
      8   u32  layout version (FORMAT_VERSION)
      12  u32  num_shards
      16  u64  num_labels
      24  f64  epsilon
      32  u64  shard_dir_off
      40  u64  hash_idx_off
      48  u64  offset_idx_off
      56  u64  records_off
      64  u64  total_words              (word-model accounting, sizing.py)
      72  u64  file_size                (integrity check)
    shard directory
      (num_shards+1) x u64  slot boundaries into the hash index
      num_shards     x u64  per-shard words (precomputed accounting)
    hash index — num_labels x (u32 crc32(shard_key), u32 record_id),
      grouped by shard, sorted by (crc32, shard_key bytes) within each
      shard, so lookup is one binary search over a slot range
    offset index — (num_labels+1) x u64 record byte offsets relative to
      records_off; record i spans [off[i], off[i+1])
    records — one per label, in SOURCE order (so /2 -> /1 reproduces the
      original JSON byte-for-byte), each its label's three columns::

        vertex   tagged encoding (below)
        u32      K, the number of path keys
        i64      codes[K]   node_id << 32 | phase_idx << 16 | path_idx
        u32      offs[K+1]  portal offsets: key k owns portals
                            offs[k] .. offs[k+1]; offs[0] = 0
        f64      portals[offs[K]] x (pos, dist), ascending pos per key

Files of the retired row layout (magic ``b"RDLBLv2\\n"``, entry headers
inline among the portals) are refused with a
:class:`~repro.core.serialize.SerializationError` that names ``repro
pack``: re-pack them from their ``/1`` JSON.

Vertex encodings are *canonical*: numeric vertices are reduced with
:func:`repro.core.serialize.canonical_vertex` (integral floats become
ints) before encoding, so the hash index, the binary vertex table, and
:func:`repro.serve.store.shard_key` all agree on one key per
numerically-equal vertex family.  Tags::

    0x01 int64   i64
    0x02 float   f64           (never integral: canonicalized away)
    0x03 str     u32 len + utf-8 bytes
    0x04 tuple   u32 count + elements
    0x05 bigint  u32 len + two's-complement little-endian bytes
                 (ints outside the i64 range)
"""

from __future__ import annotations

import math
import mmap
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Optional, Tuple, Union

import numpy as _np

from repro.core.flat import FlatLabel
from repro.core.serialize import (
    SerializationError,
    canonical_vertex,
    shard_key_bytes,
)

Vertex = Hashable

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "BinaryLabelReader",
    "decode_vertex_binary",
    "encode_label_binary",
    "encode_vertex_binary",
    "is_binary_labels",
    "pack_labeling",
    "read_labeling_binary",
    "write_labeling_binary",
]

#: First 8 bytes of every /2 file — the binary twin of the JSON
#: ``"format": "repro-distance-labels/2"`` stamp.  It changed with the
#: columnar records, so readers that predate them (and ignore the
#: version field) refuse the files instead of misreading them.
MAGIC = b"RDLBLc2\n"

#: The magic of the retired row-layout records, kept only to name them
#: when refusing them.
_ROW_MAGIC = b"RDLBLv2\n"

#: The header's record-layout version; a reader refuses any other.
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sIIQdQQQQQQ")
HEADER_BYTES = _HEADER.size  # 80

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_SPAN = struct.Struct("<QQ")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_HASH_ENTRY = struct.Struct("<II")

_TAG_INT = 0x01
_TAG_FLOAT = 0x02
_TAG_STR = 0x03
_TAG_TUPLE = 0x04
_TAG_BIGINT = 0x05

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: A ``FlatLabel``'s columns are native arrays, so they are a record's
#: bytes verbatim only on little-endian hosts.
_LITTLE_ENDIAN = sys.byteorder == "little"


# -- vertex codec ---------------------------------------------------------

def encode_vertex_binary(v: Vertex, out: bytearray) -> None:
    """Append the tagged canonical encoding of *v* to *out*.

    Canonicalization happens here (not in the caller) so every binary
    vertex encoding — record field and hash-index key alike — is the
    one canonical form per numerically-equal vertex family.
    """
    v = canonical_vertex(v)
    if isinstance(v, bool) or v is None:
        raise SerializationError(f"unsupported vertex type {type(v).__name__}")
    if isinstance(v, int):
        if _I64_MIN <= v <= _I64_MAX:
            out.append(_TAG_INT)
            out += _I64.pack(v)
        else:
            raw = v.to_bytes(
                (v.bit_length() + 8) // 8, "little", signed=True
            )
            out.append(_TAG_BIGINT)
            out += _U32.pack(len(raw))
            out += raw
        return
    if isinstance(v, float):
        out.append(_TAG_FLOAT)
        out += _F64.pack(v)
        return
    if isinstance(v, str):
        raw = v.encode("utf-8")
        out.append(_TAG_STR)
        out += _U32.pack(len(raw))
        out += raw
        return
    if isinstance(v, tuple):
        out.append(_TAG_TUPLE)
        out += _U32.pack(len(v))
        for item in v:
            encode_vertex_binary(item, out)
        return
    raise SerializationError(f"unsupported vertex type {type(v).__name__}")


def decode_vertex_binary(buf, pos: int) -> Tuple[Vertex, int]:
    """Decode one tagged vertex at *pos*; returns ``(vertex, next_pos)``."""
    try:
        tag = buf[pos]
    except IndexError:
        raise SerializationError("truncated vertex encoding") from None
    pos += 1
    try:
        if tag == _TAG_INT:
            return _I64.unpack_from(buf, pos)[0], pos + 8
        if tag == _TAG_FLOAT:
            return _F64.unpack_from(buf, pos)[0], pos + 8
        if tag == _TAG_STR:
            (length,) = _U32.unpack_from(buf, pos)
            pos += 4
            raw = bytes(buf[pos : pos + length])
            if len(raw) != length:
                raise SerializationError("truncated vertex encoding")
            return raw.decode("utf-8"), pos + length
        if tag == _TAG_TUPLE:
            (count,) = _U32.unpack_from(buf, pos)
            pos += 4
            items = []
            for _ in range(count):
                item, pos = decode_vertex_binary(buf, pos)
                items.append(item)
            return tuple(items), pos
        if tag == _TAG_BIGINT:
            (length,) = _U32.unpack_from(buf, pos)
            pos += 4
            raw = bytes(buf[pos : pos + length])
            if len(raw) != length:
                raise SerializationError("truncated vertex encoding")
            return int.from_bytes(raw, "little", signed=True), pos + length
    except struct.error:
        raise SerializationError("truncated vertex encoding") from None
    except UnicodeDecodeError as exc:
        raise SerializationError(f"malformed vertex string: {exc}") from None
    raise SerializationError(f"unknown vertex tag 0x{tag:02x}")


# -- label records --------------------------------------------------------

def _from_little_endian(col: array) -> array:
    """A copy of *col* whose items are the values its bytes hold as
    little-endian items (on big-endian hosts ``frombytes`` reads them
    byte-swapped)."""
    items = struct.unpack(f"<{len(col)}{col.typecode}", col.tobytes())
    return array(col.typecode, items)


def _columns(label: FlatLabel) -> list:
    """The record's key count and its label's three columns, as the
    buffers a record is joined from (the arrays themselves on
    little-endian hosts)."""
    columns = [label.codes, label.offs, label.runs]
    if not _LITTLE_ENDIAN:
        columns = [struct.pack(f"<{len(c)}{c.typecode}", *c) for c in columns]
    return [_U32.pack(len(label.codes)), *columns]


def _vertex_field(label: FlatLabel) -> bytes:
    out = bytearray()
    encode_vertex_binary(label.vertex, out)
    return bytes(out)


#: Labels whose portals are joined per vectorised finite check in
#: :func:`pack_labeling`.
_FINITE_CHUNK = 512


def _check_portals_finite(labels: List[FlatLabel]) -> None:
    """Refuse a non-finite portal value in any of *labels*, naming the
    first offending vertex and key.  A vectorised test over the portals
    of :data:`_FINITE_CHUNK` labels at a time (so no full-size copy is
    joined) decides the common case."""
    for lo in range(0, len(labels), _FINITE_CHUNK):
        chunk = b"".join([label.runs for label in labels[lo : lo + _FINITE_CHUNK]])
        if not _np.isfinite(_np.frombuffer(chunk, dtype=_np.float64)).all():
            break
    else:
        return
    for label in labels:
        for key, portals in zip(label.keys, label.entries().values()):
            for pos, dist in portals:
                if not (math.isfinite(pos) and math.isfinite(dist)):
                    raise SerializationError(
                        f"non-finite portal distance in label of vertex "
                        f"{label.vertex!r} (path key {key!r}): "
                        f"({pos!r}, {dist!r})"
                    )


def encode_label_binary(label: FlatLabel) -> bytes:
    """One label as a /2 record.

    Key order is the label's storage order, so a /1 -> /2 -> /1 round
    trip reproduces the original JSON byte-for-byte.  Non-finite
    portal distances are a bug upstream of serialization (the wire
    protocol forbids them) and raise here, same as the JSON codec.
    """
    _check_portals_finite([label])
    return b"".join([_vertex_field(label), *_columns(label)])


def _decode_label_flat(buf, vertex, pos: int, end: int, memo: bool = True):
    """The :class:`repro.core.flat.FlatLabel` of *vertex* whose record
    body (key count and columns) spans ``buf[pos:end]``: one
    ``frombytes`` per column and one ``set`` of the codes to refuse a
    repeat, no per-key loop; the code index is left to the label's
    first read of it.  A resident label (*memo*) builds its merge
    state on first use; a churned one never does.

    The offsets must run from 0 up, without a step down, to the portal
    column's length, and no code may repeat: a record that breaks
    either raises, so no label holds a run that overlaps another key's.
    """
    try:
        (num_keys,) = _U32.unpack_from(buf, pos)
    except struct.error:
        raise SerializationError(
            f"truncated label record for vertex {vertex!r}"
        ) from None
    at_offs = pos + 4 + 8 * num_keys
    at_runs = at_offs + 4 * (num_keys + 1)
    if at_runs > end:
        raise SerializationError(f"truncated label record for vertex {vertex!r}")
    codes = array("q")
    codes.frombytes(buf[pos + 4 : at_offs])
    offs = array("I")
    offs.frombytes(buf[at_offs:at_runs])
    if not _LITTLE_ENDIAN:
        codes, offs = _from_little_endian(codes), _from_little_endian(offs)
    if offs[0] or sorted(offs) != offs.tolist():
        raise SerializationError(
            f"label record for vertex {vertex!r} has malformed portal offsets"
        )
    stray = end - at_runs - 16 * offs[-1]
    if stray < 0:
        raise SerializationError(f"truncated label record for vertex {vertex!r}")
    if stray:
        raise SerializationError(
            f"label record for vertex {vertex!r} has {stray} stray bytes"
        )
    runs = array("d")
    runs.frombytes(buf[at_runs:end])
    if not _LITTLE_ENDIAN:
        runs = _from_little_endian(runs)
    if len(set(codes)) != num_keys:
        raise SerializationError(
            f"label record for vertex {vertex!r} repeats a path key"
        )
    return FlatLabel(vertex, codes, offs, runs, memo=memo)


# -- writer ---------------------------------------------------------------

def pack_labeling(labeling, num_shards: int = 8) -> bytes:
    """Serialize a labeling (anything with ``.epsilon`` and ``.labels``)
    to one /2 blob.

    Records keep the labeling's own order; the shard directory and hash
    index are layered on the side so the mmap reader can route and
    binary-search without touching the records region.  Each record is
    its vertex, its key count and its label's three columns verbatim.
    """
    if num_shards < 1:
        raise SerializationError(f"num_shards must be >= 1, got {num_shards}")
    epsilon = float(labeling.epsilon)
    if not math.isfinite(epsilon):
        raise SerializationError(f"non-finite epsilon {epsilon!r}")
    labels: List[FlatLabel] = list(labeling.labels.values())

    records: list = []
    offsets = [0]
    seen: Dict[Vertex, int] = {}
    total_words = 0
    shard_words = [0] * num_shards
    # (shard, crc32, key bytes, record id) per label, for the index.
    index_rows: List[Tuple[int, int, bytes, int]] = []
    for record_id, label in enumerate(labels):
        canon = canonical_vertex(label.vertex)
        if canon in seen:
            raise SerializationError(
                f"duplicate label for vertex {label.vertex!r}"
            )
        seen[canon] = record_id
        head = _vertex_field(label)
        records.append(head)
        records += _columns(label)
        offsets.append(
            offsets[-1] + len(head) + 4 + 12 * len(label.codes) + 4
            + 16 * label.offs[-1]
        )
        key = shard_key_bytes(canon)
        crc = zlib.crc32(key)
        shard = crc % num_shards
        words = label.words
        total_words += words
        shard_words[shard] += words
        index_rows.append((shard, crc, key, record_id))
    _check_portals_finite(labels)

    index_rows.sort(key=lambda row: (row[0], row[1], row[2]))
    bounds = [0] * (num_shards + 1)
    for shard, _, _, _ in index_rows:
        bounds[shard + 1] += 1
    for shard in range(num_shards):
        bounds[shard + 1] += bounds[shard]

    shard_dir = bytearray()
    for bound in bounds:
        shard_dir += _U64.pack(bound)
    for words in shard_words:
        shard_dir += _U64.pack(words)
    hash_idx = bytearray()
    for _, crc, _, record_id in index_rows:
        hash_idx += _HASH_ENTRY.pack(crc, record_id)
    offset_idx = bytearray()
    for offset in offsets:
        offset_idx += _U64.pack(offset)

    shard_dir_off = HEADER_BYTES
    hash_idx_off = shard_dir_off + len(shard_dir)
    offset_idx_off = hash_idx_off + len(hash_idx)
    records_off = offset_idx_off + len(offset_idx)
    file_size = records_off + offsets[-1]
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        num_shards,
        len(labels),
        epsilon,
        shard_dir_off,
        hash_idx_off,
        offset_idx_off,
        records_off,
        total_words,
        file_size,
    )
    return b"".join(
        [header, bytes(shard_dir), bytes(hash_idx), bytes(offset_idx), *records]
    )


def write_labeling_binary(
    labeling, path: Union[str, Path], num_shards: int = 8
) -> int:
    """Pack *labeling* to *path*; returns the number of bytes written."""
    blob = pack_labeling(labeling, num_shards=num_shards)
    Path(path).write_bytes(blob)
    return len(blob)


def is_binary_labels(source: Union[bytes, bytearray, memoryview]) -> bool:
    """True when *source* starts with a /2 magic, the retired row
    layout's included (so that the reader, not the JSON parser, refuses
    such a file)."""
    return bytes(source[: len(MAGIC)]) in (MAGIC, _ROW_MAGIC)


# -- mmap reader ----------------------------------------------------------

class BinaryLabelReader:
    """Zero-copy view over one /2 file.

    Opening maps the file and reads 80 bytes — O(1) regardless of
    label count.  :meth:`get_flat` routes through the shard directory,
    binary-searches the shard's hash-index slots, and decodes only the
    one record it lands on; the untouched rest of the file stays on
    disk until the OS pages it in.

    Also accepts a ``bytes`` blob directly (tests, in-memory round
    trips) — same layout, no mapping.
    """

    def __init__(self, source: Union[str, Path, bytes, bytearray]) -> None:
        self._mmap: Optional[mmap.mmap] = None
        self._file = None
        self._crcs = self._ids = None
        self.source: Optional[str] = None
        self.closed = False
        if isinstance(source, (bytes, bytearray)):
            self._buf = memoryview(bytes(source))
        else:
            self.source = str(source)
            self._file = open(source, "rb")
            try:
                self._mmap = mmap.mmap(
                    self._file.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (ValueError, OSError) as exc:
                self._file.close()
                raise SerializationError(
                    f"cannot map labels file {self.source!r}: {exc}"
                ) from None
            self._buf = memoryview(self._mmap)
        try:
            self._parse_header()
        except SerializationError:
            self.close()
            raise

    def _parse_header(self) -> None:
        buf = self._buf
        if len(buf) < HEADER_BYTES:
            raise SerializationError(
                "not a repro-distance-labels/2 file (too short for a header)"
            )
        (
            magic,
            version,
            self.num_shards,
            self.num_labels,
            self.epsilon,
            self._shard_dir_off,
            self._hash_idx_off,
            self._offset_idx_off,
            self._records_off,
            self.total_words,
            file_size,
        ) = _HEADER.unpack_from(buf, 0)
        if magic == _ROW_MAGIC:
            raise SerializationError(
                "labels file holds retired row-layout /2 records; "
                "re-pack it from its /1 JSON with `repro pack`"
            )
        if magic != MAGIC:
            raise SerializationError(
                f"not a repro-distance-labels/2 file (magic {magic!r})"
            )
        if version != FORMAT_VERSION:
            raise SerializationError(
                f"labels file has /2 layout version {version}, this build "
                f"reads version {FORMAT_VERSION}; re-pack it from its /1 "
                f"JSON with `repro pack`"
            )
        if file_size != len(buf):
            raise SerializationError(
                f"truncated or padded labels file: header says {file_size} "
                f"bytes, file has {len(buf)}"
            )
        if self.num_shards < 1:
            raise SerializationError("labels file declares zero shards")
        dir_end = self._shard_dir_off + 8 * (2 * self.num_shards + 1)
        hash_end = self._hash_idx_off + _HASH_ENTRY.size * self.num_labels
        off_end = self._offset_idx_off + 8 * (self.num_labels + 1)
        if not (
            HEADER_BYTES
            <= self._shard_dir_off
            <= dir_end
            <= self._hash_idx_off
            <= hash_end
            <= self._offset_idx_off
            <= off_end
            <= self._records_off
            <= len(buf)
        ):
            raise SerializationError("labels file header regions overlap")
        self._bounds = struct.unpack_from(
            f"<{self.num_shards + 1}Q", buf, self._shard_dir_off
        )
        if self._bounds[-1] != self.num_labels:
            raise SerializationError(
                "shard directory does not cover every label"
            )
        if any(lo > hi for lo, hi in zip(self._bounds, self._bounds[1:])):
            raise SerializationError("shard directory bounds out of order")
        if _LITTLE_ENDIAN:
            # Zero-copy u32 columns of the hash index for bisect; the
            # struct loop in _find_record reads it on big-endian hosts.
            slots = buf[self._hash_idx_off : hash_end].cast("I")
            self._crcs, self._ids = slots[::2], slots[1::2]

    # -- accessors --------------------------------------------------------
    @property
    def mapped_bytes(self) -> int:
        return len(self._buf)

    def _require_open(self) -> None:
        if self.closed:
            name = "in-memory" if self.source is None else repr(self.source)
            raise SerializationError(f"labels file {name} is closed")

    def shard_labels(self, shard: int) -> int:
        """Label count of one shard (from the directory, no decode)."""
        self._require_open()
        return self._bounds[shard + 1] - self._bounds[shard]

    def shard_words(self, shard: int) -> int:
        """Word-model size of one shard (precomputed at pack time)."""
        self._require_open()
        off = self._shard_dir_off + 8 * (self.num_shards + 1) + 8 * shard
        return _U64.unpack_from(self._buf, off)[0]

    def _record_span(self, record_id: int) -> Tuple[int, int]:
        self._require_open()
        start, end = _SPAN.unpack_from(self._buf, self._offset_idx_off + 8 * record_id)
        if not (start <= end and self._records_off + end <= len(self._buf)):
            raise SerializationError(
                f"record {record_id} spans outside the file"
            )
        return self._records_off + start, self._records_off + end

    def decode_record_flat(self, record_id: int, memo: bool = True) -> FlatLabel:
        """Materialize one record as a
        :class:`repro.core.flat.FlatLabel`, resident or, without
        *memo*, churned."""
        if not 0 <= record_id < self.num_labels:
            raise SerializationError(f"record id {record_id} out of range")
        start, end = self._record_span(record_id)
        vertex, pos = decode_vertex_binary(self._buf, start)
        return _decode_label_flat(self._buf, vertex, pos, end, memo)

    def record_vertex(self, record_id: int) -> Vertex:
        """Decode only the vertex field of one record (skips portals)."""
        start, _ = self._record_span(record_id)
        vertex, _ = decode_vertex_binary(self._buf, start)
        return vertex

    def shard_of(self, v: Vertex) -> int:
        return zlib.crc32(shard_key_bytes(canonical_vertex(v))) % self.num_shards

    def _find_record(self, v: Vertex) -> Optional[Tuple[Vertex, int, int]]:
        """``(vertex, end of its field, end of record)`` of *v*'s record,
        or None — decoding only vertex fields of same-crc candidates."""
        self._require_open()
        canon = canonical_vertex(v)
        crc = zlib.crc32(shard_key_bytes(canon))
        shard = crc % self.num_shards
        lo, end = self._bounds[shard], self._bounds[shard + 1]
        buf = self._buf
        crcs, ids = self._crcs, self._ids
        if crcs is not None:
            lo = bisect_left(crcs, crc, lo, end)
            while lo < end and crcs[lo] == crc:
                start, stop = self._record_span(ids[lo])
                vertex, pos = decode_vertex_binary(buf, start)
                if vertex == canon:
                    return vertex, pos, stop
                lo += 1
            return None
        base = self._hash_idx_off
        hi = end
        while lo < hi:  # leftmost slot with hash >= crc
            mid = (lo + hi) // 2
            if _U32.unpack_from(buf, base + 8 * mid)[0] < crc:
                lo = mid + 1
            else:
                hi = mid
        while lo < end:
            slot_crc, record_id = _HASH_ENTRY.unpack_from(buf, base + 8 * lo)
            if slot_crc != crc:
                return None
            start, stop = self._record_span(record_id)
            vertex, pos = decode_vertex_binary(buf, start)
            if vertex == canon:
                return vertex, pos, stop
            lo += 1
        return None

    def __contains__(self, v: Vertex) -> bool:
        """Whether *v* has a record; decodes only candidate vertices."""
        return self._find_record(v) is not None

    def get_flat(self, v: Vertex, memo: bool = True) -> Optional[FlatLabel]:
        """The label of *v* as a :class:`repro.core.flat.FlatLabel`,
        or None: one pass from hash slot to label, decoding only
        candidate vertex fields and the one record it lands on; *memo*
        as in :meth:`decode_record_flat`."""
        found = self._find_record(v)
        if found is None:
            return None
        return _decode_label_flat(self._buf, *found, memo)

    def iter_vertices(self) -> Iterator[Vertex]:
        """Vertices in record (source) order, portals left undecoded."""
        for record_id in range(self.num_labels):
            yield self.record_vertex(record_id)

    def iter_labels(self) -> Iterator[FlatLabel]:
        """Fully decoded resident labels in record (source) order."""
        for record_id in range(self.num_labels):
            yield self.decode_record_flat(record_id)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Unmap the file; every later lookup raises
        :class:`SerializationError`."""
        self.closed = True
        for view in (self._crcs, self._ids):
            if view is not None:
                view.release()
        self._crcs = self._ids = None
        buf, self._buf = self._buf, memoryview(b"")
        buf.release()
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "BinaryLabelReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_labeling_binary(source: Union[str, Path, bytes]):
    """Eagerly materialize a /2 file as a :class:`RemoteLabels`.

    This is the offline-query path (``repro query labels.bin U V``):
    decode every record in source order — so a subsequent JSON dump
    reproduces the original /1 file byte-for-byte — refusing duplicate
    vertices the way the JSON loader does.
    """
    from repro.core.serialize import RemoteLabels

    with BinaryLabelReader(source) as reader:
        labels: Dict[Vertex, FlatLabel] = {}
        for label in reader.iter_labels():
            if label.vertex in labels:
                raise SerializationError(
                    f"duplicate label for vertex {label.vertex!r}"
                )
            labels[label.vertex] = label
        return RemoteLabels(float(reader.epsilon), labels)

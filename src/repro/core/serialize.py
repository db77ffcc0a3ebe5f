"""Serialization of distance labels.

Theorem 2's labels are a *distributed* data structure: each vertex
ships its own label, and any two labels answer a distance query with
no further coordination.  This module gives them stable wire formats
so labels can actually be shipped:

* vertices of the kinds our generators produce (ints, floats, strings,
  and nested tuples of those) round-trip exactly;
* each label serializes independently (``encode_label`` /
  ``decode_label``), and a whole labeling bundles them with its
  epsilon (``dump_labeling`` / ``load_labeling``);
* labels are :class:`~repro.core.flat.FlatLabel` objects on both sides:
  the writers read them and both loaders return them, so a loaded
  label re-encodes to the bytes it was read from;
* ``wire_bits`` reports honest wire sizes next to the word-model
  accounting of :mod:`repro.util.sizing`.

Two codecs share the ``repro-distance-labels`` format family:

* ``/1`` — JSON, the debug codec, written and read here;
* ``/2`` — the packed binary codec of :mod:`repro.core.binfmt`
  (fixed-width records, per-shard offset index, mmap-able).

``dump_labeling(..., codec="binary")`` and ``load_labeling`` (which
sniffs the /2 magic) dispatch between them; every reader accepts
either transparently.  A malformed ``/1`` payload (a missing field, a
wrong type, a ``NaN`` or ``Infinity`` token, a key outside the ``/2``
key code's fields, portal positions that decrease) raises
:class:`SerializationError` with a one-line reason.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Hashable, Iterator, List, NamedTuple
from typing import Tuple, Union

from repro.core.labeling import estimate_distance
from repro.util.errors import GraphError, ReproError

if TYPE_CHECKING:  # flat imports this module
    from repro.core.flat import FlatLabel

Vertex = Hashable

#: Wire-format family stamped into every dumped labeling.
LABELS_FORMAT_PREFIX = "repro-distance-labels"
#: The JSON (debug) codec version.
LABELS_FORMAT_VERSION = 1
#: The packed binary codec version (:mod:`repro.core.binfmt`).
LABELS_FORMAT_VERSION_BINARY = 2
#: Every version this build speaks (JSON /1, binary /2).
SUPPORTED_LABELS_VERSIONS = (LABELS_FORMAT_VERSION, LABELS_FORMAT_VERSION_BINARY)
#: The exact JSON ``"format"`` stamp, e.g. ``"repro-distance-labels/1"``.
LABELS_FORMAT = f"{LABELS_FORMAT_PREFIX}/{LABELS_FORMAT_VERSION}"
#: The binary codec's stamp (carried as the file magic, not JSON).
LABELS_FORMAT_BINARY = f"{LABELS_FORMAT_PREFIX}/{LABELS_FORMAT_VERSION_BINARY}"


class SerializationError(ReproError):
    """A value cannot be encoded, or a payload is malformed."""


class RemoteLabels(NamedTuple):
    """Loaded labels, graph-free, with the Theorem-2 query attached.

    This is what the *receiving* side of the wire holds: epsilon plus
    one label per vertex, and nothing else — no graph, no decomposition
    tree.  :meth:`estimate` runs the paper's combine step (minimum over
    shared separator paths of portal-pair sums) directly on two stored
    labels.

    A ``NamedTuple``, so the historical ``epsilon, labels =
    load_labeling(...)`` unpacking keeps working unchanged.
    """

    epsilon: float
    labels: Dict[Vertex, "FlatLabel"]

    def label(self, v: Vertex) -> "FlatLabel":
        try:
            return self.labels[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} has no label") from None

    def estimate(self, u: Vertex, v: Vertex) -> float:
        """(1+eps)-approximate distance from the two stored labels."""
        return estimate_distance(self.label(u), self.label(v))

    def vertices(self) -> Iterator[Vertex]:
        return iter(self.labels)

    @property
    def num_labels(self) -> int:
        return len(self.labels)


def encode_vertex(v):
    """Encode a vertex as JSON-safe data (tuples become tagged lists)."""
    if isinstance(v, bool) or v is None:
        raise SerializationError(f"unsupported vertex type {type(v).__name__}")
    if isinstance(v, (int, float, str)):
        return v
    if isinstance(v, tuple):
        return {"t": [encode_vertex(x) for x in v]}
    raise SerializationError(f"unsupported vertex type {type(v).__name__}")


def decode_vertex(data):
    """Inverse of :func:`encode_vertex` (bools are rejected on both
    sides, or they would silently decode as ints)."""
    if isinstance(data, bool):
        raise SerializationError(f"malformed vertex payload {data!r}")
    if isinstance(data, (int, float, str)):
        return data
    if isinstance(data, dict) and set(data) == {"t"} and isinstance(data["t"], list):
        return tuple(decode_vertex(x) for x in data["t"])
    raise SerializationError(f"malformed vertex payload {data!r}")


def canonical_vertex(v: Vertex) -> Vertex:
    """The canonical member of *v*'s numeric-equality family.

    ``1 == 1.0`` and they hash alike, so a label dict treats them as
    one vertex — but their wire encodings (``1`` vs ``1.0``) differ,
    which used to route them to *different shards*.  Anything that
    derives routing or identity from a vertex's encoding must
    canonicalize first: integral floats collapse to ints, recursively
    through tuples.  Non-numeric vertices pass through unchanged.
    """
    if isinstance(v, float) and not isinstance(v, bool):
        # inf/nan are not integral; is_integer() is False for both.
        if v.is_integer():
            return int(v)
        return v
    if isinstance(v, tuple):
        return tuple(canonical_vertex(x) for x in v)
    return v


def shard_key_bytes(v: Vertex) -> bytes:
    """Stable bytes identifying *v* across processes, runs, and codecs.

    The canonical JSON wire encoding of :func:`canonical_vertex`, so
    numerically-equal vertices (``1`` vs ``1.0``) produce identical
    keys.  Both the serve layer's shard router and the binary codec's
    hash index hash these bytes.
    """
    return json.dumps(
        encode_vertex(canonical_vertex(v)), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def _encode_key(key: Tuple[int, int, int]) -> str:
    return f"{key[0]}:{key[1]}:{key[2]}"


def _decode_key(text: str) -> Tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SerializationError(f"malformed path key {text!r}")
    try:
        return (int(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError:
        raise SerializationError(f"malformed path key {text!r}") from None


def encode_path_key(key: Tuple[int, int, int]) -> str:
    """A path key ``(node_id, phase, path)`` as its wire form ``"n:p:i"``
    — the same encoding label entries use, shared with the delta wire
    format of :mod:`repro.dynamic.rebuild`."""
    return _encode_key(key)


def decode_path_key(text: str) -> Tuple[int, int, int]:
    """Inverse of :func:`encode_path_key`."""
    return _decode_key(text)


def encode_label(label: "FlatLabel") -> dict:
    """One vertex's label as a JSON-safe dict."""
    return {
        "v": encode_vertex(label.vertex),
        "e": {
            _encode_key(key): [[pos, dist] for pos, dist in portals]
            for key, portals in label.entries().items()
        },
    }


def _label_json(label: "FlatLabel") -> str:
    """:func:`encode_label` as compact strict JSON text; a non-finite
    value raises ``ValueError``.  The portals are written straight off
    the label's runs, one ``%`` format per key, instead of through one
    list per portal (``repr`` of a float is its JSON text)."""
    vals, offs = label.runs.tolist(), label.offs
    parts = []
    for k, key in enumerate(label.keys):
        run = vals[2 * offs[k] : 2 * offs[k + 1]]
        if not all(map(math.isfinite, run)):
            raise ValueError(f"non-finite portal under key {key!r}")
        pairs = ",".join(["[%r,%r]"] * (len(run) // 2)) % tuple(run)
        parts.append(f'"{_encode_key(key)}":[{pairs}]')
    vertex = json.dumps(
        encode_vertex(label.vertex), separators=(",", ":"), allow_nan=False
    )
    return '{"v":%s,"e":{%s}}' % (vertex, ",".join(parts))


def _finite_number(value) -> bool:
    """Whether *value* is a JSON number (not a bool) of finite float
    value."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def decode_label(data: dict) -> "FlatLabel":
    """Inverse of :func:`encode_label`: a resident
    :class:`~repro.core.flat.FlatLabel` whose keys keep the payload's
    order.  Anything malformed raises :class:`SerializationError`: so do
    portal positions that decrease under one key, which the combine's
    sorted merge would turn into an underestimate, and a key outside
    the ``/2`` key code's bounds."""
    from repro.core.flat import FlatLabel

    if not (
        isinstance(data, dict) and "v" in data and isinstance(data.get("e"), dict)
    ):
        raise SerializationError(f"malformed label payload {data!r}")
    vertex = decode_vertex(data["v"])
    entries: Dict[Tuple[int, int, int], List[Tuple[float, float]]] = {}
    for key_text, pairs in data["e"].items():
        if not isinstance(pairs, list):
            raise SerializationError(
                f"path key {key_text!r} of vertex {vertex!r} holds {pairs!r}, "
                f"not a portal list"
            )
        portals = []
        for pair in pairs:
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and _finite_number(pair[0])
                and _finite_number(pair[1])
            ):
                raise SerializationError(
                    f"path key {key_text!r} of vertex {vertex!r} holds portal "
                    f"{pair!r}, not two finite numbers"
                )
            portals.append((float(pair[0]), float(pair[1])))
            if len(portals) > 1 and portals[-1][0] < portals[-2][0]:
                raise SerializationError(
                    f"path key {key_text!r} of vertex {vertex!r} holds portal "
                    f"positions out of order ({portals[-2][0]!r} then "
                    f"{portals[-1][0]!r})"
                )
        entries[_decode_key(key_text)] = portals
    return FlatLabel.from_entries(vertex, entries)


def _reject_constant(name: str):
    # json.loads reads NaN and Infinity by default; no writer emits
    # them, so a payload holding one is refused while it is parsed.
    raise SerializationError(f"non-finite number {name} in labels payload")


def check_labels_format(stamp) -> int:
    """Validate a payload's ``"format"`` stamp; returns its version.

    Distinguishes three failure modes so operators (and the serve layer,
    which refuses incompatible files at startup rather than mid-request)
    get actionable one-liners: a missing stamp, a stamp from some other
    format family, and a version this build does not speak.
    """
    if stamp is None:
        raise SerializationError("labels payload has no format stamp")
    if not isinstance(stamp, str) or "/" not in stamp:
        raise SerializationError(f"unknown format {stamp!r}")
    prefix, _, version_text = stamp.rpartition("/")
    if prefix != LABELS_FORMAT_PREFIX:
        raise SerializationError(f"unknown format {stamp!r}")
    try:
        version = int(version_text)
    except ValueError:
        raise SerializationError(f"unknown format {stamp!r}") from None
    if version not in SUPPORTED_LABELS_VERSIONS:
        raise SerializationError(
            f"unsupported labels format version {version} "
            f"(this build reads versions "
            f"{', '.join(map(str, SUPPORTED_LABELS_VERSIONS))})"
        )
    return version


def _find_non_finite(labeling) -> str:
    """Locate the first non-finite value for an actionable error message."""
    if not math.isfinite(labeling.epsilon):
        return f"epsilon is {labeling.epsilon!r}"
    for label in labeling.labels.values():
        for key, portals in label.entries().items():
            for pos, dist in portals:
                if not (math.isfinite(pos) and math.isfinite(dist)):
                    return (
                        f"label of vertex {label.vertex!r} (path key {key!r}) "
                        f"holds ({pos!r}, {dist!r})"
                    )
    return "a non-finite float"


def dump_labeling(
    labeling,
    path: Union[str, Path, None] = None,
    codec: str = "json",
    num_shards: int = 8,
):
    """Serialize a :class:`DistanceLabeling` (optionally to a file).

    Only the shippable state is stored — epsilon plus one label per
    vertex; the graph and the decomposition tree stay behind.

    ``codec="json"`` (default) writes ``repro-distance-labels/1`` and
    returns the JSON text; ``codec="binary"`` writes the packed ``/2``
    format of :mod:`repro.core.binfmt` and returns the blob as
    ``bytes`` (*num_shards* fixes the pack-time shard layout).

    Strict JSON only: a labeling holding a non-finite distance raises
    :class:`SerializationError` instead of silently writing
    ``Infinity`` — the exact token the serve protocol forbids on the
    wire — in either codec.
    """
    if codec == "binary":
        from repro.core import binfmt

        blob = binfmt.pack_labeling(labeling, num_shards=num_shards)
        if path is not None:
            Path(path).write_bytes(blob)
        return blob
    if codec != "json":
        raise SerializationError(
            f"unknown codec {codec!r} (choose 'json' or 'binary')"
        )
    try:
        text = '{"format":%s,"epsilon":%s,"labels":[%s]}' % (
            json.dumps(LABELS_FORMAT),
            json.dumps(labeling.epsilon, allow_nan=False),
            ",".join(map(_label_json, labeling.labels.values())),
        )
    except ValueError:
        raise SerializationError(
            f"labeling is not strict-JSON serializable: "
            f"{_find_non_finite(labeling)}"
        ) from None
    if path is not None:
        Path(path).write_text(text)
    return text


def load_labeling(source: Union[str, Path, bytes]) -> RemoteLabels:
    """Load labels dumped by :func:`dump_labeling`, either codec.

    Accepts a path (JSON or binary, sniffed by the /2 magic), a JSON
    string, or a ``bytes`` blob; returns a :class:`RemoteLabels` —
    deliberately *not* a :class:`DistanceLabeling`, because the loader
    has no graph.  Query with :meth:`RemoteLabels.estimate`, or unpack
    ``epsilon, labels = load_labeling(...)`` as before.

    A payload naming the same vertex twice is corrupt — silently
    keeping the last copy would drop labels — so duplicates raise
    :class:`SerializationError` naming the vertex, in either codec.
    """
    from repro.core import binfmt

    if isinstance(source, (bytes, bytearray)):
        if binfmt.is_binary_labels(source):
            return binfmt.read_labeling_binary(bytes(source))
        try:
            text = bytes(source).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(f"undecodable labels payload: {exc}") from None
    elif isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        path = Path(source)
        with open(path, "rb") as handle:
            head = handle.read(len(binfmt.MAGIC))
        if binfmt.is_binary_labels(head):
            return binfmt.read_labeling_binary(path)
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            raise SerializationError(f"undecodable labels payload: {exc}") from None
    else:
        text = source
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, or an int past 4300 digits
        raise SerializationError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SerializationError("labels payload is not a JSON object")
    version = check_labels_format(payload.get("format"))
    if version != LABELS_FORMAT_VERSION:
        raise SerializationError(
            f"format {LABELS_FORMAT_PREFIX}/{version} is the packed binary "
            f"codec; a JSON payload may only claim {LABELS_FORMAT}"
        )
    if not isinstance(payload.get("labels"), list):
        raise SerializationError("labels payload has no label list")
    if "epsilon" not in payload:
        raise SerializationError("labels payload has no epsilon")
    epsilon = payload["epsilon"]
    if not _finite_number(epsilon):
        raise SerializationError(f"epsilon is {epsilon!r}, not a finite number")
    labels: Dict[Vertex, "FlatLabel"] = {}
    for item in payload["labels"]:
        label = decode_label(item)
        if label.vertex in labels:
            raise SerializationError(
                f"duplicate label for vertex {label.vertex!r}"
            )
        labels[label.vertex] = label
    return RemoteLabels(float(epsilon), labels)


def wire_bits(label, codec: str = "json") -> int:
    """Actual wire size of one encoded label, in bits.

    Strict JSON, like :func:`dump_labeling`: a non-finite distance
    raises rather than silently measuring an ``Infinity`` token no
    reader would accept.  ``codec="binary"`` measures the packed /2
    record instead.
    """
    if codec == "binary":
        from repro.core import binfmt

        return 8 * len(binfmt.encode_label_binary(label))
    try:
        return 8 * len(_label_json(label))
    except ValueError:
        raise SerializationError(
            f"label of vertex {label.vertex!r} holds a non-finite distance"
        ) from None

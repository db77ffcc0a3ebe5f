"""Wire protocol of the query service: newline-delimited JSON.

One request per line, one response line per request, in order.  A
request is a JSON object with an ``"op"`` and op-specific fields::

    {"id": 1, "op": "DIST",  "u": 0, "v": 41}
    {"id": 2, "op": "BATCH", "pairs": [[0, 1], [2, 3]]}
    {"id": 3, "op": "LABEL", "v": 7}
    {"id": 4, "op": "HEALTH"}
    {"id": 5, "op": "STATS"}
    {"id": 6, "op": "METRICS"}
    {"id": 7, "op": "MAP"}

``"id"`` is optional opaque client state echoed back verbatim;
``"store"`` optionally names one of the server's label stores (the
default store answers when absent); ``"trace"`` optionally carries a
distributed trace context (``{"id": hex16, "span": hex16}``, see
:mod:`repro.obs.context`) that the server's spans adopt — advisory,
so a malformed context is ignored rather than rejected.  Vertices use
the same JSON
encoding as the labels file itself (:func:`repro.core.serialize
.encode_vertex`): ints, floats, strings, and ``{"t": [...]}``-tagged
tuples.

Responses are ``{"id": ..., "ok": true, ...}`` on success and
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``
on failure.  Every failure mode a client can trigger — unparseable
JSON, an unknown op, a vertex with no label — produces a structured
error response on the same connection; the server never answers a bad
request by dropping the connection.  Estimates are JSON numbers except
for unreachable pairs (disconnected inputs), which come back as
``{"estimate": null, "unreachable": true}`` so the payload stays
strict JSON (no ``Infinity`` literals on the wire).

Parsing and rendering are transport-free, shared by
:mod:`repro.serve.server` and :mod:`repro.serve.loadgen`.  The line
framing both ends of a connection use, :class:`LineProtocol`, lives
here too; the server's line loop (:mod:`repro.serve.server`) and the
client's connection (:mod:`repro.serve.client`) build on it.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from repro.core.serialize import SerializationError, decode_vertex, encode_vertex
from repro.obs.context import TraceContext
from repro.util.errors import ReproError

Vertex = Hashable

__all__ = [
    "DELTA_ACTIONS",
    "ERROR_CODES",
    "FAULT_ACTIONS",
    "LineProtocol",
    "MAP_ACTIONS",
    "MAX_LINE_BYTES",
    "OPS",
    "ProtocolError",
    "Request",
    "TRANSIENT_CODES",
    "encode_request",
    "encode_response",
    "error_response",
    "estimate_field",
    "ok_response",
    "parse_request",
    "wire_pair",
]

#: Ops the service speaks, in documentation order.  FAULT is the admin
#: op of the fault-injection layer (:mod:`repro.serve.faults`);
#: METRICS is the read-only live-metrics snapshot behind ``repro top``;
#: MAP reads or pushes the node's cluster map (:mod:`repro.cluster`);
#: DELTA reads or advances the node's label epoch with an incremental
#: label delta (:mod:`repro.dynamic`).
OPS = (
    "DIST", "BATCH", "LABEL", "HEALTH", "STATS", "METRICS", "FAULT", "MAP",
    "DELTA",
)

#: FAULT actions a client may request.
FAULT_ACTIONS = ("status", "enable", "disable", "set", "clear")

#: MAP actions: ``get`` returns the node's current cluster map (null on
#: a non-cluster server), ``set`` pushes a strictly newer one.
MAP_ACTIONS = ("get", "set")

#: DELTA actions: ``status`` reports the store's label epoch, ``apply``
#: installs the next epoch's label delta (epoch-gated like MAP ``set``).
DELTA_ACTIONS = ("status", "apply")

#: Longest line either end accepts, newline not counted: one request or
#: reply must fit in it.
MAX_LINE_BYTES = 1 << 20

#: Size of the fixed receive buffer, so the most one ``recv_into``
#: reads.  Longer lines span reads and are joined.
RECV_BYTES = 1 << 16

#: Every error code a response can carry (see docs/serving.md).
ERROR_CODES = (
    "bad_request",     # unparseable line / malformed fields
    "unknown_op",      # op is not one of OPS
    "unknown_store",   # "store" names no loaded labeling
    "unknown_vertex",  # vertex has no label in the store
    "batch_too_large", # BATCH pairs exceed the server cap
    "timeout",         # per-request deadline exceeded
    "unavailable",     # transient refusal (injected fault); retry
    "draining",        # server is shutting down, retry elsewhere
    "internal",        # unexpected server-side failure
    "stale_map",       # client routed by an out-of-date cluster map
    "stale_delta",     # DELTA apply skipped an epoch; resync the journal
)

#: Error codes a client may safely retry: the request never produced an
#: answer, so re-sending it cannot change what the answer will be.
#: ``stale_map`` is deliberately NOT here — retrying the same request at
#: the same node cannot succeed; the client must refresh its map first
#: (the ``refresh_codes`` path of :class:`repro.serve.client
#: .ResilientClient`).  ``stale_delta`` is likewise excluded: the pusher
#: must supply the missing intermediate deltas, not re-send this one.
TRANSIENT_CODES = frozenset({"timeout", "unavailable", "draining", "internal"})


class ProtocolError(ReproError):
    """A request that cannot be served, with its wire error code.

    ``req_id`` carries the request id when parsing got far enough to
    read one, so even a rejected request gets its id echoed back.
    """

    def __init__(self, code: str, message: str, req_id=None) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.req_id = req_id


@dataclass
class Request:
    """One parsed request line."""

    op: str
    id: object = None
    store: Optional[str] = None
    u: Optional[Vertex] = None
    v: Optional[Vertex] = None
    pairs: List[Tuple[Vertex, Vertex]] = field(default_factory=list)
    action: Optional[str] = None  # FAULT / MAP admin action
    plan: Optional[dict] = None   # FAULT "set" payload
    trace: Optional[TraceContext] = None  # propagated trace context
    epoch: Optional[int] = None   # cluster-map epoch the client routed by
    map: Optional[dict] = None    # MAP "set" payload
    delta: Optional[dict] = None  # DELTA "apply" payload (raw wire dict)


def _decode_wire_vertex(data, what: str) -> Vertex:
    try:
        return decode_vertex(data)
    except SerializationError:
        raise ProtocolError(
            "bad_request", f"malformed vertex in {what!r}: {data!r}"
        ) from None


def _reject_constant(name: str):
    # json.loads accepts NaN/Infinity by default; they could never be
    # echoed back (responses are strict JSON), so refuse them up front.
    raise ProtocolError("bad_request", f"non-finite number {name} in request")


def _finite_float(text: str) -> float:
    """``json.loads``'s float hook: ``1e999`` overflows to ``inf``
    without passing ``parse_constant``, and an ``inf`` echoed in
    ``"id"`` would make the *response* unencodable (a fuzz-found way
    to kill a connection), so it is refused as it is parsed."""
    value = float(text)
    if not math.isfinite(value):
        raise ProtocolError("bad_request", "non-finite number in request")
    return value


def parse_request(raw) -> Request:
    """Parse one request line (bytes or str) into a :class:`Request`.

    Raises :class:`ProtocolError` (always with code ``bad_request`` or
    ``unknown_op``) instead of returning partial state.
    """
    if isinstance(raw, (bytes, bytearray)):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("bad_request", "request is not UTF-8") from None
    try:
        payload = json.loads(
            raw, parse_constant=_reject_constant, parse_float=_finite_float
        )
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_request", f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("bad_request", "request is not a JSON object")

    req_id = payload.get("id")
    try:
        return _parse_ops(payload, req_id)
    except ProtocolError as exc:
        exc.req_id = req_id
        raise


def _parse_ops(payload: dict, req_id) -> Request:
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad_request", "request has no \"op\" string")
    op = op.upper()
    if op not in OPS:
        raise ProtocolError(
            "unknown_op", f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    store = payload.get("store")
    if store is not None and not isinstance(store, str):
        raise ProtocolError("bad_request", "\"store\" must be a string")
    # Trace context is advisory: a malformed one is dropped (None), not
    # rejected — observability must never cost a request its answer.
    trace = (
        TraceContext.from_wire(payload["trace"]) if "trace" in payload else None
    )
    epoch = payload.get("epoch")
    if epoch is not None and (isinstance(epoch, bool) or not isinstance(epoch, int)):
        raise ProtocolError("bad_request", "\"epoch\" must be an integer")
    request = Request(op=op, id=req_id, store=store, trace=trace, epoch=epoch)

    if op == "DIST":
        for name in ("u", "v"):
            if name not in payload:
                raise ProtocolError("bad_request", f"DIST needs field {name!r}")
        request.u = _decode_wire_vertex(payload["u"], "u")
        request.v = _decode_wire_vertex(payload["v"], "v")
    elif op == "BATCH":
        pairs = payload.get("pairs")
        if not isinstance(pairs, list):
            raise ProtocolError("bad_request", "BATCH needs a \"pairs\" list")
        for i, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ProtocolError(
                    "bad_request", f"pairs[{i}] is not a [u, v] pair"
                )
            request.pairs.append(
                (
                    _decode_wire_vertex(pair[0], f"pairs[{i}][0]"),
                    _decode_wire_vertex(pair[1], f"pairs[{i}][1]"),
                )
            )
    elif op == "LABEL":
        if "v" not in payload:
            raise ProtocolError("bad_request", "LABEL needs field 'v'")
        request.v = _decode_wire_vertex(payload["v"], "v")
    elif op == "FAULT":
        action = payload.get("action", "status")
        if not isinstance(action, str):
            raise ProtocolError("bad_request", "FAULT \"action\" must be a string")
        action = action.lower()
        if action not in FAULT_ACTIONS:
            raise ProtocolError(
                "bad_request",
                f"unknown FAULT action {action!r}; expected one of "
                f"{', '.join(FAULT_ACTIONS)}",
            )
        if action == "set":
            plan = payload.get("plan")
            if not isinstance(plan, dict):
                raise ProtocolError(
                    "bad_request", "FAULT set needs a \"plan\" object"
                )
            request.plan = plan
        request.action = action
    elif op == "MAP":
        action = payload.get("action", "get")
        if not isinstance(action, str):
            raise ProtocolError("bad_request", "MAP \"action\" must be a string")
        action = action.lower()
        if action not in MAP_ACTIONS:
            raise ProtocolError(
                "bad_request",
                f"unknown MAP action {action!r}; expected one of "
                f"{', '.join(MAP_ACTIONS)}",
            )
        if action == "set":
            cluster_map = payload.get("map")
            if not isinstance(cluster_map, dict):
                raise ProtocolError(
                    "bad_request", "MAP set needs a \"map\" object"
                )
            request.map = cluster_map
        request.action = action
    elif op == "DELTA":
        action = payload.get("action", "status")
        if not isinstance(action, str):
            raise ProtocolError("bad_request", "DELTA \"action\" must be a string")
        action = action.lower()
        if action not in DELTA_ACTIONS:
            raise ProtocolError(
                "bad_request",
                f"unknown DELTA action {action!r}; expected one of "
                f"{', '.join(DELTA_ACTIONS)}",
            )
        if action == "apply":
            delta = payload.get("delta")
            if not isinstance(delta, dict):
                raise ProtocolError(
                    "bad_request", "DELTA apply needs a \"delta\" object"
                )
            request.delta = delta
        request.action = action
    # HEALTH, STATS, and METRICS carry no operands.
    return request


def estimate_field(value: float) -> dict:
    """Render one estimate as response fields (strict-JSON safe)."""
    if math.isfinite(value):
        return {"estimate": value}
    return {"estimate": None, "unreachable": True}


def ok_response(req_id, payload: dict) -> dict:
    return {"id": req_id, "ok": True, **payload}


def error_response(req_id, code: str, message: str) -> dict:
    assert code in ERROR_CODES, code
    return {"id": req_id, "ok": False, "error": {"code": code, "message": message}}


def encode_response(response: dict) -> bytes:
    """One response line, newline-terminated.

    ``allow_nan=False`` guarantees strict JSON: anything non-finite must
    have gone through :func:`estimate_field` first.  Field order is the
    construction order, so identical responses are byte-identical —
    the cache-determinism tests rely on this.
    """
    return (
        json.dumps(response, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def encode_request(payload: dict) -> bytes:
    """Client-side twin of :func:`encode_response` (used by the loadgen)."""
    return (
        json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def wire_pair(u: Vertex, v: Vertex) -> list:
    """A ``[u, v]`` pair in wire encoding (for BATCH requests)."""
    return [encode_vertex(u), encode_vertex(v)]


_recv_local = threading.local()


def _recv_buffer() -> memoryview:
    """This thread's receive buffer, shared by all its connections.

    One event loop runs one callback at a time, and
    :meth:`LineProtocol.buffer_updated` copies a read's bytes out before
    it returns, so no read can land on bytes still in use.  Loops in
    other threads get buffers of their own.
    """
    try:
        return _recv_local.buffer
    except AttributeError:
        _recv_local.buffer = memoryview(bytearray(RECV_BYTES))
        return _recv_local.buffer


class LineProtocol(asyncio.BufferedProtocol):
    """Newline framing over a fixed receive buffer.

    The transport ``recv_into``\\ s the same buffer on every read, so a
    read allocates only the bytes it got (a selector transport's plain
    ``recv`` allocates 256 KiB each time); every connection of a thread
    shares that buffer (:func:`_recv_buffer`).  :meth:`buffer_updated`
    cuts the bytes into complete lines, each still ending in ``b"\\n"``, and
    hands one read's lines to :meth:`lines_received` as one list.  Bytes
    after the last newline wait for the next read.

    A line longer than :data:`MAX_LINE_BYTES` ends the framing: the
    stream is no longer line-synchronized, so ``lines_received`` gets
    the lines before it with ``overflow=True`` and every later byte is
    ignored.
    """

    def __init__(self) -> None:
        self.transport = None
        self._held: List[bytes] = []  # pieces of the unfinished line
        self._held_bytes = 0
        self._overflowed = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return _recv_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        if self._overflowed:
            return
        data = _recv_buffer()[:nbytes].tobytes()
        longest = self._held_bytes + nbytes  # bound on any line's length
        lines = []
        start = 0
        end = data.find(b"\n")
        if end >= 0 and self._held:
            self._held.append(data[: end + 1])
            lines.append(b"".join(self._held))
            self._held = []
            self._held_bytes = 0
            start = end + 1
            end = data.find(b"\n", start)
        while end >= 0:
            lines.append(data[start : end + 1])
            start = end + 1
            end = data.find(b"\n", start)
        if start < nbytes:
            self._held.append(data[start:])
            self._held_bytes += nbytes - start
        overflow = False
        if longest > MAX_LINE_BYTES:
            for i, line in enumerate(lines):
                if len(line) > MAX_LINE_BYTES + 1:
                    del lines[i:]
                    overflow = True
                    break
            overflow = overflow or self._held_bytes > MAX_LINE_BYTES
            if overflow:
                self._overflowed = True
                self._held = []
                self._held_bytes = 0
        if lines or overflow:
            self.lines_received(lines, overflow)

    def take_partial(self) -> bytes:
        """Remove and return the bytes after the last newline."""
        partial = b"".join(self._held)
        self._held = []
        self._held_bytes = 0
        return partial

    def lines_received(self, lines: List[bytes], overflow: bool) -> None:
        raise NotImplementedError

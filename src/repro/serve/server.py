"""Asyncio distance-oracle query server.

:class:`OracleServer` binds a TCP port, reads newline-delimited JSON
requests (:mod:`repro.serve.protocol`), answers them from one or more
:class:`~repro.serve.store.ShardedLabelStore`\\ s, and degrades
predictably under misuse and load:

* **One synchronous line loop** — each connection is a
  :class:`ServerLineProtocol`: the lines of one read are parsed,
  dispatched and encoded in the read callback, and their replies leave
  in one ``transport.write``.  Only a request that must wait (an
  injected delay, drop or slow drain, or an overriding ``_dispatch``
  that returns an awaitable) is finished by a Task; the lines behind it
  queue and its connection stops reading until the queue drains, so
  replies keep their order per connection.
* **Backpressure** — a peer that stops reading fills its transport's
  write buffer, and ``pause_writing`` pauses reading on that connection
  until ``resume_writing``, so the replies buffered for it stay
  bounded.  Handlers that await hold one of ``MAX_INFLIGHT`` semaphore
  slots while they run, and one that finds none free waits for one.
  The built-in ops are synchronous and take no slot.
* **Request timeout** — an awaiting handler gets a structured
  ``timeout`` error when it overruns ``request_timeout``, instead of
  wedging its connection.  The built-in ops are synchronous: an
  event-loop deadline cannot preempt them, so they run without one.
* **Graceful drain** — :meth:`shutdown` (wired to SIGTERM/SIGINT by
  the CLI) stops accepting, lets every in-flight request finish and
  flush its response within ``drain_grace`` seconds, then closes the
  remaining connections.
* **Optional LRU cache** — keyed on the ordered (store, u, v) pair.
  The estimate is symmetric in exact arithmetic but not bit for bit
  (the float combine can differ in the last bit between (u, v) and
  (v, u)), so the two orders are separate entries.  A cached answer is
  the same float object that was computed for that order, so cached
  and uncached responses are byte-identical.

Everything observable goes through :data:`repro.obs.metrics`
(``serve.*`` names — see docs/observability.md) *and* a small always-on
internal counter dict, so the STATS op works even when the global
registry is disabled.
"""

from __future__ import annotations

import asyncio
import contextvars
import inspect
import time
import types
from collections import OrderedDict, deque
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.flat import flat_estimate_many
from repro.core.serialize import encode_label, encode_vertex
from repro.dynamic.rebuild import DeltaError, delta_from_dict
from repro.obs import eventlog, metrics, process_rss_bytes, record_span, span
from repro.obs.timeseries import TimeseriesWriter
from repro.obs.tracing import NOOP_SPAN, Span, tracing_active
from repro.serve.faults import FaultInjector, FaultPlan, FaultPlanError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    RECV_BYTES,
    LineProtocol,
    ProtocolError,
    Request,
    encode_response,
    error_response,
    estimate_field,
    ok_response,
    parse_request,
)
from repro.serve.store import (
    ClusterStoreView,
    ShardNotOwned,
    ShardedLabelStore,
    StoreCatalog,
)
from repro.util.errors import GraphError

Vertex = Hashable

__all__ = ["BATCH_KERNEL_PAIRS", "DEFAULT_MAX_BATCH", "MAX_LINE_BYTES", "OracleServer"]

#: Hard cap on pairs per BATCH request; above it the client gets a
#: ``batch_too_large`` error instead of monopolizing an inflight slot.
DEFAULT_MAX_BATCH = 1024

#: A BATCH of at least this many pairs combines all its resolved pairs
#: in one :func:`~repro.core.flat.flat_estimate_many` call; smaller
#: ones, and DIST, merge each pair with ``flat_estimate``.  Same bits
#: either way.  Timed in process over random pairs of the delaunay
#: n=8192 ``/2`` file that perfbench's ``batch-mmap`` serves (churned
#: labels), per pair, medians of six rounds in each of two sessions on
#: a shared 2-vCPU host: the merge 8.4-10.6 us at any batch size, the
#: kernel 10-11 us in 16-pair calls, 7.5-8.4 us in 32-pair and
#: 6.5-6.8 us in 64-pair ones (a call costs a fixed ~100 us), so it
#: overtakes between 16 and 32.
BATCH_KERNEL_PAIRS = 32


class _LruCache:
    """Tiny LRU for canonicalized pair estimates (capacity 0 disables)."""

    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: "OrderedDict[tuple, float]" = OrderedDict()

    def get(self, key):
        found = self._data.get(key)
        if found is not None:
            self._data.move_to_end(key)
        return found

    def put(self, key, value: float) -> None:
        if self.capacity <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def settle(self, keys, estimates: Optional[List[float]]) -> None:
        """Replace each of *keys* whose entry is still a
        :class:`_Pending` with its slot of *estimates*, in place (the
        LRU order is the one the lookups made), or drop it when
        *estimates* is None (the kernel call failed)."""
        data = self._data
        for key in keys:
            found = data.get(key)
            if type(found) is _Pending:
                if estimates is None:
                    del data[key]
                else:
                    data[key] = estimates[found.slot]

    def clear(self) -> None:
        """Drop every entry (label delta applied: estimates may have
        changed, and a stale cached answer would violate the queries-
        see-old-or-new-never-a-mix consistency model)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class _Pending:
    """A BATCH pair's slot in its kernel call: what
    :meth:`OracleServer._estimate` returns and caches for a miss until
    :meth:`OracleServer._batch` has the estimate."""

    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        self.slot = slot


@types.coroutine
def _resume(coro, pending):
    """Await the rest of *coro*, which already ran until it yielded
    *pending*: by hand, the eager start ``asyncio.Task`` has only from
    Python 3.12 on."""
    while True:
        try:
            value = yield pending
        except BaseException as exc:  # cancellation goes on into coro
            step, value = coro.throw, exc
        else:
            step = coro.send
        try:
            pending = step(value)
        except StopIteration as stop:
            return stop.value


class ServerLineProtocol(LineProtocol):
    """Server end of a connection: one reply per request line, in order.

    ``serve(line, conn)`` makes the coroutine that answers one line and
    writes its reply with :meth:`write`.  Each is stepped once by hand
    in the read callback, in a copy of the context so a span stack it
    leaves open cannot leak.  One that never suspends is answered there
    and then; the replies of one read leave in one ``transport.write``,
    or sooner once they pass :data:`RECV_BYTES`.  One that suspends is
    finished by a Task made in the same context, while the lines behind
    it wait in the queue and reading pauses.  The first step runs outside
    any Task, so it must not reach what needs one, such as an asyncio
    deadline (see :meth:`OracleServer._await_handler`).  Reading also
    pauses while the transport's write buffer is over its high-water
    mark, so a peer that stops reading stops being served.  Blank lines get no reply; a
    line over :data:`MAX_LINE_BYTES` gets ``bad_request``, then the
    connection closes.
    """

    def __init__(self, serve: Callable, connections: set) -> None:
        super().__init__()
        self._serve = serve
        self._connections = connections  # holds self while connected
        self._queue: deque = deque()  # lines not yet served; None = overflow
        self._out: List[bytes] = []
        self._out_bytes = 0
        self._waiting: Optional[asyncio.Task] = None
        self._write_paused = False
        self._drained: Optional[asyncio.Future] = None
        self._eof = False
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self._connections.add(self)

    def connection_lost(self, exc) -> None:
        self._connections.discard(self)
        self._queue.clear()
        if self._waiting is not None:
            self._waiting.cancel()
        self.closed.set_result(None)

    def lines_received(self, lines: List[bytes], overflow: bool) -> None:
        self._queue.extend(lines)
        if overflow:
            self._queue.append(None)
        self._serve_queue()

    def eof_received(self) -> bool:
        # As with a stream's last readline(), an unterminated final line
        # is still a request; the transport closes once all are answered.
        self._queue.append(self.take_partial())
        self._eof = True
        self._serve_queue()
        return True

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._drained is not None and not self._drained.done():
            self._drained.set_result(None)
        self._drained = None
        self._serve_queue()

    def _serve_queue(self) -> None:
        queue = self._queue
        while queue and self._waiting is None and not self._write_paused:
            line = queue.popleft()
            if line is None:
                self.write(encode_response(error_response(
                    None, "bad_request", f"request line exceeds {MAX_LINE_BYTES} bytes"
                )))
                self.flush()
                self.transport.close()
                return
            if not line.strip():
                continue
            coro = self._serve(line, self)
            context = contextvars.copy_context()
            try:
                pending = context.run(coro.send, None)
            except StopIteration:
                if self._out_bytes > RECV_BYTES:
                    self.flush()
                continue
            self._waiting = context.run(
                asyncio.ensure_future, self._finish(coro, pending)
            )
        self.flush()
        if queue or self._waiting is not None or self._write_paused:
            self.transport.pause_reading()
        elif self._eof:
            self.transport.close()
        else:
            self.transport.resume_reading()

    async def _finish(self, coro, pending) -> None:
        try:
            await _resume(coro, pending)
        finally:
            self._waiting = None
        self._serve_queue()

    def write(self, data: bytes) -> None:
        """Queue reply bytes; they leave with the read's other replies."""
        self._out.append(data)
        self._out_bytes += len(data)

    def flush(self) -> None:
        if not self._out:
            return
        data = self._out[0] if len(self._out) == 1 else b"".join(self._out)
        self._out = []
        self._out_bytes = 0
        if not self.transport.is_closing():
            self.transport.write(data)

    async def drain(self) -> None:
        """Flush, then wait while the peer is not reading."""
        self.flush()
        if self._write_paused:
            self._drained = asyncio.get_running_loop().create_future()
            await self._drained


class OracleServer:
    """Serve DIST/BATCH/LABEL/HEALTH/STATS/METRICS/FAULT/MAP/DELTA over
    asyncio TCP.

    With a :class:`~repro.serve.faults.FaultPlan` attached (the
    ``fault_plan`` argument or the runtime FAULT op), responses pass
    through a deterministic fault layer on their way out — see
    :mod:`repro.serve.faults` and :meth:`_write_response`.
    """

    #: Awaiting handlers (an overriding ``_dispatch``) running at once.
    MAX_INFLIGHT = 64

    def __init__(
        self,
        catalog: StoreCatalog,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 0,
        request_timeout: float = 30.0,
        drain_grace: float = 10.0,
        max_batch: int = DEFAULT_MAX_BATCH,
        fault_plan: Optional[FaultPlan] = None,
        timeseries: Optional[TimeseriesWriter] = None,
        cluster=None,
    ) -> None:
        self.catalog = catalog
        # Cluster membership (a repro.cluster.map.ClusterNodeState, but
        # duck-typed here — see ClusterStoreView for why).  When set,
        # the default store routes across every owned shard, data ops
        # are epoch-checked, and the MAP op accepts pushes.
        self.cluster = cluster
        self._cluster_view = (
            ClusterStoreView(catalog, cluster) if cluster is not None else None
        )
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.drain_grace = drain_grace
        self.max_batch = max_batch
        self.cache = _LruCache(cache_size)
        self.faults = FaultInjector(fault_plan)
        self.counters: Dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "errors": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "deltas": 0,
        }
        self.peak_inflight = 0
        self._inflight = 0
        self._sema = asyncio.Semaphore(self.MAX_INFLIGHT)
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        # _active counts handle+write units (not just dispatch): the
        # drain in shutdown() must wait until every in-flight response
        # has been *written*, not merely computed — see _serve_one.
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._shutdown_requested = asyncio.Event()
        self._started_monotonic: Optional[float] = None
        # Live metrics plane: a TimeseriesWriter sampled on an asyncio
        # tick between start() and shutdown() (None = off).
        self.timeseries = timeseries
        self._timeseries_task: Optional[asyncio.Task] = None
        self._timeseries_stop: Optional[asyncio.Event] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        self._export_shard_gauges()
        if self.timeseries is not None:
            if self.timeseries.extra_gauges is None:
                self.timeseries.extra_gauges = self._live_gauges
            self._timeseries_stop = asyncio.Event()
            self._timeseries_task = asyncio.ensure_future(
                self.timeseries.run(self._timeseries_stop)
            )
        eventlog.info(
            "serve.start",
            host=self.host,
            port=self.port,
            stores=len(self.catalog),
            labels=self.catalog.num_labels,
        )
        if self.cluster is not None:
            metrics.gauge("serve.map.epoch", self.cluster.map.epoch)
        # The machine-readable bind announcement: with --port 0 this is
        # how a parent process (cluster up, tests) learns the real port.
        eventlog.info(
            "serve.ready",
            host=self.host,
            port=self.port,
            node=self.cluster.node_id if self.cluster is not None else None,
        )

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def request_shutdown(self) -> None:
        """Signal-handler-safe trigger for :meth:`serve_until_shutdown`."""
        self._shutdown_requested.set()

    async def serve_until_shutdown(self) -> None:
        """Run until :meth:`request_shutdown` fires, then drain."""
        if self._server is None:
            await self.start()
        await self._shutdown_requested.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Drain and stop: no new connections, finish inflight work,
        then close whatever connections remain."""
        if self._draining:
            return
        self._draining = True
        eventlog.info(
            "serve.drain.begin",
            inflight=self._active,
            connections=len(self._connections),
        )
        if self._server is not None:
            self._server.close()
        # Let inflight requests finish and flush within the grace
        # window; requests that arrive meanwhile get `draining`.
        try:
            await asyncio.wait_for(self._idle.wait(), self.drain_grace)
        except asyncio.TimeoutError:
            pass
        # Closing flushes what each transport still buffers; a peer
        # that will not read gets the grace window once more.
        connections = list(self._connections)
        for conn in connections:
            conn.transport.close()
        if connections:
            await asyncio.wait(
                [conn.closed for conn in connections], timeout=self.drain_grace
            )
            for conn in connections:
                conn.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
        if self._timeseries_task is not None:
            self._timeseries_stop.set()
            await self._timeseries_task
            self._timeseries_task = None
        eventlog.info(
            "serve.drain.end",
            requests=self.counters["requests"],
            errors=self.counters["errors"],
        )

    @property
    def draining(self) -> bool:
        return self._draining

    def _export_shard_gauges(self) -> None:
        for store in self.catalog:
            for shard in store.shards:
                metrics.gauge(
                    "serve.shard.labels",
                    shard.num_labels,
                    store=store.name,
                    shard=shard.index,
                )
                metrics.gauge(
                    "serve.shard.words",
                    shard.words,
                    store=store.name,
                    shard=shard.index,
                )
            metrics.gauge("serve.store.labels", store.num_labels, store=store.name)

    # -- request handling -----------------------------------------------
    def _accept(self) -> ServerLineProtocol:
        self.counters["connections"] += 1
        metrics.inc("serve.connections")
        return ServerLineProtocol(self._serve_one, self._connections)

    async def _serve_one(self, line: bytes, conn: ServerLineProtocol) -> None:
        """Handle one request line and write its response to *conn*.

        The built-in path never suspends, so the connection's first step
        of this coroutine answers it (see :class:`ServerLineProtocol`).
        The whole unit — dispatch *and* write — counts as one active
        operation, so :meth:`shutdown` cannot close the connection
        between a computed answer and its write (the BATCH-drain race).

        The unit runs under a ``serve.request`` root span.  With no span
        sink attached the root is the shared no-op span; with one it is
        a real span that adopts the trace context the client sent
        (joining the client's trace), and the parse cost is replayed
        underneath as a ``serve.parse`` child.  A request with no (or
        malformed) trace context still gets a local span tree — it just
        carries no ids, so the JSONL sink skips it unless asked for all
        spans.
        """
        self._active += 1
        self._idle.clear()
        try:
            start_ns = time.monotonic_ns()
            try:
                request, parse_exc = parse_request(line), None
            except ProtocolError as exc:
                request, parse_exc = None, exc
            if tracing_active():
                root = Span(
                    "serve.request",
                    context=request.trace if request is not None else None,
                )
            else:
                root = NOOP_SPAN
            with root:
                record_span("serve.parse", time.monotonic_ns() - start_ns)
                response, op = await self._handle_parsed(request, parse_exc, start_ns)
                if root is not NOOP_SPAN:
                    ok = bool(response.get("ok"))
                    root.set_attribute("op", op)
                    root.set_attribute("ok", ok)
                    if not ok:
                        root.error = response["error"]["code"]
                await self._write_response(conn, response, op)
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()

    async def _handle_parsed(
        self,
        request: Optional[Request],
        parse_exc: Optional[ProtocolError],
        start_ns: int,
    ) -> Tuple[dict, Optional[str]]:
        self.counters["requests"] += 1
        req_id = None
        op = None
        try:
            if parse_exc is not None:
                raise parse_exc
            req_id = request.id
            op = request.op
            if self._draining:
                raise ProtocolError("draining", "server is shutting down")
            result = self._dispatch(request)
            if inspect.isawaitable(result):
                result = await self._await_handler(result)
            else:
                # A built-in op is in flight while it runs, beside the
                # awaiting handlers that hold slots.
                self._note_inflight(self._inflight + 1)
            response = ok_response(req_id, result)
            metrics.inc("serve.requests", op=request.op)
        except ProtocolError as exc:
            if req_id is None:
                req_id = getattr(exc, "req_id", None)
            response = self._error(req_id, exc.code, str(exc))
        except asyncio.TimeoutError:
            response = self._error(
                req_id,
                "timeout",
                f"request exceeded {self.request_timeout}s deadline",
            )
        except Exception as exc:  # noqa: BLE001 - never drop the connection
            response = self._error(req_id, "internal", f"{type(exc).__name__}: {exc}")
        metrics.observe(
            "serve.latency_ns", time.monotonic_ns() - start_ns, op=op or "invalid"
        )
        return response, op

    async def _await_handler(self, result):
        """Await an overriding handler's *result* under the request
        deadline, holding one of the :attr:`MAX_INFLIGHT` slots.

        The connection takes a request's first step in its read
        callback, outside any Task, and an asyncio deadline needs one
        (from Python 3.12, ``wait_for`` runs on ``asyncio.timeout``), so
        yielding once first hands the rest of the request to the Task
        that finishes it.  The slot is returned when the handler is
        done, before the response is written; idle tracking lives in
        :meth:`_serve_one`, which covers the write too.
        """
        await asyncio.sleep(0)
        async with self._sema:
            self._inflight += 1
            self._note_inflight(self._inflight)
            try:
                return await asyncio.wait_for(result, self.request_timeout)
            finally:
                self._inflight -= 1

    def _note_inflight(self, inflight: int) -> None:
        if inflight > self.peak_inflight:
            self.peak_inflight = inflight
            metrics.gauge_max("serve.inflight_peak", inflight)

    async def _write_response(
        self, conn: ServerLineProtocol, response: dict, op: Optional[str]
    ) -> None:
        """Encode one response onto *conn*, applying any injected fault.

        This is the seam the fault layer lives behind: everything the
        network can do to a reply (lose it, delay it, mangle it, dribble
        it) happens here, after the answer is computed, exactly like a
        real lossy path between server and client.  Without a fault it
        never awaits; the connection sends the bytes with the rest of
        its read's replies.
        """
        fault = self.faults.decide(op)
        if fault is not None:
            eventlog.debug(
                "serve.fault",
                op=op,
                drop=fault.drop,
                unavailable=fault.unavailable,
                delay_ms=round(fault.delay_s * 1e3, 3),
                corrupt=fault.corrupt[0] if fault.corrupt else None,
                slow_drain=fault.slow_drain is not None,
            )
        if fault is not None and fault.unavailable:
            response = self._error(
                response.get("id"),
                "unavailable",
                "injected transient fault; safe to retry",
            )
        try:
            with span("serve.encode"):
                data = encode_response(response)
        except ValueError:
            # A response that cannot be strict-JSON encoded (e.g. an
            # exotic id that slipped through parsing) must not kill the
            # connection: degrade to a typed internal error.
            self.counters["errors"] += 1
            metrics.inc("serve.errors", code="internal")
            data = encode_response(
                error_response(None, "internal", "response not serializable")
            )
        if fault is None:
            conn.write(data)
            return
        with span(
            "serve.fault",
            drop=fault.drop,
            unavailable=fault.unavailable,
            delay_ms=round(fault.delay_s * 1e3, 3),
            corrupt=fault.corrupt[0] if fault.corrupt else None,
            slow_drain=fault.slow_drain is not None,
        ):
            if fault.delay_s > 0:
                await asyncio.sleep(fault.delay_s)
            if fault.drop:
                return
            data = fault.apply_to_bytes(data)
            if fault.slow_drain is not None:
                chunk_bytes, interval_s = fault.slow_drain
                for start in range(0, len(data), chunk_bytes):
                    conn.write(data[start : start + chunk_bytes])
                    await conn.drain()
                    if start + chunk_bytes < len(data):
                        await asyncio.sleep(interval_s)
                return
            conn.write(data)

    def _error(self, req_id, code: str, message: str) -> dict:
        self.counters["errors"] += 1
        metrics.inc("serve.errors", code=code)
        return error_response(req_id, code, message)

    # -- dispatch -------------------------------------------------------
    def _dispatch(self, request: Request) -> dict:
        """Answer one parsed request.

        Every built-in op answers synchronously.  This is also the test
        suite's override point for slow handlers: an override may return
        an awaitable, which :meth:`_handle_parsed` awaits under the
        request deadline.
        """
        if request.op == "HEALTH":
            return self._health()
        if request.op == "STATS":
            return self._stats()
        if request.op == "METRICS":
            return self._metrics()
        if request.op == "FAULT":
            return self._fault_admin(request)
        if request.op == "MAP":
            return self._map_admin(request)
        if request.op == "DELTA":
            return self._delta_admin(request)
        if self.cluster is not None and request.epoch is not None:
            # Data ops stamped with a map epoch must agree with the
            # node's map; a disagreement means the client routed here
            # by an out-of-date (or too-new) map.  Unstamped requests
            # pass — plain clients can still talk to a cluster node.
            if request.epoch != self.cluster.map.epoch:
                raise ProtocolError(
                    "stale_map",
                    f"request routed by map epoch {request.epoch}, node is "
                    f"at {self.cluster.map.epoch}; refresh the map",
                )
        store = self._store_for(request)
        if request.op == "DIST":
            return self._dist(store, request.u, request.v)
        if request.op == "BATCH":
            return self._batch(store, request.pairs)
        if request.op == "LABEL":
            return self._label(store, request.v)
        raise ProtocolError("unknown_op", f"unknown op {request.op!r}")

    def _store_for(self, request: Request) -> ShardedLabelStore:
        if request.store is None and self._cluster_view is not None:
            return self._cluster_view
        try:
            return self.catalog.get(request.store)
        except KeyError:
            raise ProtocolError(
                "unknown_store",
                f"unknown store {request.store!r}; loaded: "
                f"{', '.join(self.catalog.names) or '(none)'}",
            ) from None

    def _estimate(self, store: ShardedLabelStore, u: Vertex, v: Vertex,
                  pending: Optional[list] = None):
        """The estimate of ``(u, v)``, from the pair cache or computed.

        With *pending*, a BATCH's kernel list, a miss resolves both
        labels inside its ``serve.estimate`` span, appends them and its
        cache key to *pending*, and returns (and caches) a
        :class:`_Pending` instead of combining them."""
        key = None
        if self.cache.capacity > 0:
            key = (store.name, u, v)
            with span("serve.cache") as cache_span:
                found = self.cache.get(key)
                cache_span.set_attribute("hit", found is not None)
            if found is not None:
                self.counters["cache_hits"] += 1
                metrics.inc("serve.cache.hit")
                return found
            self.counters["cache_misses"] += 1
            metrics.inc("serve.cache.miss")
        if metrics.enabled:
            # Per-shard load for the live metrics plane (`repro top`).
            # Guarded: shard_index hashes the vertex, which the
            # registry-off fast path should not pay for.
            metrics.inc(
                "serve.shard.queries",
                store=store.name,
                shard=store.shard_index(u),
            )
        try:
            with span("serve.estimate") as est_span:
                if est_span is not NOOP_SPAN:
                    # Same guard as above: hash the vertices only for
                    # a span that records them.
                    est_span.set_attribute("store", store.name)
                    est_span.set_attribute("shard_u", store.shard_index(u))
                    est_span.set_attribute("shard_v", store.shard_index(v))
                if pending is None:
                    value = store.estimate(u, v)
                else:
                    value = _Pending(len(pending))
                    pending.append(((store.flat_label(u), store.flat_label(v)), key))
        except ShardNotOwned as exc:
            raise ProtocolError("stale_map", str(exc)) from None
        except GraphError as exc:
            raise ProtocolError("unknown_vertex", str(exc)) from None
        if key is not None:
            self.cache.put(key, value)
            metrics.gauge("serve.cache.size", len(self.cache))
        return value

    def _dist(self, store: ShardedLabelStore, u: Vertex, v: Vertex) -> dict:
        fields = estimate_field(self._estimate(store, u, v))
        return {"op": "DIST", "epsilon": store.epsilon, **fields}

    def _batch(self, store: ShardedLabelStore, pairs) -> dict:
        if len(pairs) > self.max_batch:
            raise ProtocolError(
                "batch_too_large",
                f"{len(pairs)} pairs exceed the server cap of {self.max_batch}",
            )
        metrics.observe("serve.batch.pairs", len(pairs))
        pending = [] if len(pairs) >= BATCH_KERNEL_PAIRS else None
        values = []
        for u, v in pairs:
            try:
                values.append(self._estimate(store, u, v, pending))
            except ProtocolError as exc:
                self.counters["errors"] += 1
                metrics.inc("serve.errors", code=exc.code)
                values.append(exc)
        if pending:
            estimates = None
            try:
                estimates = flat_estimate_many([labels for labels, _ in pending])
            finally:
                self.cache.settle((key for _, key in pending if key is not None), estimates)
        results = []
        for value in values:
            if type(value) is _Pending:
                value = estimates[value.slot]
            if isinstance(value, ProtocolError):
                error = {"code": value.code, "message": str(value)}
                results.append({"ok": False, "error": error})
            else:
                results.append({"ok": True, **estimate_field(value)})
        return {"op": "BATCH", "epsilon": store.epsilon, "results": results}

    def _label(self, store: ShardedLabelStore, v: Vertex) -> dict:
        try:
            label = store.flat_label(v)
        except ShardNotOwned as exc:
            raise ProtocolError("stale_map", str(exc)) from None
        except GraphError as exc:
            raise ProtocolError("unknown_vertex", str(exc)) from None
        return {
            "op": "LABEL",
            "v": encode_vertex(v),
            "shard": store.shard_index(v),
            "words": label.words,
            "num_portals": label.num_portals,
            "label": encode_label(label),
        }

    def _fault_admin(self, request: Request) -> dict:
        """The FAULT admin op: inspect / toggle / replace the fault
        plan at runtime.  Never itself subject to injection, so an
        operator can always shut the chaos off."""
        action = request.action or "status"
        try:
            if action == "set":
                self.faults.set_plan(FaultPlan.from_dict(request.plan))
            elif action == "enable":
                self.faults.enable()
            elif action == "disable":
                self.faults.disable()
            elif action == "clear":
                self.faults.clear()
        except FaultPlanError as exc:
            raise ProtocolError("bad_request", f"bad fault plan: {exc}") from None
        metrics.inc("serve.faults.admin", action=action)
        return {"op": "FAULT", **self.faults.status()}

    def _map_admin(self, request: Request) -> dict:
        """The MAP op: read or push the node's cluster map.

        ``get`` always answers — a non-cluster server returns a null
        map, so a cluster client probing a plain server learns the
        truth instead of an error.  ``set`` installs a pushed map iff
        its epoch is *strictly* newer than the current one; equal or
        older pushes get ``stale_map`` (the pusher is the stale party).
        Like every data-plane answer, MAP responses pass through the
        fault layer — a map push can be dropped or delayed by chaos.
        """
        action = request.action or "get"
        if action == "get":
            if self.cluster is None:
                return {"op": "MAP", "node": None, "epoch": None, "map": None}
            return {
                "op": "MAP",
                "node": self.cluster.node_id,
                "epoch": self.cluster.map.epoch,
                "map": self.cluster.map.to_dict(),
            }
        # action == "set"
        if self.cluster is None:
            raise ProtocolError(
                "bad_request", "this server is not cluster-aware; cannot accept a map"
            )
        # Imported here, not at module level: repro.cluster.client
        # imports repro.serve.client, so a top-level import back into
        # repro.cluster would cycle.
        from repro.cluster.map import ClusterMap, ClusterMapError

        try:
            pushed = ClusterMap.from_dict(request.map)
        except ClusterMapError as exc:
            raise ProtocolError("bad_request", f"bad cluster map: {exc}") from None
        if pushed.epoch <= self.cluster.map.epoch:
            raise ProtocolError(
                "stale_map",
                f"pushed map epoch {pushed.epoch} is not newer than the "
                f"node's epoch {self.cluster.map.epoch}",
            )
        try:
            self.cluster.install(pushed)
        except ClusterMapError as exc:
            raise ProtocolError(
                "bad_request", f"map does not include this node: {exc}"
            ) from None
        metrics.inc("serve.map.pushes")
        metrics.gauge("serve.map.epoch", self.cluster.map.epoch)
        eventlog.info(
            "serve.map.install",
            node=self.cluster.node_id,
            epoch=self.cluster.map.epoch,
        )
        return {
            "op": "MAP",
            "node": self.cluster.node_id,
            "epoch": self.cluster.map.epoch,
            "installed": True,
        }

    def _delta_admin(self, request: Request) -> dict:
        """The DELTA op: read or advance a store's label epoch.

        ``status`` reports where the store is; ``apply`` installs the
        delta iff its epoch is *exactly* ``label_epoch + 1``.  An epoch
        at or below the current one answers ``ok`` with ``noop`` (the
        push is a replay — applying would double-count, but the pusher
        is not wrong), and an epoch that skips ahead gets
        ``stale_delta``: this node is missing intermediate deltas and
        must be resynced from the journal, not papered over.

        Application is synchronous inside the event loop — no awaits
        between the gate and the final entry write — so an in-flight
        DIST/BATCH either completed before the delta or starts after
        it; no query ever reads a half-applied labeling.  The pair
        cache is cleared in the same critical section.
        """
        action = request.action or "status"
        store = self._store_for(request)
        epoch = getattr(store, "label_epoch", 0)
        if action == "status":
            return {
                "op": "DELTA",
                "store": store.name,
                "epoch": epoch,
                "applied_deltas": getattr(store, "applied_deltas", 0),
            }
        # action == "apply"
        try:
            delta = delta_from_dict(request.delta)
        except DeltaError as exc:
            raise ProtocolError("bad_request", f"bad delta: {exc}") from None
        if float(delta.epsilon) != float(store.epsilon):
            raise ProtocolError(
                "bad_request",
                f"delta epsilon {delta.epsilon} does not match store "
                f"{store.name!r} epsilon {store.epsilon}",
            )
        if delta.epoch <= epoch:
            return {
                "op": "DELTA",
                "store": store.name,
                "epoch": epoch,
                "applied": False,
                "noop": True,
            }
        if delta.epoch != epoch + 1:
            raise ProtocolError(
                "stale_delta",
                f"delta epoch {delta.epoch} skips ahead of label epoch "
                f"{epoch}; push the missing epochs first",
            )
        try:
            result = store.apply_delta(delta)
        except DeltaError as exc:
            raise ProtocolError(
                "bad_request", f"delta does not apply: {exc}"
            ) from None
        self.cache.clear()
        self.counters["deltas"] += 1
        metrics.inc("serve.delta.applies")
        metrics.inc(
            "serve.delta.changes", result["changes"] + result["removals"]
        )
        metrics.gauge("serve.delta.epoch", result["epoch"], store=store.name)
        eventlog.info(
            "serve.delta.install",
            store=store.name,
            epoch=result["epoch"],
            changes=result["changes"],
            removals=result["removals"],
            skipped=result.get("skipped", 0),
        )
        payload = {
            "op": "DELTA",
            "store": store.name,
            "epoch": result["epoch"],
            "applied": True,
            "changes": result["changes"],
            "removals": result["removals"],
        }
        if "skipped" in result:
            payload["skipped"] = result["skipped"]
        return payload

    def _cluster_block(self) -> dict:
        return {
            "node": self.cluster.node_id,
            "epoch": self.cluster.map.epoch,
            "owned_shards": sorted(self.cluster.owned),
            "num_shards": self.cluster.map.num_shards,
            "replication": self.cluster.map.replication,
            "nodes": len(self.cluster.map.nodes),
        }

    def _health(self) -> dict:
        return {
            "op": "HEALTH",
            "status": "draining" if self._draining else "serving",
            "stores": len(self.catalog),
            "labels": self.catalog.num_labels,
        }

    def _uptime(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _stats(self) -> dict:
        payload = {
            "op": "STATS",
            "uptime_s": round(self._uptime(), 3),
            "rss_bytes": process_rss_bytes(),
            "inflight": self._inflight,
            "peak_inflight": self.peak_inflight,
            "cache": {"size": len(self.cache), "capacity": self.cache.capacity},
            "counters": dict(self.counters),
            "stores": self.catalog.stats(),
            "faults": self.faults.status(),
        }
        if self.cluster is not None:
            payload["cluster"] = self._cluster_block()
        return payload

    def _metrics(self) -> dict:
        """The METRICS op: a read-only live snapshot shaped for polling
        (``repro top``).  Always-on internals come back regardless;
        the full registry snapshot (per-op latency histograms, cache
        hit counters, …) rides along when the global registry is
        enabled (``repro serve --metrics``)."""
        payload: dict = {
            "op": "METRICS",
            "time": round(time.time(), 3),
            "uptime_s": round(self._uptime(), 3),
            "rss_bytes": process_rss_bytes(),
            "inflight": self._inflight,
            "peak_inflight": self.peak_inflight,
            "connections": len(self._connections),
            "draining": self._draining,
            "cache": {"size": len(self.cache), "capacity": self.cache.capacity},
            "counters": dict(self.counters),
            "shards": {
                store.name: [shard.num_labels for shard in store.shards]
                for store in self.catalog
            },
            "stores": {
                store.name: {
                    "codec": store.codec,
                    "labels": store.num_labels,
                    "mapped_bytes": store.mapped_bytes,
                }
                for store in self.catalog
            },
            "faults": {
                "enabled": self.faults.enabled,
                "decisions": self.faults.decisions,
                "injected": dict(sorted(self.faults.injected.items())),
            },
            "metrics_enabled": metrics.enabled,
        }
        if self.cluster is not None:
            payload["cluster"] = self._cluster_block()
        if metrics.enabled:
            payload["metrics"] = metrics.snapshot()
        return payload

    def _live_gauges(self) -> Dict[str, float]:
        """Extra per-tick gauges for the timeseries writer: live server
        state the registry does not track continuously."""
        return {
            "serve.inflight": self._inflight,
            "serve.connections.open": len(self._connections),
            "serve.cache.size": len(self.cache),
            "proc.rss_bytes": process_rss_bytes(),
        }


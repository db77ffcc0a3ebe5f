"""Resilient client for the oracle query service.

:class:`ResilientClient` is the client the serving layer deserves on a
bad network: per-attempt timeouts, capped exponential backoff with
deterministic jitter, a retry budget, one circuit breaker per shard
address, and optional request hedging for tail latency.  It is what
``repro loadgen``, ``repro chaos``, and ``repro query --remote`` use.

Correctness stance: every retried, hedged, or failed-over answer is
**byte-identical** to the answer a fault-free run would have produced.
That is free here — the ops the client retries (DIST/BATCH/LABEL, all
reads of an immutable labeling) are idempotent, and the server's
responses are deterministic bytes — but the client still has to *not
wreck it*, which constrains the design in two ways:

* A failed attempt poisons its connection (a reply might still arrive
  later and pair with the wrong request), so the connection is closed
  and the retry opens a fresh one.  Responses are matched to requests
  by the echoed ``id``; a mismatch is treated as a transport failure.
  Each connection carries one request at a time: its reply line
  resolves one Future, and the attempt deadline is a timer that fails
  that Future, so an attempt costs no Task of its own.
* Only errors in :data:`~repro.serve.protocol.TRANSIENT_CODES` (and
  transport failures) are retried.  A ``bad_request`` or
  ``unknown_vertex`` reply is the *answer*, not a failure, and is
  raised as :class:`RequestFailed` immediately.

Determinism: backoff jitter for call *n*, attempt *a* is drawn from
``random.Random(derive_seed(seed, "backoff", n, a))`` — replaying a
workload with the same seed produces the same backoff schedule.

The circuit breaker is per *address* (one logical shard endpoint in a
future multi-process deployment): ``closed`` passes traffic, ``open``
fails fast, and after ``reset_after`` seconds a single ``half_open``
probe decides between closing and re-opening.  A client holding
several addresses rotates across the ones whose breakers admit it.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.serialize import encode_vertex
from repro.obs import NOOP_SPAN, current_span, eventlog, metrics, span, tracing_active
from repro.obs.context import TraceContext, trace_id_for
from repro.obs.tracing import Span
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    TRANSIENT_CODES,
    LineProtocol,
    encode_request,
    wire_pair,
)
from repro.util.errors import ReproError
from repro.util.rng import derive_seed

Vertex = Hashable
Address = Tuple[str, int]

__all__ = [
    "CircuitBreaker",
    "ClientError",
    "RequestFailed",
    "ResilientClient",
    "RetryAfterRefresh",
    "RetryPolicy",
    "parse_address",
]


class ClientError(ReproError):
    """The request could not be served within the retry policy."""


class RequestFailed(ClientError):
    """The server answered with a permanent (non-retryable) error."""

    def __init__(self, code: str, message: str, response: dict) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.response = response


class _TransportError(Exception):
    """Internal: this attempt failed in a retryable way."""


class RetryAfterRefresh(_TransportError):
    """The server's typed error says the *client's state* is wrong
    (e.g. ``stale_map``: it routed by an out-of-date cluster map).

    Neither transient (the same request at the same node keeps
    failing) nor permanent (refreshing makes it succeed), this is the
    third error class the transient/permanent split was missing: the
    client must run its ``on_refresh`` callback, then retry.  The
    answering server is healthy — its breaker records a success.
    """

    def __init__(self, code: str, message: str, response: dict) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.response = response


def parse_address(spec: Union[str, Address]) -> Address:
    """``"host:port"`` (or an ``(host, port)`` pair) -> ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ClientError(f"address must look like HOST:PORT, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ClientError(f"bad port in address {spec!r}") from None


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving up on one request."""

    attempts: int = 3               # total attempts (1 = no retries)
    attempt_timeout: float = 1.0    # per-attempt deadline, seconds
    backoff_base: float = 0.05      # first retry waits ~base seconds
    backoff_cap: float = 2.0        # exponential growth is clamped here
    hedge_after: Optional[float] = None  # launch a 2nd attempt after this many
                                         # seconds of silence (None = off)
    retry_budget: Optional[int] = None   # max retries+hedges per client
                                         # lifetime (None = unlimited)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ClientError(f"attempts must be >= 1, got {self.attempts}")
        if self.attempt_timeout <= 0:
            raise ClientError(
                f"attempt_timeout must be > 0, got {self.attempt_timeout}"
            )

    def backoff_delay(self, seed: int, call: int, attempt: int) -> float:
        """Deterministic full-jitter backoff before retry *attempt*."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        rng = random.Random(derive_seed(seed, "backoff", call, attempt))
        # Full jitter on [ceiling/2, ceiling]: desynchronizes retry
        # storms while keeping the wait bounded away from zero.
        return ceiling * (0.5 + 0.5 * rng.random())


class CircuitBreaker:
    """Per-address closed / open / half-open breaker.

    ``failure_threshold`` *consecutive* failures open it; after
    ``reset_after`` seconds one half-open probe is admitted — success
    closes the breaker, failure re-opens it (and restarts the clock).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ClientError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._failures = 0
        self._opened_at = 0.0
        self._open = False
        self._probing = False
        self.opened_total = 0

    @property
    def state(self) -> str:
        if not self._open:
            return self.CLOSED
        if self._clock() - self._opened_at >= self.reset_after:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self) -> bool:
        """May a request go to this address right now?

        In half-open this *claims* the single probe slot: the caller
        must follow up with :meth:`record_success`,
        :meth:`record_failure`, or :meth:`release_probe`, or the
        breaker would stay open forever.
        """
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN and not self._probing:
            self._probing = True  # exactly one probe at a time
            return True
        return False

    def peek(self) -> bool:
        """Non-consuming :meth:`allow`: would a request be admitted,
        without claiming the half-open probe slot?"""
        state = self.state
        if state == self.CLOSED:
            return True
        return state == self.HALF_OPEN and not self._probing

    def release_probe(self) -> None:
        """Give back a probe slot claimed by :meth:`allow` whose
        attempt ended without a recorded outcome (e.g. cancelled)."""
        self._probing = False

    def record_success(self) -> None:
        self._failures = 0
        self._open = False
        self._probing = False

    def record_failure(self) -> None:
        was_half_open = self.state == self.HALF_OPEN
        self._probing = False
        self._failures += 1
        if was_half_open or (
            not self._open and self._failures >= self.failure_threshold
        ):
            self._open = True
            self._opened_at = self._clock()
            self.opened_total += 1
            metrics.inc("client.breaker.opened")


def _timed_out(timeout: float) -> _TransportError:
    return _TransportError(f"attempt timed out after {timeout}s")


class _Connection(LineProtocol):
    """One pooled connection: one request at a time, whose reply line
    resolves :attr:`_reply`.  Any failure is kept in :attr:`failure`,
    and the owner discards the connection."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__()
        self.next_id = 0
        self.failure: Optional[BaseException] = None
        self.closed = loop.create_future()
        self._loop = loop
        self._reply: Optional[asyncio.Future] = None
        self._drained: Optional[asyncio.Future] = None
        self._write_paused = False

    async def request(self, data: bytes, deadline: float, timeout: float) -> bytes:
        """Send one request line; return its reply line, or raise once
        the loop clock passes *deadline*."""
        if self.failure is not None:
            raise self.failure
        reply = self._reply = self._loop.create_future()
        timer = self._loop.call_at(deadline, self._expire, timeout)
        try:
            self.transport.write(data)
            if self._write_paused:
                self._drained = self._loop.create_future()
                await self._drained
            return await reply
        finally:
            timer.cancel()

    def _expire(self, timeout: float) -> None:
        if self._reply is not None:  # a reply already in is not late
            self._fail(_timed_out(timeout))

    def _fail(self, exc: BaseException) -> None:
        if self.failure is None:
            self.failure = exc
        # Only one of the two is awaited at a time: the drain while
        # the transport is paused, the reply after it.
        waiter = self._drained if self._drained is not None else self._reply
        self._drained = self._reply = None
        if waiter is not None and not waiter.done():
            waiter.set_exception(exc)

    def lines_received(self, lines, overflow: bool) -> None:
        for line in lines:
            reply = self._reply
            if reply is None or reply.done():
                self._fail(_TransportError("response desynchronized (unsolicited line)"))
                return
            self._reply = None
            reply.set_result(line)
        if overflow:
            self._fail(_TransportError(f"reply line exceeds {MAX_LINE_BYTES} bytes"))

    def connection_lost(self, exc) -> None:
        self._fail(exc or _TransportError("connection closed by server"))
        self.closed.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        drained, self._drained = self._drained, None
        if drained is not None and not drained.done():
            drained.set_result(None)


class ResilientClient:
    """Retry / backoff / breaker / hedging front-end to one or more
    :class:`~repro.serve.server.OracleServer` addresses.

    Safe for concurrent use from many tasks: connections are pooled per
    address, each concurrent call borrowing its own.  Construct, call
    :meth:`dist` / :meth:`batch` / :meth:`call`, then :meth:`close`.
    """

    def __init__(
        self,
        addresses: Sequence[Union[str, Address]],
        *,
        policy: Optional[RetryPolicy] = None,
        store: Optional[str] = None,
        seed: int = 0,
        breaker_threshold: int = 5,
        breaker_reset: float = 1.0,
        refresh_codes: frozenset = frozenset(),
        on_refresh=None,
    ) -> None:
        parsed = [parse_address(spec) for spec in addresses]
        if not parsed:
            raise ClientError("need at least one server address")
        self.addresses: List[Address] = parsed
        self.policy = policy or RetryPolicy()
        self.store = store
        self.seed = seed
        # Error codes that mean "refresh client state, then retry"
        # (raised internally as RetryAfterRefresh).  ``on_refresh`` is
        # an async callable invoked once per such error before the
        # retry; with no callback the error is still retried — the
        # refresh is whatever the next attempt naturally does.
        self.refresh_codes = frozenset(refresh_codes)
        self.on_refresh = on_refresh
        self.counters: Dict[str, int] = {
            "requests": 0,
            "attempts": 0,
            "retries": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "transient_failures": 0,
            "refreshes": 0,
            "giveups": 0,
            "breaker_skips": 0,
        }
        self._breaker_threshold = breaker_threshold
        self._breaker_reset = breaker_reset
        self._breakers: Dict[Address, CircuitBreaker] = {
            address: CircuitBreaker(breaker_threshold, breaker_reset)
            for address in parsed
        }
        self._pool: Dict[Address, List[_Connection]] = {a: [] for a in parsed}
        self._budget = (
            None if self.policy.retry_budget is None else self.policy.retry_budget
        )
        self._calls = 0

    # -- public ops -----------------------------------------------------
    async def dist(self, u: Vertex, v: Vertex, *, store: Optional[str] = None) -> dict:
        """One DIST round trip; returns the full ok-response dict."""
        return await self.call(
            {"op": "DIST", "u": encode_vertex(u), "v": encode_vertex(v)},
            store=store,
        )

    async def batch(
        self, pairs: Sequence[Tuple[Vertex, Vertex]], *, store: Optional[str] = None
    ) -> dict:
        """One BATCH round trip over *pairs*."""
        return await self.call(
            {"op": "BATCH", "pairs": [wire_pair(u, v) for u, v in pairs]},
            store=store,
        )

    async def call(
        self,
        payload: dict,
        *,
        store: Optional[str] = None,
        addresses: Optional[Sequence[Union[str, Address]]] = None,
    ) -> dict:
        """Send *payload* until it succeeds or the policy is exhausted.

        The ``"id"`` field is owned by the client (one fresh id per
        attempt, echoed back and checked); everything else is sent as
        given.  Returns the decoded ok-response.  Raises
        :class:`RequestFailed` on a permanent server error and
        :class:`ClientError` when attempts, budget, or breakers run out.

        *addresses* restricts this one call to a subset of endpoints —
        the cluster client's routing hook: retries rotate and hedges
        race across *that replica set* only, while breakers and
        connection pools stay shared client-wide.  Unknown addresses
        are adopted (:meth:`ensure_address`) on the fly.
        """
        store = store if store is not None else self.store
        if store is not None:
            payload = {**payload, "store": store}
        candidates: Optional[List[Address]] = None
        if addresses is not None:
            candidates = [self.ensure_address(spec) for spec in addresses]
            if not candidates:
                raise ClientError("empty address subset for call")
        call_index = self._calls
        self._calls += 1
        self.counters["requests"] += 1
        if not tracing_active():
            return await self._call_attempts(payload, call_index, candidates)
        # One root span per logical request.  The trace id is a pure
        # function of (seed, call_index) — see repro.obs.context — so a
        # replayed workload produces byte-identical ids, and the
        # context the attempts put on the wire lets the server's spans
        # join this same trace.
        root = Span(
            "client.request",
            {"op": payload.get("op"), "call": call_index},
            context=TraceContext(trace_id_for(self.seed, call_index)),
        )
        with root:
            try:
                result = await self._call_attempts(payload, call_index, candidates)
            except ClientError:
                root.set_attribute("outcome", "failed")
                raise
            root.set_attribute("outcome", "ok")
            return result

    async def _call_attempts(
        self,
        payload: dict,
        call_index: int,
        candidates: Optional[List[Address]] = None,
    ) -> dict:
        last_failure = "no attempt made"
        refreshed = False
        for attempt in range(self.policy.attempts):
            if attempt > 0:
                if not self._spend_budget():
                    self.counters["giveups"] += 1
                    metrics.inc("client.retries.exhausted")
                    raise ClientError(
                        f"retry budget exhausted after {attempt} attempt(s): "
                        f"{last_failure}"
                    )
                self.counters["retries"] += 1
                metrics.inc("client.retries")
                eventlog.debug(
                    "client.retry", call=call_index, attempt=attempt,
                    reason=last_failure,
                )
                # A refresh retry goes straight back out: backoff is
                # for overload, and a state mismatch is not overload.
                if not refreshed:
                    delay = self.policy.backoff_delay(
                        self.seed, call_index, attempt
                    )
                    if delay > 0:
                        await asyncio.sleep(delay)
            refreshed = False
            address = self._pick_address(call_index + attempt, candidates)
            if address is None:
                self.counters["breaker_skips"] += 1
                metrics.inc("client.breaker.skipped")
                last_failure = "all circuit breakers open"
                continue
            try:
                if attempt == 0 and self.policy.hedge_after is not None:
                    return await self._hedged(
                        address, payload, call_index, candidates
                    )
                kind = "initial" if attempt == 0 else "retry"
                return await self._attempt(address, payload, kind=kind)
            except RetryAfterRefresh as exc:
                self.counters["refreshes"] += 1
                metrics.inc("client.refreshes", code=exc.code)
                eventlog.debug(
                    "client.refresh", call=call_index, code=exc.code,
                    reason=str(exc),
                )
                last_failure = str(exc)
                if self.on_refresh is not None:
                    await self.on_refresh(exc)
                refreshed = True
                continue
            except _TransportError as exc:
                self.counters["transient_failures"] += 1
                last_failure = str(exc)
                continue
        self.counters["giveups"] += 1
        metrics.inc("client.retries.exhausted")
        eventlog.warn(
            "client.giveup", call=call_index, attempts=self.policy.attempts,
            reason=last_failure,
        )
        raise ClientError(
            f"request failed after {self.policy.attempts} attempt(s): "
            f"{last_failure}"
        )

    async def close(self) -> None:
        """Close every pooled connection."""
        closing = []
        for pool in self._pool.values():
            while pool:
                conn = pool.pop()
                conn.transport.close()
                closing.append(conn.closed)
        if closing:
            await asyncio.wait(closing)

    def stats(self) -> dict:
        """Counters plus per-address breaker states (JSON-safe)."""
        return {
            "counters": dict(self.counters),
            "breakers": {
                f"{host}:{port}": {
                    "state": breaker.state,
                    "opened_total": breaker.opened_total,
                }
                for (host, port), breaker in self._breakers.items()
            },
        }

    # -- attempt machinery ----------------------------------------------
    def _spend_budget(self) -> bool:
        if self._budget is None:
            return True
        if self._budget <= 0:
            return False
        self._budget -= 1
        return True

    def ensure_address(self, spec: Union[str, Address]) -> Address:
        """Adopt *spec* as a known endpoint (breaker + pool) if it is
        not one already; returns the parsed address.  How a refreshed
        cluster map introduces nodes the client was not born with."""
        address = parse_address(spec)
        if address not in self._breakers:
            self.addresses.append(address)
            self._breakers[address] = CircuitBreaker(
                self._breaker_threshold, self._breaker_reset
            )
            self._pool[address] = []
        return address

    def _pick_address(
        self, rotation: int, candidates: Optional[List[Address]] = None
    ) -> Optional[Address]:
        """First address (rotating) whose breaker admits traffic."""
        pool = self.addresses if candidates is None else candidates
        n = len(pool)
        for offset in range(n):
            address = pool[(rotation + offset) % n]
            # peek(), not allow(): claiming the half-open probe slot
            # here would leak it — _attempt() is the one claimant.
            if self._breakers[address].peek():
                return address
        return None

    async def _hedged(
        self,
        address: Address,
        payload: dict,
        call_index: int,
        candidates: Optional[List[Address]] = None,
    ) -> dict:
        """First attempt with a hedge: if the primary is silent for
        ``hedge_after`` seconds, race a second attempt; first success
        wins, the loser is cancelled.  Byte-exactness is preserved —
        both attempts would return identical bytes."""
        primary = asyncio.ensure_future(self._attempt(address, payload))
        done, _ = await asyncio.wait({primary}, timeout=self.policy.hedge_after)
        if done:
            return primary.result()  # may raise _TransportError / RequestFailed
        if not self._spend_budget():
            return await primary
        self.counters["hedges"] += 1
        metrics.inc("client.hedges")
        eventlog.debug(
            "client.hedge", call=call_index,
            hedge_after_ms=round(self.policy.hedge_after * 1e3, 3),
        )
        backup_address = self._pick_address(call_index + 1, candidates) or address
        backup = asyncio.ensure_future(
            self._attempt(backup_address, payload, kind="hedge")
        )
        pending = {primary, backup}
        first_error: Optional[BaseException] = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    try:
                        result = task.result()
                    except (_TransportError, RequestFailed) as exc:
                        # Prefer the most informative loser: a permanent
                        # answer beats a refresh signal beats a plain
                        # transport failure.
                        if (
                            first_error is None
                            or isinstance(exc, RequestFailed)
                            or (
                                isinstance(exc, RetryAfterRefresh)
                                and not isinstance(first_error, RequestFailed)
                            )
                        ):
                            first_error = exc
                        continue
                    if task is backup:
                        self.counters["hedge_wins"] += 1
                        metrics.inc("client.hedge_wins")
                    opened = current_span()
                    if opened is not None and opened.name == "client.request":
                        opened.set_attribute(
                            "winner", "hedge" if task is backup else "primary"
                        )
                    return result
            assert first_error is not None
            raise first_error
        finally:
            for task in (primary, backup):
                if not task.done():
                    task.cancel()
                    try:
                        await task
                    except (
                        asyncio.CancelledError,
                        _TransportError,
                        RequestFailed,
                    ):
                        pass

    async def _attempt(
        self, address: Address, payload: dict, kind: str = "initial"
    ) -> dict:
        """One attempt against one address, under the attempt timeout.

        Success / failure feeds the address's breaker.  Raises
        :class:`_TransportError` for anything retryable.

        With tracing on, each attempt is a ``client.attempt`` child
        span tagged with the address, its *kind* (initial / retry /
        hedge), and the breaker state it saw — a cancelled losing
        hedge still closes its span (tagged ``cancelled``) — and the
        attempt's own span id goes on the wire as the trace context,
        so the server's ``serve.request`` nests under the exact
        attempt that reached it.
        """
        if not tracing_active():
            return await self._attempt_inner(address, payload, None)
        with span(
            "client.attempt",
            address=f"{address[0]}:{address[1]}",
            kind=kind,
            breaker=self._breakers[address].state,
        ) as attempt_span:
            context = None
            if attempt_span is not NOOP_SPAN and attempt_span.trace_id is not None:
                context = TraceContext(
                    attempt_span.trace_id, attempt_span.span_id
                )
            try:
                return await self._attempt_inner(address, payload, context)
            except asyncio.CancelledError:
                attempt_span.set_attribute("cancelled", True)
                raise

    async def _attempt_inner(
        self, address: Address, payload: dict, context: Optional[TraceContext]
    ) -> dict:
        breaker = self._breakers[address]
        if not breaker.allow():
            raise _TransportError(f"breaker open for {address[0]}:{address[1]}")
        self.counters["attempts"] += 1
        metrics.inc("client.attempts")
        try:
            try:
                response = await self._roundtrip(address, payload, context)
            except (ConnectionError, OSError) as exc:
                breaker.record_failure()
                raise _TransportError(f"{type(exc).__name__}: {exc}") from None
            except _TransportError:
                breaker.record_failure()
                raise
            if response.get("ok"):
                breaker.record_success()
                return response
            error = response.get("error") if isinstance(response, dict) else None
            code = (error or {}).get("code", "internal")
            message = (error or {}).get("message", "")
            if code in self.refresh_codes:
                # The server answered definitively — it is healthy, so
                # its breaker records success — but *our* state (not
                # the request) is what it rejected.  Refresh and retry.
                breaker.record_success()
                raise RetryAfterRefresh(code, message, response)
            if code in TRANSIENT_CODES:
                # The server is reachable but declined this attempt; that
                # still counts against the breaker — a server stuck
                # answering `unavailable` deserves fail-fast too.
                breaker.record_failure()
                raise _TransportError(f"transient server error {code}: {message}")
            breaker.record_success()  # a permanent answer is a healthy server
            raise RequestFailed(code, message, response)
        finally:
            # record_success/record_failure already freed the probe
            # slot; this covers exits that recorded nothing (a losing
            # hedge cancelled mid-flight, an unexpected error) so a
            # claimed half-open probe can never be leaked.
            breaker.release_probe()

    async def _roundtrip(
        self,
        address: Address,
        payload: dict,
        context: Optional[TraceContext] = None,
    ) -> dict:
        """Borrow a connection, do one request/response, return it.

        The attempt deadline covers the connect, the write and the
        reply.  Any failure — including a timeout or cancellation by a
        losing hedge — discards the connection: a late reply on a
        reused socket would desynchronize the request/response pairing.
        """
        timeout = self.policy.attempt_timeout
        deadline = asyncio.get_running_loop().time() + timeout
        conn = await self._acquire(address, deadline, timeout)
        try:
            conn.next_id += 1
            rid = f"r{conn.next_id}.{id(conn) & 0xFFFF:x}"
            request = {**payload, "id": rid}
            if context is not None:
                request["trace"] = context.to_wire()
            line = await conn.request(encode_request(request), deadline, timeout)
            try:
                response = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise _TransportError(
                    f"unparseable response: {line[:80]!r}"
                ) from None
            if not isinstance(response, dict) or response.get("id") != rid:
                raise _TransportError("response desynchronized (wrong id)")
        except BaseException:
            conn.transport.close()
            raise
        self._pool[address].append(conn)
        return response

    async def _acquire(
        self, address: Address, deadline: float, timeout: float
    ) -> _Connection:
        pool = self._pool[address]
        if pool:
            return pool.pop()
        loop = asyncio.get_running_loop()
        try:
            _, conn = await asyncio.wait_for(
                loop.create_connection(lambda: _Connection(loop), *address),
                deadline - loop.time(),
            )
        except asyncio.TimeoutError:
            raise _timed_out(timeout) from None
        metrics.inc("client.connections")
        return conn

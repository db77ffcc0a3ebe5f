"""ResilientClient: breaker state machine, backoff, budgets, hedging."""

import asyncio
import json

import pytest

from repro.serve import OracleServer
from repro.serve.client import (
    CircuitBreaker,
    ClientError,
    RequestFailed,
    ResilientClient,
    RetryPolicy,
    _TransportError,
    parse_address,
)
from repro.serve.faults import FaultPlan


def run(coro):
    return asyncio.run(coro)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("example.com:7471") == ("example.com", 7471)
        assert parse_address(("h", 9)) == ("h", 9)
        assert parse_address("::1:7471") == ("::1", 7471)

    @pytest.mark.parametrize("spec", ["nohost", ":7471", "h:notaport"])
    def test_rejects(self, spec):
        with pytest.raises(ClientError):
            parse_address(spec)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ClientError):
            RetryPolicy(attempts=0)
        with pytest.raises(ClientError):
            RetryPolicy(attempt_timeout=0)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        first = [policy.backoff_delay(7, call, 1) for call in range(5)]
        again = [policy.backoff_delay(7, call, 1) for call in range(5)]
        assert first == again  # same seed -> same schedule
        assert first != [policy.backoff_delay(8, call, 1) for call in range(5)]
        for attempt in range(1, 12):
            delay = policy.backoff_delay(0, 0, attempt)
            ceiling = min(0.5, 0.1 * 2 ** (attempt - 1))
            assert ceiling / 2 <= delay <= ceiling  # full jitter, bounded

    def test_backoff_grows_exponentially_before_cap(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=100.0)
        # Upper envelope doubles each attempt.
        for attempt in range(1, 6):
            assert policy.backoff_delay(1, 1, attempt) <= 0.05 * 2 ** (attempt - 1)


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=kwargs.get("failure_threshold", 3),
            reset_after=kwargs.get("reset_after", 10.0),
            clock=lambda: clock["now"],
        )
        return breaker, clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opened_total == 1

    def test_success_resets_the_count(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # everyone else waits
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()

    def test_failed_probe_reopens_immediately(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed: open again, clock restarted
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opened_total == 2
        clock["now"] = 19.9
        assert breaker.state == CircuitBreaker.OPEN
        clock["now"] = 20.0
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_peek_does_not_claim_the_probe_slot(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.peek() and breaker.peek()  # non-consuming
        assert breaker.allow()                    # the probe claims it
        assert not breaker.peek()                 # slot held
        # An attempt that ends without a recorded outcome must give the
        # slot back, or the breaker would stay open forever.
        breaker.release_probe()
        assert breaker.peek() and breaker.allow()

    def test_threshold_validation(self):
        with pytest.raises(ClientError):
            CircuitBreaker(failure_threshold=0)


async def _started(catalog, **kwargs):
    server = OracleServer(catalog, port=0, **kwargs)
    await server.start()
    return server


class TestClientAgainstServer:
    def test_clean_dist_and_batch(self, catalog, remote_labels):
        async def main():
            server = await _started(catalog)
            client = ResilientClient([("127.0.0.1", server.port)])
            dist = await client.dist((0, 0), (3, 3))
            batch = await client.batch([((0, 0), (1, 1)), ((2, 2), (4, 4))])
            await client.close()
            await server.shutdown()
            return dist, batch, client.counters

        dist, batch, counters = run(main())
        assert dist["estimate"] == remote_labels.estimate((0, 0), (3, 3))
        assert [i["estimate"] for i in batch["results"]] == [
            remote_labels.estimate((0, 0), (1, 1)),
            remote_labels.estimate((2, 2), (4, 4)),
        ]
        assert counters["retries"] == 0 and counters["attempts"] == 2

    def test_permanent_error_is_not_retried(self, catalog):
        async def main():
            server = await _started(catalog)
            client = ResilientClient(
                [("127.0.0.1", server.port)],
                policy=RetryPolicy(attempts=5, backoff_base=0.01),
            )
            with pytest.raises(RequestFailed) as info:
                await client.dist((0, 0), (99, 99))
            counters = dict(client.counters)
            await client.close()
            await server.shutdown()
            return info.value, counters

        exc, counters = run(main())
        assert exc.code == "unknown_vertex"
        assert counters["attempts"] == 1  # the answer, not a failure
        assert counters["retries"] == 0

    def test_breaker_recovers_after_opening(self, catalog, remote_labels):
        # Regression: address selection used to *claim* the half-open
        # probe slot, then the attempt re-checked the breaker, refused
        # itself, and the slot was never released — the breaker stayed
        # open forever and every later call died with "all circuit
        # breakers open".  An open breaker must heal once the server
        # does.
        async def main():
            staged = FaultPlan.from_dict(
                {"seed": 3, "stages": [
                    {"requests": 2,
                     "rules": [{"kind": "unavailable", "rate": 1.0}]},
                    {"rules": [{"kind": "unavailable", "rate": 0.0}]},
                ]}
            )
            server = await _started(catalog, fault_plan=staged)
            client = ResilientClient(
                [("127.0.0.1", server.port)],
                policy=RetryPolicy(attempts=8, backoff_base=0.04),
                breaker_threshold=2,   # the two staged failures open it
                breaker_reset=0.05,    # heal within the backoff schedule
            )
            response = await client.dist((0, 0), (2, 2))
            stats = client.stats()
            await client.close()
            await server.shutdown()
            return response, stats

        response, stats = run(main())
        assert response["estimate"] == remote_labels.estimate((0, 0), (2, 2))
        (breaker,) = stats["breakers"].values()
        assert breaker["opened_total"] >= 1   # it really did trip
        assert breaker["state"] == CircuitBreaker.CLOSED

    def test_retries_through_unavailable_faults(self, catalog, remote_labels):
        async def main():
            # Fail the first two decisions entirely, then go clean.
            staged = FaultPlan.from_dict(
                {"seed": 5, "stages": [
                    {"requests": 2,
                     "rules": [{"kind": "unavailable", "rate": 1.0}]},
                    {"rules": [{"kind": "unavailable", "rate": 0.0}]},
                ]}
            )
            server = await _started(catalog, fault_plan=staged)
            client = ResilientClient(
                [("127.0.0.1", server.port)],
                policy=RetryPolicy(attempts=4, backoff_base=0.005),
                breaker_threshold=50,
            )
            response = await client.dist((0, 0), (2, 2))
            counters = dict(client.counters)
            await client.close()
            await server.shutdown()
            return response, counters

        response, counters = run(main())
        assert response["estimate"] == remote_labels.estimate((0, 0), (2, 2))
        assert counters["retries"] >= 1
        assert counters["transient_failures"] >= 1

    def test_exhaustion_raises_client_error(self, catalog):
        async def main():
            plan = FaultPlan.from_rules([{"kind": "unavailable", "rate": 1.0}])
            server = await _started(catalog, fault_plan=plan)
            client = ResilientClient(
                [("127.0.0.1", server.port)],
                policy=RetryPolicy(attempts=3, backoff_base=0.003),
                breaker_threshold=50,
            )
            with pytest.raises(ClientError, match="after 3 attempt"):
                await client.dist((0, 0), (1, 1))
            counters = dict(client.counters)
            await client.close()
            await server.shutdown()
            return counters

        counters = run(main())
        assert counters["giveups"] == 1
        assert counters["attempts"] == 3

    def test_retry_budget_exhaustion(self, catalog):
        async def main():
            plan = FaultPlan.from_rules([{"kind": "unavailable", "rate": 1.0}])
            server = await _started(catalog, fault_plan=plan)
            client = ResilientClient(
                [("127.0.0.1", server.port)],
                policy=RetryPolicy(
                    attempts=10, backoff_base=0.003, retry_budget=2
                ),
                breaker_threshold=100,
            )
            with pytest.raises(ClientError, match="retry budget exhausted"):
                await client.dist((0, 0), (1, 1))
            counters = dict(client.counters)
            await client.close()
            await server.shutdown()
            return counters

        counters = run(main())
        assert counters["retries"] == 2  # the whole budget, no more

    def test_breaker_opens_against_dead_server(self, catalog):
        async def main():
            server = await _started(catalog)
            port = server.port
            await server.shutdown()  # nothing listens here any more
            client = ResilientClient(
                [("127.0.0.1", port)],
                policy=RetryPolicy(attempts=6, backoff_base=0.002),
                breaker_threshold=3,
                breaker_reset=60.0,
            )
            with pytest.raises(ClientError):
                await client.dist((0, 0), (1, 1))
            stats = client.stats()
            await client.close()
            return stats

        stats = run(main())
        (state,) = stats["breakers"].values()
        assert state["state"] == "open"
        assert state["opened_total"] == 1
        assert stats["counters"]["breaker_skips"] >= 1

    def test_timeout_is_transient(self, catalog, remote_labels):
        async def main():
            # Drop every reply in stage one (the client times the attempt
            # out), then serve cleanly: the retry must get the answer.
            staged = FaultPlan.from_dict(
                {"stages": [
                    {"requests": 1, "rules": [{"kind": "drop", "rate": 1.0}]},
                    {"rules": [{"kind": "drop", "rate": 0.0}]},
                ]}
            )
            server = await _started(catalog, fault_plan=staged)
            client = ResilientClient(
                [("127.0.0.1", server.port)],
                policy=RetryPolicy(
                    attempts=3, attempt_timeout=0.15, backoff_base=0.005
                ),
            )
            response = await client.dist((0, 0), (1, 0))
            counters = dict(client.counters)
            await client.close()
            await server.shutdown()
            return response, counters

        response, counters = run(main())
        assert response["estimate"] == remote_labels.estimate((0, 0), (1, 0))
        assert counters["retries"] == 1

    def test_corrupt_replies_are_detected_and_retried(
        self, catalog, remote_labels
    ):
        async def main():
            staged = FaultPlan.from_dict(
                {"seed": 2, "stages": [
                    {"requests": 1,
                     "rules": [{"kind": "corrupt", "rate": 1.0,
                                "mode": "garble"}]},
                    {"requests": 1,
                     "rules": [{"kind": "corrupt", "rate": 1.0,
                                "mode": "truncate"}]},
                    {"rules": [{"kind": "corrupt", "rate": 0.0}]},
                ]}
            )
            server = await _started(catalog, fault_plan=staged)
            client = ResilientClient(
                [("127.0.0.1", server.port)],
                policy=RetryPolicy(
                    attempts=5, attempt_timeout=0.3, backoff_base=0.005
                ),
            )
            response = await client.dist((0, 0), (2, 1))
            counters = dict(client.counters)
            await client.close()
            await server.shutdown()
            return response, counters

        response, counters = run(main())
        # Both corruption modes were survived and the final answer is
        # the byte-exact offline estimate.
        assert response["estimate"] == remote_labels.estimate((0, 0), (2, 1))
        assert counters["retries"] == 2

    def test_hedging_wins_against_a_stalled_reply(self, catalog, remote_labels):
        async def main():
            # Exactly the first decision stalls for much longer than the
            # hedge trigger; the hedged second attempt lands first.
            staged = FaultPlan.from_dict(
                {"stages": [
                    {"requests": 1,
                     "rules": [{"kind": "delay", "rate": 1.0,
                                "delay_ms": 1500}]},
                    {"rules": [{"kind": "delay", "rate": 0.0}]},
                ]}
            )
            server = await _started(catalog, fault_plan=staged)
            client = ResilientClient(
                [("127.0.0.1", server.port)],
                policy=RetryPolicy(
                    attempts=2, attempt_timeout=5.0, hedge_after=0.08
                ),
            )
            start = asyncio.get_running_loop().time()
            response = await client.dist((0, 0), (1, 1))
            elapsed = asyncio.get_running_loop().time() - start
            counters = dict(client.counters)
            await client.close()
            await server.shutdown()
            return response, counters, elapsed

        response, counters, elapsed = run(main())
        assert response["estimate"] == remote_labels.estimate((0, 0), (1, 1))
        assert counters["hedges"] == 1
        assert counters["hedge_wins"] == 1
        assert elapsed < 1.0  # did not wait out the 1.5s stall

    def test_concurrent_callers_share_one_client(self, catalog, remote_labels):
        async def main():
            server = await _started(catalog)
            client = ResilientClient([("127.0.0.1", server.port)])
            pairs = [((0, 0), (i % 5, (i * 2) % 5)) for i in range(1, 12)]
            responses = await asyncio.gather(
                *(client.dist(u, v) for u, v in pairs)
            )
            await client.close()
            await server.shutdown()
            return pairs, responses

        pairs, responses = run(main())
        for (u, v), response in zip(pairs, responses):
            assert response["estimate"] == remote_labels.estimate(u, v)

    def test_needs_an_address(self):
        with pytest.raises(ClientError):
            ResilientClient([])


class TestRetryAfterRefresh:
    def test_refresh_code_triggers_hook_then_immediate_retry(self):
        """A ``stale_map``-style refresh code is not a failure: the
        client runs ``on_refresh``, retries with no backoff, and the
        breaker never sees a failure.  Regression test for the refresh
        path charging the breaker / sleeping out the backoff."""
        refreshed = []

        async def main():
            replies = {"count": 0}

            async def handle(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    if replies["count"] == 0:
                        reply = {
                            "id": request["id"],
                            "ok": False,
                            "error": {
                                "code": "stale_map",
                                "message": "request epoch 1, node epoch 2",
                            },
                        }
                    else:
                        reply = {
                            "id": request["id"],
                            "ok": True,
                            "op": "DIST",
                            "estimate": 4.0,
                        }
                    replies["count"] += 1
                    writer.write(json.dumps(reply).encode() + b"\n")
                    await writer.drain()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]

            async def on_refresh(exc):
                refreshed.append(exc)

            client = ResilientClient(
                [("127.0.0.1", port)],
                # A fat backoff_base so the elapsed-time assertion can
                # tell "retried immediately" from "slept out a backoff".
                policy=RetryPolicy(
                    attempts=3, attempt_timeout=2.0, backoff_base=0.5
                ),
                refresh_codes=frozenset({"stale_map"}),
                on_refresh=on_refresh,
            )
            try:
                started = asyncio.get_running_loop().time()
                response = await client.call({"op": "DIST"})
                elapsed = asyncio.get_running_loop().time() - started
                return response, dict(client.counters), client.stats(), elapsed
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        response, counters, stats, elapsed = run(main())
        assert response["ok"] and response["estimate"] == 4.0
        assert len(refreshed) == 1
        assert refreshed[0].code == "stale_map"
        assert counters["refreshes"] == 1
        assert counters["retries"] == 1  # the refresh retry is counted
        assert counters["giveups"] == 0
        assert elapsed < 0.4  # no backoff sleep before the refresh retry
        for breaker in stats["breakers"].values():
            assert breaker["state"] == "closed"
            assert breaker["opened_total"] == 0

    def test_refresh_codes_exhaust_attempts_eventually(self):
        """A server that answers the refresh code forever must not loop:
        attempts are still bounded by the policy."""

        async def main():
            async def handle(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    writer.write(
                        json.dumps(
                            {
                                "id": request["id"],
                                "ok": False,
                                "error": {"code": "stale_map", "message": ""},
                            }
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ResilientClient(
                [("127.0.0.1", port)],
                policy=RetryPolicy(
                    attempts=3, attempt_timeout=2.0, backoff_base=0.01
                ),
                refresh_codes=frozenset({"stale_map"}),
            )
            try:
                with pytest.raises(ClientError) as info:
                    await client.call({"op": "DIST"})
                return str(info.value), dict(client.counters)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        message, counters = run(main())
        assert "stale_map" in message
        assert counters["refreshes"] == 3
        assert counters["giveups"] == 1


async def _fake_server(reply):
    """A stream server answering each request line with
    ``await reply(request, writer)``; returns ``(server, port)``."""

    async def handle(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                await reply(json.loads(line), writer)
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _ok(request, **fields) -> bytes:
    return json.dumps({"id": request["id"], "ok": True, **fields}).encode() + b"\n"


class TestConnection:
    """One request at a time per pooled connection, its reply on one
    Future: timeouts, cancellation, early close and a wrong id each
    discard the connection."""

    def _roundtrip(self, reply, policy=None, calls=1):
        async def main():
            server, port = await _fake_server(reply)
            client = ResilientClient(
                [("127.0.0.1", port)], policy=policy or RetryPolicy(attempts=1)
            )
            address = client.addresses[0]
            outcomes = []
            for _ in range(calls):
                try:
                    outcomes.append(
                        await client._roundtrip(address, {"op": "DIST"})
                    )
                except _TransportError as exc:
                    outcomes.append(exc)
            pooled = list(client._pool[address])
            await client.close()
            server.close()
            await server.wait_closed()
            return outcomes, pooled

        return run(main())

    def test_attempt_timeout_discards_and_late_reply_never_pairs(self):
        seen, late = [], []

        async def reply(request, writer):
            seen.append(request["id"])
            if len(seen) == 1:
                await asyncio.sleep(0.5)  # past the 0.4 s attempt deadline
                late.append(True)
            else:
                while not late:  # answer only after the late reply went out
                    await asyncio.sleep(0.01)
            writer.write(_ok(request))
            await writer.drain()

        (timed_out, second), pooled = self._roundtrip(
            reply, RetryPolicy(attempts=1, attempt_timeout=0.4), calls=2
        )
        assert isinstance(timed_out, _TransportError)
        assert str(timed_out) == "attempt timed out after 0.4s"
        # The second request went out on a fresh connection and got its
        # own reply, not the first request's late one.
        assert second["ok"] and second["id"] == seen[1] and late
        assert len(pooled) == 1

    def test_server_close_mid_reply(self):
        async def reply(request, writer):
            writer.write(_ok(request)[:10])  # half a line, then close
            await writer.drain()
            writer.close()

        (outcome,), pooled = self._roundtrip(reply)
        assert isinstance(outcome, _TransportError)
        assert str(outcome) == "connection closed by server"
        assert pooled == []

    def test_wrong_echoed_id_is_desynchronized(self):
        async def reply(request, writer):
            writer.write(_ok({"id": "somebody-else"}))
            await writer.drain()

        (outcome,), pooled = self._roundtrip(reply)
        assert isinstance(outcome, _TransportError)
        assert "desynchronized" in str(outcome)
        assert pooled == []

    def test_cancelled_hedge_loser_closes_its_connection(self, catalog):
        async def main():
            staged = FaultPlan.from_dict(
                {"stages": [
                    {"requests": 1,
                     "rules": [{"kind": "delay", "rate": 1.0,
                                "delay_ms": 1500}]},
                    {"rules": [{"kind": "delay", "rate": 0.0}]},
                ]}
            )
            server = await _started(catalog, fault_plan=staged)
            client = ResilientClient(
                [("127.0.0.1", server.port)],
                policy=RetryPolicy(attempts=2, attempt_timeout=5.0, hedge_after=0.08),
            )
            opened = []
            acquire = client._acquire

            async def tracked(*args):
                conn = await acquire(*args)
                opened.append(conn)
                return conn

            client._acquire = tracked
            await client.dist((0, 0), (1, 1))
            loser, winner = opened
            await asyncio.wait_for(loser.closed, 5)
            state = (
                winner.transport.is_closing(),
                client._pool[client.addresses[0]] == [winner],
                client.counters["hedge_wins"],
            )
            await client.close()
            await server.shutdown()
            return state

        winner_closing, winner_pooled, hedge_wins = run(main())
        assert hedge_wins == 1
        assert not winner_closing and winner_pooled

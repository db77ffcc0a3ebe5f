"""OracleServer behavior over real TCP connections.

Each test spins up a server on an ephemeral port inside ``asyncio.run``
(no event-loop plugin needed) and talks to it through the ``rpc``
helper from conftest.
"""

import asyncio
import itertools
import json

from repro.core import build_decomposition, build_labeling
from repro.core.serialize import dump_labeling, load_labeling
from repro.generators import random_delaunay_graph
from repro.serve import (
    MAX_LINE_BYTES,
    OracleServer,
    ShardedLabelStore,
    StoreCatalog,
)
from repro.serve.server import DEFAULT_MAX_BATCH

from tests.serve.conftest import rpc


def run(coro):
    return asyncio.run(coro)


async def _started(catalog, **kwargs) -> OracleServer:
    server = OracleServer(catalog, port=0, **kwargs)
    await server.start()
    return server


def wire(v):
    from repro.core.serialize import encode_vertex

    return encode_vertex(v)


class TestRoundTrips:
    def test_dist_matches_offline_estimate_exactly(self, catalog, remote_labels):
        async def main():
            server = await _started(catalog)
            pairs = [((0, 0), (4, 4)), ((1, 2), (3, 0)), ((0, 4), (4, 0))]
            requests = [
                {"id": i, "op": "DIST", "u": wire(u), "v": wire(v)}
                for i, (u, v) in enumerate(pairs)
            ]
            lines = await rpc(server.port, requests)
            await server.shutdown()
            return pairs, lines

        pairs, lines = run(main())
        for (u, v), line in zip(pairs, lines):
            response = json.loads(line)
            assert response["ok"] is True
            # Acceptance bar: the served float is the offline float,
            # not an approximation of it.
            assert response["estimate"] == remote_labels.estimate(u, v)
            assert response["epsilon"] == remote_labels.epsilon

    def test_batch(self, catalog, remote_labels):
        async def main():
            server = await _started(catalog)
            pairs = [[wire((0, 0)), wire((2, 2))], [wire((1, 1)), wire((9, 9))]]
            (line,) = await rpc(server.port, [{"op": "BATCH", "pairs": pairs}])
            await server.shutdown()
            return line

        response = json.loads(run(main()))
        good, bad = response["results"]
        assert good["ok"] and good["estimate"] == remote_labels.estimate(
            (0, 0), (2, 2)
        )
        assert bad["ok"] is False and bad["error"]["code"] == "unknown_vertex"

    def test_label_health_stats(self, catalog, remote_labels):
        async def main():
            server = await _started(catalog)
            lines = await rpc(
                server.port,
                [
                    {"op": "LABEL", "v": wire((2, 2))},
                    {"op": "HEALTH"},
                    {"op": "STATS"},
                ],
            )
            await server.shutdown()
            return lines

        label, health, stats = map(json.loads, run(main()))
        assert label["words"] == remote_labels.label((2, 2)).words
        assert health["status"] == "serving"
        assert health["labels"] == remote_labels.num_labels
        assert stats["stores"]["grid"]["labels"] == remote_labels.num_labels
        assert stats["counters"]["requests"] >= 2


class TestErrorHandling:
    def test_malformed_then_valid_on_same_connection(self, catalog):
        async def main():
            server = await _started(catalog)
            lines = await rpc(
                server.port,
                [
                    b"this is not json\n",
                    {"op": "DIST", "u": wire((0, 0)), "v": wire((1, 1))},
                ],
            )
            await server.shutdown()
            return lines

        bad, good = map(json.loads, run(main()))
        # A malformed request gets a structured reply and the
        # connection keeps serving.
        assert bad["ok"] is False and bad["error"]["code"] == "bad_request"
        assert good["ok"] is True

    def test_unlabeled_vertex(self, catalog):
        async def main():
            server = await _started(catalog)
            lines = await rpc(
                server.port,
                [
                    {"id": 5, "op": "DIST", "u": wire((0, 0)), "v": wire((7, 7))},
                    {"op": "HEALTH"},
                ],
            )
            await server.shutdown()
            return lines

        error, health = map(json.loads, run(main()))
        assert error["id"] == 5
        assert error["error"]["code"] == "unknown_vertex"
        assert health["ok"] is True  # connection survived

    def test_unknown_store(self, catalog):
        async def main():
            server = await _started(catalog)
            (line,) = await rpc(
                server.port,
                [{"op": "DIST", "u": wire((0, 0)), "v": wire((1, 1)),
                  "store": "west"}],
            )
            await server.shutdown()
            return line

        assert json.loads(run(main()))["error"]["code"] == "unknown_store"

    def test_batch_too_large(self, catalog):
        async def main():
            server = await _started(catalog, max_batch=2)
            pairs = [[wire((0, 0)), wire((1, 1))]] * 3
            (line,) = await rpc(server.port, [{"op": "BATCH", "pairs": pairs}])
            await server.shutdown()
            return line

        assert json.loads(run(main()))["error"]["code"] == "batch_too_large"
        assert DEFAULT_MAX_BATCH >= 1024

    def test_oversized_line_gets_reply_then_close(self, catalog):
        async def main():
            server = await _started(catalog)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"x" * (MAX_LINE_BYTES + 10) + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 10)
            trailer = await asyncio.wait_for(reader.read(), 10)  # EOF
            writer.close()
            await server.shutdown()
            return line, trailer

        line, trailer = run(main())
        assert json.loads(line)["error"]["code"] == "bad_request"
        assert trailer == b""

    def test_request_timeout(self, catalog):
        class SlowServer(OracleServer):
            async def _dispatch(self, request):
                await asyncio.sleep(0.5)
                return super()._dispatch(request)

        async def main():
            server = SlowServer(catalog, port=0, request_timeout=0.05)
            await server.start()
            (line,) = await rpc(server.port, [{"id": 1, "op": "HEALTH"}])
            await server.shutdown()
            return line

        response = json.loads(run(main()))
        assert response["id"] == 1
        assert response["error"]["code"] == "timeout"


class TestCache:
    def test_cached_answer_byte_equal_and_symmetric(self, catalog):
        async def main():
            server = await _started(catalog, cache_size=16)
            request = {"id": 1, "op": "DIST", "u": wire((0, 0)), "v": wire((3, 4))}
            flipped = {"id": 1, "op": "DIST", "u": wire((3, 4)), "v": wire((0, 0))}
            lines = await rpc(server.port, [request, request, flipped])
            counters = dict(server.counters)
            await server.shutdown()
            return lines, counters

        (first, second, third), counters = run(main())
        assert first == second  # cached answer is byte-equal to uncached
        assert json.loads(third)["estimate"] == json.loads(first)["estimate"]
        # miss, hit, miss: (v, u) is its own entry, since the float
        # combine is not bit-symmetric (see the test below)
        assert counters["cache_misses"] == 2
        assert counters["cache_hits"] == 1

    def test_reversed_pair_never_served_from_the_other_order(self):
        # Regression: the cache once keyed (u, v) and (v, u) alike, so
        # a pair whose two orders differ in the last bit was answered
        # with the other order's bytes.  Delaunay n=32 has such a pair.
        graph = random_delaunay_graph(32, seed=0)[0]
        labeling = build_labeling(graph, build_decomposition(graph))
        remote = load_labeling(dump_labeling(labeling))
        verts = sorted(remote.vertices(), key=repr)
        u, v = next(
            (a, b) for a, b in itertools.combinations(verts, 2)
            if remote.estimate(a, b) != remote.estimate(b, a)
        )
        catalog = StoreCatalog()
        catalog.add(ShardedLabelStore.from_remote("d", remote))

        async def main():
            server = await _started(catalog, cache_size=16)
            lines = await rpc(server.port, [
                {"id": 1, "op": "DIST", "u": wire(v), "v": wire(u)},
                {"id": 2, "op": "DIST", "u": wire(u), "v": wire(v)},
            ])
            await server.shutdown()
            return [json.loads(line)["estimate"] for line in lines]

        vu, uv = run(main())
        assert repr(vu) == repr(remote.estimate(v, u))
        assert repr(uv) == repr(remote.estimate(u, v))

    def test_cache_evicts_at_capacity(self, catalog, remote_labels):
        async def main():
            server = await _started(catalog, cache_size=2)
            vs = sorted(remote_labels.vertices())
            requests = [
                {"op": "DIST", "u": wire(vs[0]), "v": wire(v)} for v in vs[1:6]
            ]
            await rpc(server.port, requests)
            size = len(server.cache)
            await server.shutdown()
            return size

        assert run(main()) == 2

    def test_cache_off_by_default(self, catalog):
        async def main():
            server = await _started(catalog)
            request = {"op": "DIST", "u": wire((0, 0)), "v": wire((1, 1))}
            await rpc(server.port, [request, request])
            counters = dict(server.counters)
            await server.shutdown()
            return counters

        counters = run(main())
        assert counters["cache_hits"] == 0 and counters["cache_misses"] == 0


class TestBackpressure:
    def test_inflight_never_exceeds_cap(self, catalog):
        class SlowServer(OracleServer):
            MAX_INFLIGHT = 2

            async def _dispatch(self, request):
                await asyncio.sleep(0.03)
                return super()._dispatch(request)

        async def main():
            server = SlowServer(catalog, port=0)
            await server.start()
            lines = await asyncio.gather(
                *(rpc(server.port, [{"id": i, "op": "HEALTH"}]) for i in range(8))
            )
            peak = server.peak_inflight
            await server.shutdown()
            return lines, peak

        lines, peak = run(main())
        assert all(json.loads(batch[0])["ok"] for batch in lines)
        # 8 concurrent connections, at most 2 requests executing.
        assert peak <= 2


class TestGracefulShutdown:
    def test_drain_finishes_inflight_request(self, catalog):
        class SlowServer(OracleServer):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                self.entered = asyncio.Event()

            async def _dispatch(self, request):
                self.entered.set()
                await asyncio.sleep(0.2)
                return super()._dispatch(request)

        async def main():
            server = SlowServer(catalog, port=0, drain_grace=5.0)
            await server.start()
            port = server.port
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(json.dumps({"id": 1, "op": "HEALTH"}).encode() + b"\n")
            await writer.drain()
            await server.entered.wait()  # request is now inflight
            shutdown = asyncio.create_task(server.shutdown())
            line = await asyncio.wait_for(reader.readline(), 10)
            await shutdown
            # Once drained, the listener is gone.
            try:
                await asyncio.open_connection("127.0.0.1", port)
                refused = False
            except (ConnectionError, OSError):
                refused = True
            writer.close()
            return line, refused, server.draining

        line, refused, draining = run(main())
        response = json.loads(line)
        # The inflight request completed and its response was flushed.
        assert response["ok"] is True and response["status"] in (
            "serving",
            "draining",
        )
        assert refused
        assert draining

    def test_shutdown_idempotent_and_idle(self, catalog):
        async def main():
            server = await _started(catalog)
            await server.shutdown()
            await server.shutdown()  # second call is a no-op
            return server.draining

        assert run(main())

    def test_drain_waits_for_inflight_response_write(self, catalog):
        """Regression: the BATCH-drain race.

        The old drain signal fired when the dispatch semaphore was
        released — *before* the response bytes were written — so a
        shutdown landing between compute and flush closed the writer
        mid-response.  Now the active-op counter covers the write:
        shutdown must deliver the full reply even when it arrives while
        the server is sleeping inside the write path.
        """

        class SlowWriteServer(OracleServer):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                self.computed = asyncio.Event()

            async def _write_response(self, writer, response, op):
                self.computed.set()  # the answer exists; bytes do not yet
                await asyncio.sleep(0.3)
                await super()._write_response(writer, response, op)

        async def main():
            server = SlowWriteServer(catalog, port=0, drain_grace=5.0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            pairs = [
                [{"t": [0, 0]}, {"t": [i, i]}] for i in range(1, 5)
            ]
            writer.write(
                json.dumps({"id": 7, "op": "BATCH", "pairs": pairs}).encode()
                + b"\n"
            )
            await writer.drain()
            await server.computed.wait()
            # Shutdown lands exactly in the compute-to-flush window.
            await server.shutdown()
            line = await asyncio.wait_for(reader.readline(), 10)
            writer.close()
            return line

        response = json.loads(run(main()))
        assert response["ok"] is True and response["id"] == 7
        assert len(response["results"]) == 4
        assert all(item["ok"] for item in response["results"])

    def test_sigterm_mid_batch_still_delivers(self, remote_labels, tmp_path):
        """SIGTERM arriving while a BATCH response is delayed in the
        write path (fault-injected latency) must not cost the reply:
        the server drains, the client gets every byte, exit code 0."""
        import json as json_mod
        import os
        import signal
        import socket
        import subprocess
        import sys
        import time

        from repro.core.serialize import dump_labeling, encode_vertex

        labels = tmp_path / "labels.json"
        dump_labeling(remote_labels, labels)
        plan = tmp_path / "plan.json"
        plan.write_text(json_mod.dumps({
            "format": "repro-fault-plan/1",
            "rules": [{"kind": "delay", "rate": 1.0, "delay_ms": 800}],
        }))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--labels", str(labels), "--port", "0",
             "--fault-plan", str(plan)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            port = None
            deadline = time.monotonic() + 20
            for out_line in proc.stdout:
                if "serving" in out_line:
                    port = int(out_line.rsplit(":", 1)[1])
                    break
                assert time.monotonic() < deadline, "server never announced"
            assert port, "no port announced"
            pairs = [
                [encode_vertex((0, 0)), encode_vertex((i, i))]
                for i in range(1, 5)
            ]
            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                s.sendall(
                    json_mod.dumps(
                        {"id": 1, "op": "BATCH", "pairs": pairs}
                    ).encode() + b"\n"
                )
                time.sleep(0.3)  # the reply is now stuck in the 800ms delay
                proc.send_signal(signal.SIGTERM)
                s.settimeout(15)
                chunks = b""
                while b"\n" not in chunks:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    chunks += chunk
            response = json_mod.loads(chunks)
            assert response["ok"] is True and response["id"] == 1
            assert [item["estimate"] for item in response["results"]] == [
                remote_labels.estimate((0, 0), (i, i)) for i in range(1, 5)
            ]
            stdout, _ = proc.communicate(timeout=20)
            assert proc.returncode == 0
            assert "drained:" in stdout
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

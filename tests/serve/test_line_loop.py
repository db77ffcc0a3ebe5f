"""The server's synchronous line loop, driven over raw sockets.

Each test starts an :class:`OracleServer` on an ephemeral port and
writes bytes exactly as a peer might: a pipelined burst in one send, a
line split across two sends, blank lines, an oversize line, a fault
delay, and a peer that never reads.
"""

import asyncio
import json
import socket
import time

from repro.core.serialize import encode_vertex
from repro.serve import MAX_LINE_BYTES, OracleServer
from repro.serve.faults import FaultPlan
from repro.serve.protocol import RECV_BYTES
from repro.serve.server import ServerLineProtocol


def run(coro):
    return asyncio.run(coro)


def dist(i: int, u=(0, 0), v=(4, 4)) -> bytes:
    request = {"id": i, "op": "DIST", "u": encode_vertex(u), "v": encode_vertex(v)}
    return json.dumps(request).encode() + b"\n"


class CountingServer(OracleServer):
    """Records every ``transport.write`` its connections make."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.writes = []

    def _accept(self) -> ServerLineProtocol:
        conn = super()._accept()
        made = conn.connection_made

        def connection_made(transport):
            write = transport.write

            def counted(data):
                self.writes.append(bytes(data))
                write(data)

            transport.write = counted
            made(transport)

        conn.connection_made = connection_made
        return conn


async def _open(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def _read_lines(reader, count):
    return [await asyncio.wait_for(reader.readline(), 10) for _ in range(count)]


class TestFraming:
    def test_pipelined_burst_answered_in_order_with_one_write(self, catalog):
        async def main():
            server = CountingServer(catalog, port=0)
            await server.start()
            reader, writer = await _open(server)
            writer.write(b"".join(dist(i, v=(i % 5, 4)) for i in range(40)))
            await writer.drain()
            lines = await _read_lines(reader, 40)
            writer.close()
            await server.shutdown()
            return lines, server.writes

        lines, writes = run(main())
        replies = [json.loads(line) for line in lines]
        assert [r["id"] for r in replies] == list(range(40))
        assert all(r["ok"] for r in replies)
        # All forty replies of the one read left in one transport.write.
        assert len(writes) == 1 and writes[0] == b"".join(lines)

    def test_line_split_across_two_sends_is_answered_once(self, catalog, remote_labels):
        async def main():
            server = await _started(catalog)
            reader, writer = await _open(server)
            line = dist(1)
            writer.write(line[:17])
            await writer.drain()
            await asyncio.sleep(0.05)  # the first half is read on its own
            writer.write(line[17:] + json.dumps({"id": 2, "op": "HEALTH"}).encode() + b"\n")
            await writer.drain()
            lines = await _read_lines(reader, 2)
            writer.close()
            await server.shutdown()
            return lines

        first, second = map(json.loads, run(main()))
        assert first["id"] == 1
        assert first["estimate"] == remote_labels.estimate((0, 0), (4, 4))
        assert second["id"] == 2 and second["op"] == "HEALTH"

    def test_blank_lines_get_no_reply(self, catalog):
        async def main():
            server = await _started(catalog)
            reader, writer = await _open(server)
            writer.write(b"\n   \n\t\r\n" + dist(1) + b"\n" + dist(2))
            await writer.drain()
            lines = await _read_lines(reader, 2)
            writer.close()
            await server.shutdown()
            return lines, server.counters["requests"]

        lines, requests = run(main())
        assert [json.loads(line)["id"] for line in lines] == [1, 2]
        assert requests == 2

    def test_oversize_line_after_a_burst_replies_then_closes(self, catalog):
        async def main():
            server = await _started(catalog)
            reader, writer = await _open(server)
            # One content byte over the cap, so the overflow shows only
            # once the whole line has been sent.
            writer.write(dist(1) + dist(2) + b"x" * (MAX_LINE_BYTES + 1) + b"\n")
            await writer.drain()
            lines = await _read_lines(reader, 3)
            trailer = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            await server.shutdown()
            return lines, trailer

        lines, trailer = run(main())
        first, second, oversize = map(json.loads, lines)
        assert (first["id"], second["id"]) == (1, 2)
        assert oversize["id"] is None
        assert oversize["error"]["code"] == "bad_request"
        assert str(MAX_LINE_BYTES) in oversize["error"]["message"]
        assert trailer == b""  # closed after the reply

    def test_line_at_the_cap_is_served(self, catalog):
        async def main():
            server = await _started(catalog)
            reader, writer = await _open(server)
            request = json.dumps({"id": 1, "op": "HEALTH", "pad": ""}).encode()
            pad = MAX_LINE_BYTES - len(request)
            writer.write(request[:-2] + b"x" * pad + b'"}\n')
            await writer.drain()
            (line,) = await _read_lines(reader, 1)
            writer.close()
            await server.shutdown()
            return line

        reply = json.loads(run(main()))
        assert reply["ok"] is True and reply["id"] == 1

    def test_unterminated_last_line_is_answered_at_eof(self, catalog):
        async def main():
            server = await _started(catalog)
            reader, writer = await _open(server)
            writer.write(json.dumps({"id": 9, "op": "HEALTH"}).encode())
            writer.write_eof()
            data = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            await server.shutdown()
            return data

        reply = json.loads(run(main()))
        assert reply["id"] == 9 and reply["ok"] is True


async def _started(catalog, **kwargs) -> OracleServer:
    server = OracleServer(catalog, port=0, **kwargs)
    await server.start()
    return server


class TestWaitingRequests:
    def test_fault_delay_holds_back_its_own_connection_only(self, catalog):
        plan = FaultPlan.from_dict({"stages": [
            {"requests": 1,
             "rules": [{"kind": "delay", "rate": 1.0, "delay_ms": 400}]},
            {"rules": [{"kind": "delay", "rate": 0.0}]},
        ]})

        async def main():
            server = await _started(catalog, fault_plan=plan)
            slow_reader, slow_writer = await _open(server)
            fast_reader, fast_writer = await _open(server)
            started = time.perf_counter()
            # Request 1 draws the delay; request 2 queues behind it.
            slow_writer.write(dist(1) + dist(2))
            await slow_writer.drain()
            await asyncio.sleep(0.05)
            fast_writer.write(dist(3))
            await fast_writer.drain()
            (fast,) = await _read_lines(fast_reader, 1)
            fast_at = time.perf_counter() - started
            slow = await _read_lines(slow_reader, 2)
            slow_at = time.perf_counter() - started
            for writer in (slow_writer, fast_writer):
                writer.close()
            await server.shutdown()
            return fast, fast_at, slow, slow_at

        fast, fast_at, slow, slow_at = run(main())
        assert json.loads(fast)["id"] == 3
        assert fast_at < 0.3  # the other connection was not held back
        assert [json.loads(line)["id"] for line in slow] == [1, 2]
        assert slow_at >= 0.4  # request 2 waited for request 1's delay

    def test_awaiting_handler_runs_inside_a_task(self, catalog):
        """A request's first step runs in the read callback, where no
        Task is current; an awaiting handler must still get one, since
        an asyncio deadline needs it (from Python 3.12, ``wait_for``)."""

        class TaskServer(OracleServer):
            async def _dispatch(self, request):
                self.tasks.append(asyncio.current_task())
                return super()._dispatch(request)

        async def main():
            server = TaskServer(catalog, port=0, request_timeout=5.0)
            server.tasks = []
            await server.start()
            reader, writer = await _open(server)
            writer.write(b'{"id": 1, "op": "HEALTH"}\n{"id": 2, "op": "HEALTH"}\n')
            await writer.drain()
            lines = await _read_lines(reader, 2)
            writer.close()
            await server.shutdown()
            return lines, server.tasks

        lines, tasks = run(main())
        assert [json.loads(line)["id"] for line in lines] == [1, 2]
        assert all(json.loads(line)["ok"] for line in lines)
        assert len(tasks) == 2 and None not in tasks

    def test_peer_that_stops_reading_pauses_the_connection(self, catalog):
        async def main():
            server = await _started(catalog)
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.setblocking(False)
            label = json.dumps({"op": "LABEL", "v": encode_vertex((2, 2))}).encode()
            chunk = (label + b"\n") * (RECV_BYTES // (len(label) + 1))
            sent, stalled_since = 0, None
            deadline = time.monotonic() + 10
            # Send until neither kernel buffer takes more for 0.3 s: by
            # then the server must have stopped reading this peer.
            while time.monotonic() < deadline:
                try:
                    sent += sock.send(chunk)
                    stalled_since = None
                except BlockingIOError:
                    stalled_since = stalled_since or time.monotonic()
                    if time.monotonic() - stalled_since > 0.3:
                        break
                await asyncio.sleep(0.005)
            (conn,) = server._connections
            state = (conn.transport.is_reading(), conn.transport.get_write_buffer_size())
            sock.close()
            await server.shutdown()
            return sent, state

        sent, (reading, buffered) = run(main())
        assert sent > RECV_BYTES  # the peer did get blocked, not the test
        assert not reading
        # At most a high-water mark (64 KiB) plus one flush of replies.
        assert buffered <= 64 * 1024 + 2 * RECV_BYTES

"""Protocol parsing and rendering, transport-free (one test drives a
live connection)."""

import asyncio
import json
import math

import pytest

from repro.serve.protocol import (
    ERROR_CODES,
    OPS,
    ProtocolError,
    encode_response,
    error_response,
    estimate_field,
    ok_response,
    parse_request,
    wire_pair,
)


def _err(raw) -> ProtocolError:
    with pytest.raises(ProtocolError) as info:
        parse_request(raw)
    return info.value


class TestParseRequest:
    def test_dist(self):
        req = parse_request('{"id": 7, "op": "DIST", "u": 0, "v": 41}')
        assert (req.op, req.id, req.u, req.v) == ("DIST", 7, 0, 41)
        assert req.store is None

    def test_dist_tuple_vertices(self):
        line = json.dumps(
            {"op": "DIST", "u": {"t": [0, 0]}, "v": {"t": [4, 4]}}
        )
        req = parse_request(line)
        assert req.u == (0, 0) and req.v == (4, 4)

    def test_op_case_insensitive(self):
        assert parse_request('{"op": "dist", "u": 1, "v": 2}').op == "DIST"

    def test_batch(self):
        req = parse_request('{"op": "BATCH", "pairs": [[1, 2], [3, 4]]}')
        assert req.pairs == [(1, 2), (3, 4)]

    def test_label_health_stats(self):
        assert parse_request('{"op": "LABEL", "v": 9}').v == 9
        for op in ("HEALTH", "STATS"):
            assert parse_request(json.dumps({"op": op})).op == op

    def test_store_field(self):
        req = parse_request('{"op": "HEALTH", "store": "east"}')
        assert req.store == "east"

    def test_bytes_input(self):
        assert parse_request(b'{"op": "HEALTH"}').op == "HEALTH"


class TestParseErrors:
    @pytest.mark.parametrize(
        "raw",
        [
            "not json",
            "[1, 2]",
            '"a string"',
            '{"op": 5}',
            "{}",
            '{"op": "DIST", "u": 1}',           # missing v
            '{"op": "DIST", "u": true, "v": 2}',  # bool is not a vertex
            '{"op": "BATCH"}',
            '{"op": "BATCH", "pairs": [[1]]}',
            '{"op": "BATCH", "pairs": "zz"}',
            '{"op": "LABEL"}',
            '{"op": "HEALTH", "store": 3}',
        ],
    )
    def test_bad_request(self, raw):
        assert _err(raw).code == "bad_request"

    @pytest.mark.parametrize(
        "raw",
        [
            '{"id": 1e999, "op": "HEALTH"}',
            '{"op": "BATCH", "pairs": [[1, 2], [3, -1e999]]}',
            '{"op": "DELTA", "action": "apply", "delta": {"u": 0, "v": 1, '
            '"w": 2.0, "old_w": 1.0, "epsilon": 0.25, "epoch": 1, "units": 1, '
            '"changes": [[5, "3:0:1", [[0.0, 1.5], [2.0, 1e999]]]], '
            '"removals": []}}',
        ],
    )
    def test_overflowing_float_is_refused(self, raw):
        # 1e999 parses to inf without passing parse_constant; it must
        # be refused wherever it sits, before any reply could echo it.
        exc = _err(raw)
        assert exc.code == "bad_request"
        assert str(exc) == "non-finite number in request"
        assert exc.req_id is None

    def test_int_past_the_digit_limit_is_a_bad_request(self):
        # json.loads raises a plain ValueError here, not a JSONDecodeError.
        exc = _err('{"id": 1' + "0" * 5000 + ', "op": "HEALTH"}')
        assert exc.code == "bad_request"
        assert str(exc).startswith("invalid JSON: Exceeds the limit")

    def test_int_past_the_digit_limit_keeps_the_connection(self, catalog):
        from repro.serve import OracleServer
        from tests.serve.conftest import rpc

        async def main():
            server = OracleServer(catalog, port=0)
            await server.start()
            try:
                return await rpc(server.port, [
                    b'{"id":1' + b"0" * 5000 + b',"op":"HEALTH"}\n',
                    {"id": 2, "op": "HEALTH"},
                ])
            finally:
                await server.shutdown()

        first, second = map(json.loads, asyncio.run(main()))
        assert first["ok"] is False and first["error"]["code"] == "bad_request"
        assert second["id"] == 2 and second["ok"] is True

    def test_finite_floats_still_parse(self):
        req = parse_request('{"id": 2.5, "op": "BATCH", "pairs": [[1e300, 2]]}')
        assert req.id == 2.5 and req.pairs == [(1e300, 2)]

    def test_unknown_op(self):
        exc = _err('{"id": 9, "op": "EXPLODE"}')
        assert exc.code == "unknown_op"
        assert exc.req_id == 9  # id survives even a rejected request

    def test_non_utf8(self):
        assert _err(b"\xff\xfe{}").code == "bad_request"

    def test_all_codes_declared(self):
        for code in ("bad_request", "unknown_op", "timeout", "unavailable"):
            assert code in ERROR_CODES
        # DIST/BATCH/LABEL/HEALTH/STATS/METRICS/FAULT + MAP + DELTA
        assert len(OPS) == 9


class TestResponses:
    def test_ok_and_error_shapes(self):
        ok = ok_response(3, {"op": "HEALTH", "status": "serving"})
        assert ok == {"id": 3, "ok": True, "op": "HEALTH", "status": "serving"}
        err = error_response(3, "timeout", "too slow")
        assert err["ok"] is False
        assert err["error"] == {"code": "timeout", "message": "too slow"}

    def test_encode_is_one_strict_json_line(self):
        data = encode_response(ok_response(1, estimate_field(4.0)))
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert json.loads(data) == {"id": 1, "ok": True, "estimate": 4.0}

    def test_identical_responses_are_byte_identical(self):
        a = encode_response(ok_response(1, estimate_field(1.5)))
        b = encode_response(ok_response(1, estimate_field(1.5)))
        assert a == b

    def test_unreachable_estimate_stays_strict_json(self):
        field = estimate_field(float("inf"))
        assert field == {"estimate": None, "unreachable": True}
        json.loads(encode_response(ok_response(None, field)))  # no raise

    def test_nan_never_leaks(self):
        with pytest.raises(ValueError):
            encode_response({"estimate": math.nan})

    def test_wire_pair_round_trips(self):
        line = json.dumps({"op": "BATCH", "pairs": [wire_pair((0, 1), (2, 3))]})
        assert parse_request(line).pairs == [((0, 1), (2, 3))]

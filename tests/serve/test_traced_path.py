"""Traced and untraced requests take one server path.

The same request stream runs against a server with a span sink attached
and against one without.  The replies must be byte-identical, and the
traced run must leave the span tree docs/observability.md documents:
``serve.request {op, ok}`` over ``serve.parse``, ``serve.cache {hit}``,
``serve.estimate {store, shard_u, shard_v}``, ``serve.fault`` and
``serve.encode``.
"""

import asyncio

from repro.core.serialize import encode_vertex
from repro.obs import CollectingSink, RingBufferSink, eventlog, use_sink
from repro.serve import OracleServer

from tests.serve.conftest import rpc

TRACE_ID = "9f1c24a77d03b56e"


def traced(request: dict, n: int) -> dict:
    """Stamp *request* with a wire trace context whose parent is span *n*."""
    return {**request, "trace": {"id": TRACE_ID, "span": f"{n:016x}"}}


DIST = {"op": "DIST", "u": encode_vertex((0, 0)), "v": encode_vertex((4, 4))}
STREAM = [
    traced({"id": 1, **DIST}, 1),  # pair-cache miss
    traced({"id": 2, **DIST}, 2),  # pair-cache hit
    traced(
        {
            "id": 3,
            "op": "BATCH",
            "pairs": [
                [encode_vertex((0, 1)), encode_vertex((3, 2))],
                [encode_vertex((0, 1)), encode_vertex((9, 9))],  # unknown vertex
            ],
        },
        3,
    ),
    traced({"id": 4, "op": "LABEL", "v": encode_vertex((2, 2))}, 4),
    b"{not json\n",
    {
        "id": 5,
        "op": "FAULT",
        "action": "set",
        "plan": {
            "format": "repro-fault-plan/1",
            "seed": 0,
            "rules": [{"kind": "delay", "rate": 1.0, "delay_ms": 5.0}],
        },
    },
    traced({"id": 6, "op": "DIST", "u": DIST["v"], "v": DIST["u"]}, 6),
]


def serve_stream(catalog):
    async def main():
        server = OracleServer(catalog, port=0, cache_size=16)
        await server.start()
        try:
            return await rpc(server.port, STREAM)
        finally:
            await server.shutdown()

    return asyncio.run(main())


def test_traced_and_untraced_replies_match(catalog):
    untraced = serve_stream(catalog)
    collector = CollectingSink()
    ring = eventlog.add_sink(RingBufferSink(256))
    try:
        with use_sink(collector):
            replies = serve_stream(catalog)
    finally:
        eventlog.remove_sink(ring)

    assert replies == untraced
    roots = [r for r in collector.roots if r.name == "serve.request"]
    assert len(roots) == len(STREAM)
    for root in roots:
        assert set(root.attributes) == {"op", "ok"}
        names = [child.name for child in root.children]
        assert names[0] == "serve.parse" and "serve.encode" in names
    (miss, hit, batch, label, malformed, fault_admin, delayed) = roots

    # Propagated context: the root joins the client's trace.
    assert miss.trace_id == TRACE_ID and miss.parent_span_id == f"{1:016x}"
    assert fault_admin.trace_id is None  # no context sent, local tree only

    assert miss.find("serve.cache").attributes == {"hit": False}
    assert hit.find("serve.cache").attributes == {"hit": True}
    assert hit.find("serve.estimate") is None
    estimate = miss.find("serve.estimate")
    assert set(estimate.attributes) == {"store", "shard_u", "shard_v"}
    assert estimate.attributes["store"] == "grid"

    # A failed pair inside an OK BATCH marks its estimate span only.
    assert batch.attributes == {"op": "BATCH", "ok": True}
    batch_estimates = batch.find_all("serve.estimate")
    assert [s.error for s in batch_estimates] == [None, "GraphError"]

    assert label.attributes == {"op": "LABEL", "ok": True}
    assert malformed.attributes == {"op": None, "ok": False}
    assert malformed.error == "bad_request"

    fault = delayed.find("serve.fault")
    assert fault is not None and fault.attributes["delay_ms"] == 5.0
    assert fault.trace_id == TRACE_ID
    # The serve.fault event fired inside the traced request carries its ids.
    (event,) = [e for e in ring.events() if e["event"] == "serve.fault"]
    assert event["trace"] == TRACE_ID
    assert event["span"] == delayed.span_id

"""Serving needs the labels and the combine only, never the build stack.

A subprocess blocks scipy (``sys.modules["scipy"] = None``), imports
``repro.cli``, and serves the committed golden ``/1`` and ``/2``
fixtures through :class:`~repro.serve.OracleServer`: DIST, a BATCH
large enough for the vectorized combine, LABEL, and one DELTA apply
followed by the same reads.  Its replies must equal, byte for byte,
those of the same script with scipy importable, and neither scipy nor
the separator engines nor the decomposition may have been imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core import build_labeling
from repro.core.serialize import encode_vertex, load_labeling
from repro.dynamic import EdgeUpdate, delta_to_dict, incremental_relabel
from repro.serve.server import BATCH_KERNEL_PAIRS
from tests.core.test_flat_golden import GOLDEN_BIN, GOLDEN_JSON, golden_recipe

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules a server must never load.
BUILD_STACK = ("scipy", "repro.core.engines", "repro.core.decomposition")

SCRIPT = r"""
import asyncio, json, sys

blocked, requests_path = sys.argv[1] == "blocked", sys.argv[2]
if blocked:
    sys.modules["scipy"] = None  # any import of scipy now raises

import repro.cli  # noqa: F401  (the entry point's own import closure)
from repro.serve import OracleServer, ShardedLabelStore, StoreCatalog

plan = json.load(open(requests_path))
catalog = StoreCatalog()
catalog.add(ShardedLabelStore.load(plan["json"], name="json"))
catalog.add(ShardedLabelStore.load(plan["bin"], name="bin"))
# A decode cache far below the file's 64 labels: churned labels.
catalog.add(ShardedLabelStore.mapped(plan["bin"], name="churned", label_cache=4))


async def main():
    server = OracleServer(catalog, port=0)
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        replies = []
        for request in plan["requests"]:
            writer.write(json.dumps(request).encode("utf-8") + b"\n")
            replies.append((await reader.readline()).decode("utf-8"))
        return replies
    finally:
        writer.close()
        await server.shutdown()


replies = asyncio.run(main())
loaded = [name for name in json.loads(sys.argv[3]) if sys.modules.get(name)]
print(json.dumps({"replies": replies, "loaded": loaded}))
"""


def _plan(tmp_path):
    graph, tree = golden_recipe()
    labeling = build_labeling(graph, tree, epsilon=0.25)
    u, v = next(iter(graph.edges()))[:2]
    delta = incremental_relabel(
        labeling, EdgeUpdate(u, v, graph.weight(u, v) * 3.0)
    )
    delta.epoch = 1
    assert delta.changes, "the reweight must change some label"
    vertices = [encode_vertex(x) for x in load_labeling(GOLDEN_JSON).labels]
    pairs = [
        [vertices[(7 * i) % 64], vertices[(11 * i + 3) % 64]]
        for i in range(BATCH_KERNEL_PAIRS + 8)
    ]
    touched = encode_vertex(delta.changes[0][0])

    def reads(store, base):
        return [
            {"id": base, "op": "DIST", "store": store, "u": pairs[1][0], "v": pairs[1][1]},
            {"id": base + 1, "op": "BATCH", "store": store, "pairs": pairs},
            {"id": base + 2, "op": "LABEL", "store": store, "v": touched},
        ]

    stores = ["json", "bin", "churned"]
    requests = [req for i, s in enumerate(stores) for req in reads(s, 10 * i)]
    requests += [
        {"id": 100 + i, "op": "DELTA", "action": "apply", "store": s,
         "delta": delta_to_dict(delta)}
        for i, s in enumerate(stores)
    ]
    requests += [req for i, s in enumerate(stores) for req in reads(s, 200 + 10 * i)]
    path = tmp_path / "requests.json"
    path.write_text(json.dumps(
        {"json": str(GOLDEN_JSON), "bin": str(GOLDEN_BIN), "requests": requests}
    ))
    return path


def _serve(mode, plan_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(SRC.parent)])}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, str(plan_path), json.dumps(BUILD_STACK)],
        capture_output=True, text=True, timeout=120, cwd=SRC.parent, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_serving_runs_and_answers_identically_with_scipy_blocked(tmp_path):
    plan_path = _plan(tmp_path)
    blocked = _serve("blocked", plan_path)
    plain = _serve("plain", plan_path)
    assert blocked["loaded"] == []
    assert blocked["replies"] == plain["replies"]
    replies = [json.loads(line) for line in blocked["replies"]]
    assert all(reply["ok"] for reply in replies), replies
    applied = [r for r in replies if r.get("op") == "DELTA"]
    assert [r["applied"] for r in applied] == [True, True, True]
    # The delta moved the touched label on every store.
    labels = [r["label"] for r in replies if r.get("op") == "LABEL"]
    assert labels[:3] != labels[3:] and len(set(map(json.dumps, labels[3:]))) == 1

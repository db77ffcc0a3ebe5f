"""The three serving workloads: dist-small, batch-mmap and update-mix.

The server is ``repro serve`` in a subprocess with CLI defaults apart
from the flags each workload names; the load comes from this process
through ``repro.serve.client.ResilientClient`` (closed loop) or one
pipelined connection (open loop), never more than two connections.
Server counters come from ``STATS`` at the start and end of the timed
window.  Every answer is recorded during the window and checked after
it, so checking costs nothing in the timings.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from repro.core.binfmt import BinaryLabelReader
from repro.core.flat import FlatLabel, flat_estimate
from repro.core.labeling import build_labeling
from repro.core.serialize import encode_label, load_labeling
from repro.dynamic import EdgeUpdate, affected_units, delta_from_dict, delta_to_dict, incremental_relabel
from repro.graphs.io import read_edge_list
from repro.serve.client import ClientError, ResilientClient, RetryPolicy
from repro.serve.protocol import encode_request, encode_response, parse_request, wire_pair
from repro.serve.store import ShardedLabelStore

from perfbench.checks import check_answers, check_epoch_reads, served_form
from perfbench.inputs import EPSILON, Rig, build_labels, pin_to
from perfbench.metrics import Outcome, median, percentile
from perfbench.trace import Tracer, mean_us, stage_table

POLICY = RetryPolicy(attempts=1, attempt_timeout=60.0)
# Closed-loop connections.  batch-mmap uses one: with two, each BATCH
# also waits for part of the other connection's, and runs settled into
# two modes about 2 ms apart, so its p50 spread twice as wide as its
# throughput across seeds.
CONNECTIONS = {"dist-small": 2, "batch-mmap": 1}
# Traced replays stop after this many pairs; enough to cycle a 4096-label
# decode cache several times on batch-mmap.
REPLAY_PAIRS = 20000
# update-mix computes its deltas this many times over, each time from a
# fresh labeling, and times each delta by its median pass.  With one
# pass, a run held about 3 s of relabel work, and the host's speed
# changes over seconds moved its mean relabel time by a fifth between
# runs of the same deltas.
RELABEL_PASSES = 3


class ServerProcess:
    """``repro serve`` in a subprocess; ``setup_s`` is launch to ``ready``."""

    def __init__(self, rig: Rig, labels: Path, extra=()) -> None:
        env = dict(os.environ, PYTHONPATH=str(rig.root / "src"))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--labels", str(labels),
             "--port", "0", *extra],
            cwd=rig.root, env=env, stdout=subprocess.PIPE,
            preexec_fn=pin_to(rig.program_cpu),
        )
        try:
            while True:
                line = self.proc.stdout.readline().decode()
                if not line:
                    raise RuntimeError(f"repro serve exited with {self.proc.wait()}")
                if line.startswith("ready "):
                    host, _, port = line.split()[1].rpartition(":")
                    self.address = (host, int(port))
                    break
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def launch(rig: Rig, labels: Path, launches: int, extra=()):
    """Launch the server *launches* times; keep the last one running.
    Returns ``(server, median setup seconds)``."""
    times = []
    for i in range(launches):
        server = ServerProcess(rig, labels, extra)
        times.append(server.setup_s)
        if i < launches - 1:
            server.stop()
    return server, median(times)


async def _stats(client: ResilientClient) -> dict:
    return await client.call({"op": "STATS"})


def _store_stats(stats: dict) -> dict:
    return next(iter(stats["stores"].values()))


def _quiet_gc():
    """Keep the load generator's own collector pauses out of the window."""
    gc.collect()
    gc.freeze()
    gc.disable()


def _loud_gc():
    gc.enable()
    gc.unfreeze()


# -- closed loop (dist-small, batch-mmap) --------------------------------

async def _closed_loop(client, jobs, batch: bool, seconds: float,
                       connections: int, tracer: Optional[Tracer], first: int):
    """Run *connections* closed-loop callers for *seconds*; returns
    ``(records, stop_time)`` with one ``(job, start_ns, end_ns, reply)``
    per request (``reply`` None on failure)."""
    records = []
    counter = [first]
    stop_at = time.perf_counter() + seconds

    async def caller():
        while time.perf_counter() < stop_at:
            index = counter[0]
            counter[0] += 1
            job = jobs[index % len(jobs)]
            start = time.perf_counter_ns()
            try:
                if batch:
                    reply = await client.batch(job)
                else:
                    reply = await client.dist(*job)
            except ClientError:
                reply = None
            end = time.perf_counter_ns()
            if tracer is not None:
                tracer.record("client.call", start, end, rid=index)
            records.append((index, start, end, reply))

    await asyncio.gather(*(caller() for _ in range(connections)))
    return records, time.perf_counter_ns()


def _window_figures(records, batch: bool, window_start: int, stop: int):
    """Throughput (requests or pairs per second) and latencies in ms."""
    timed = [r for r in records if r[1] >= window_start and r[3] is not None]
    lat = [(end - start) / 1e6 for _, start, end, _ in timed]
    done = sum(
        (len(r[3]["results"]) if batch else 1)
        for r in records
        if r[3] is not None and window_start <= r[2] <= stop
    )
    return done / ((stop - window_start) / 1e9), lat


def _percentile_line(latency_ms) -> str:
    return "latency ms by percentile: " + ", ".join(
        f"p{q} {percentile(latency_ms, q):.3f}" for q in (50, 90, 95, 98, 99, 99.5)
    ) + f", max {max(latency_ms):.3f} ({len(latency_ms)} samples)"


def _answers(records, jobs, batch: bool):
    """``(((u, v), served_form), ...)`` for every answer, plus the number
    of failed requests and items."""
    out, failed = [], 0
    for index, _, _, reply in records:
        job = jobs[index % len(jobs)]
        if reply is None:
            failed += len(job) if batch else 1
            continue
        if not batch:
            out.append((job, served_form(reply)))
            continue
        for pair, item in zip(job, reply["results"]):
            if item.get("ok"):
                out.append((pair, served_form(item)))
            else:
                failed += 1
    return out, failed


def run_closed(rig: Rig, workload: str, seconds: float, traced: bool) -> Outcome:
    inputs = rig.inputs
    sizes = inputs.sizes
    batch = workload == "batch-mmap"
    n = sizes.batch_n if batch else sizes.dist_n
    json_path, bin_path = inputs.labels("delaunay", n)
    served_path = bin_path if batch else json_path
    remote = load_labeling(json_path)
    vertices = sorted(remote.labels)
    per_job = sizes.batch_pairs if batch else 1
    # Callers cycle through the jobs if a run outlasts them.
    pairs = inputs.pairs(workload, vertices, (3000 if batch else 60000) * per_job)
    jobs = (
        [pairs[i:i + per_job] for i in range(0, len(pairs), per_job)]
        if batch else pairs
    )
    out = Outcome()
    server, out.metrics["setup_s"] = launch(rig, served_path, sizes.setup_launches)
    try:
        windows = asyncio.run(_drive_closed(
            server.address, jobs, batch, seconds, sizes, CONNECTIONS[workload], traced))
    finally:
        server.stop()

    # Checks, after the timed phase: every answer of every window.
    all_records = [r for w in windows for r in w["records"]]
    answers, failed = _answers(all_records, jobs, batch)
    mismatches = check_answers(answers, remote.estimate)
    out.attempted = len(answers) + failed
    out.failed = failed + mismatches

    main = windows[-2] if traced else windows[-1]
    throughput, lat = main["throughput"], main["latency_ms"]
    stats = main["stats_end"]
    out.metrics.update({
        "throughput_per_s": throughput,
        "p50_ms": median(lat),
        "rss_mb": stats["rss_bytes"] / 2**20,
    })
    unit = "pairs" if batch else "requests"
    out.report.append(
        f"{workload}: {len(lat)} {'BATCH' if batch else 'DIST'} requests timed over "
        f"{seconds}s, {CONNECTIONS[workload]} connection(s); {throughput:.1f} {unit}/s, "
        f"p50 {out.metrics['p50_ms']:.3f} ms, p99 {percentile(lat, 99):.3f} ms; "
        f"server rss {out.metrics['rss_mb']:.1f} MiB; "
        f"{served_path.stat().st_size / n:.1f} label bytes per vertex; "
        f"checked {len(answers)} answers, {mismatches} mismatches, {failed} failures"
    )
    out.report.append(_percentile_line(lat))
    if len(lat) < 1000:
        out.report.append(f"warning: {len(lat)} samples leave fewer than 10 beyond p99")
    if traced:
        _closed_layers(out, windows, jobs, batch, served_path, remote, n, workload)
    return out


async def _drive_closed(address, jobs, batch, seconds, sizes, connections, traced):
    client = ResilientClient([address], policy=POLICY)
    windows = []
    try:
        # Warm-up: fill the server's decode cache and connection pool.
        first = 0
        records, _ = await _closed_loop(
            client, jobs, batch, sizes.warmup_s, connections, None, first)
        windows.append({"records": records})
        first += len(records) + connections
        for tracer in ([None, Tracer()] if traced else [None]):
            stats_start = await _stats(client)
            _quiet_gc()
            try:
                window_start = time.perf_counter_ns()
                records, stop = await _closed_loop(
                    client, jobs, batch, seconds, connections, tracer, first)
            finally:
                _loud_gc()
            stats_end = await _stats(client)
            first += len(records) + connections
            throughput, lat = _window_figures(records, batch, window_start, stop)
            windows.append({
                "records": records, "tracer": tracer, "throughput": throughput,
                "latency_ms": lat, "stats_start": stats_start, "stats_end": stats_end,
            })
    finally:
        await client.close()
    return windows


def _open_store(path: Path):
    """Open a labels file the way ``repro serve`` opens it."""
    return ShardedLabelStore.load(path, num_shards=8)


def _close_store(store) -> None:
    close = getattr(store, "close", None)
    if close is not None:
        close()


def _open_ms(path: Path, tracer: Tracer) -> float:
    times = []
    for _ in range(5):
        start = time.perf_counter_ns()
        store = _open_store(path)
        end = time.perf_counter_ns()
        tracer.record("codec.open", start, end)
        times.append((end - start) / 1e6)
        _close_store(store)
    return median(times)


def _replay_store(tracer: Tracer, path: Path, pairs, remote, mapped: bool) -> None:
    """Replay *pairs* in order through a freshly opened store, then time
    decode (each label once) and combine on decoded labels apart."""
    store = _open_store(path)
    try:
        for u, v in pairs:
            with tracer.span("store.estimate"):
                store.estimate(u, v)
    finally:
        _close_store(store)
    flat = {}
    touched = dict.fromkeys(x for pair in pairs for x in pair)
    if mapped:
        with BinaryLabelReader(path) as reader:
            for x in touched:
                with tracer.span("codec.decode"):
                    flat[x] = reader.get_flat(x)
    else:
        for x in touched:
            flat[x] = FlatLabel.from_label(remote.labels[x])
    for u, v in pairs:
        fu, fv = flat[u], flat[v]
        with tracer.span("store.combine"):
            flat_estimate(fu, fv)


def _replay_wire(tracer: Tracer, records, jobs, batch: bool):
    """Replay the window's request lines and replies through the
    protocol codec and the client's encode and decode."""
    for index, _, _, reply in records:
        if reply is None:
            continue
        job = jobs[index % len(jobs)]
        with tracer.span("client.encode"):
            if batch:
                payload = {"op": "BATCH", "pairs": [wire_pair(u, v) for u, v in job]}
            else:
                payload = {"op": "DIST", "u": job[0], "v": job[1]}
            line = encode_request({**payload, "id": reply["id"]})
        with tracer.span("protocol.parse"):
            parse_request(line)
        with tracer.span("protocol.encode"):
            reply_line = encode_response(reply)
        with tracer.span("client.decode"):
            json.loads(reply_line)


def _cache_figures(layers, start: dict, end: dict) -> None:
    hits = end["counters"]["cache_hits"] - start["counters"]["cache_hits"]
    misses = end["counters"]["cache_misses"] - start["counters"]["cache_misses"]
    layers["server.cache_hits"] = hits
    layers["server.cache_lookups"] = hits + misses
    layers["server.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["server.peak_inflight"] = end["peak_inflight"]
    store = _store_stats(end)
    layers["store.cached_labels"] = store.get("cached_labels", store["labels"])
    layers["labeling.words_per_vertex"] = store["words"] / store["labels"]


def _closed_layers(out, windows, jobs, batch, served_path, remote, n, workload):
    untraced, traced = windows[-2], windows[-1]
    tracer: Tracer = traced["tracer"]
    records = [r for r in traced["records"] if r[3] is not None]
    pairs = []
    for index, _, _, _ in records:
        job = jobs[index % len(jobs)]
        pairs.extend(job if batch else [job])
        if len(pairs) >= REPLAY_PAIRS:
            break
    pairs = pairs[:REPLAY_PAIRS]
    layers = out.layers
    layers["codec.open_ms"] = _open_ms(served_path, tracer)
    _replay_store(tracer, served_path, pairs, remote, mapped=batch)
    _replay_wire(tracer, records, jobs, batch)
    selfs = tracer.self_times()
    per_request_pairs = len(jobs[0]) if batch else 1
    for name in ("codec.decode", "store.estimate", "store.combine", "protocol.parse",
                 "protocol.encode", "client.encode", "client.decode", "client.call"):
        layers[name + "_us"] = mean_us(selfs, name)
    _cache_figures(layers, traced["stats_start"], traced["stats_end"])
    estimate_per_request = layers["store.estimate_us"] * per_request_pairs
    attributed = (
        layers["client.encode_us"] + layers["client.decode_us"]
        + layers["protocol.parse_us"] + estimate_per_request
        + layers["protocol.encode_us"]
    )
    layers["server.unattributed_us"] = layers["client.call_us"] - attributed
    layers["trace.overhead_pct"] = 100.0 * (
        untraced["throughput"] - traced["throughput"]) / untraced["throughput"]
    rows = [
        ["request (client-observed)", "client", selfs["client.call"]["calls"],
         layers["client.call_us"], layers["client.call_us"]],
        ["encode request", "client", selfs["client.encode"]["calls"],
         layers["client.encode_us"], layers["client.encode_us"]],
        ["decode reply", "client", selfs["client.decode"]["calls"],
         layers["client.decode_us"], layers["client.decode_us"]],
        ["parse request", "protocol", selfs["protocol.parse"]["calls"],
         layers["protocol.parse_us"], layers["protocol.parse_us"]],
        ["estimate (per pair)", "store", selfs["store.estimate"]["calls"],
         layers["store.estimate_us"], estimate_per_request],
        ["encode reply", "protocol", selfs["protocol.encode"]["calls"],
         layers["protocol.encode_us"], layers["protocol.encode_us"]],
        ["unattributed remainder", "server", "-", layers["server.unattributed_us"],
         layers["server.unattributed_us"]],
        ["  combine only (per pair)", "store", selfs["store.combine"]["calls"],
         layers["store.combine_us"], layers["store.combine_us"] * per_request_pairs],
    ]
    if batch:
        rows.append(["  decode one label", "codec", selfs["codec.decode"]["calls"],
                     layers["codec.decode_us"], 0.0])
    notes = [
        f"unattributed = request - (client encode + decode + parse + "
        f"{per_request_pairs} x estimate + encode): asyncio, socket, admit, "
        f"and waiting behind the other connection's request",
        f"open {served_path.name} as the server does: {layers['codec.open_ms']:.3f} ms "
        f"(median of 5)",
        f"cache hit ratio {layers['server.cache_hit_ratio']:.4f} = "
        f"{layers['server.cache_hits']} hits / {layers['server.cache_lookups']} lookups",
        f"cached labels {layers['store.cached_labels']} of {n}; "
        f"{layers['labeling.words_per_vertex']:.2f} words per vertex",
        f"tracing overhead {layers['trace.overhead_pct']:.2f}% of throughput "
        f"({untraced['throughput']:.1f} untraced vs {traced['throughput']:.1f} traced)",
        "per_request_us of the combine and decode rows is already inside estimate",
    ]
    out.report.append(stage_table(f"{workload} stage table (traced window)", rows, notes))
    out.tracer = tracer


# -- open loop with deltas (update-mix) ----------------------------------

def _label_json(label: dict) -> str:
    return json.dumps(label, separators=(",", ":"))


async def _sleep_until(when: float) -> None:
    delay = when - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


async def _open_loop(reader, writer, client, lines, rate, wires, delta_rate,
                     state, tracer: Optional[Tracer]):
    """Send *lines* open-loop at *rate* on one pipelined connection while
    pushing *wires* as DELTAs at *delta_rate* on the client's connection.

    Returns ``(reads, pushes)``: per read ``[due, sent, recv, lo, hi,
    reply]`` where ``lo`` is the deltas acknowledged before the send and
    ``hi`` the deltas pushed before the receipt, so the read was served
    at some epoch in ``[lo, hi]``; per push ``(send, ack, reply)``.
    """
    n = len(lines)
    t0 = time.perf_counter() + 0.005
    reads = [[t0 + i / rate, 0.0, 0.0, 0, 0, None] for i in range(n)]
    pushes = []

    async def send():
        i = 0
        while i < n:
            await _sleep_until(reads[i][0])
            now = time.perf_counter()
            while i < n and reads[i][0] <= now:
                writer.write(lines[i][1])
                reads[i][1] = now
                reads[i][3] = state["acked"]
                i += 1
            await writer.drain()

    async def receive():
        for _ in range(n):
            line = await reader.readline()
            now = time.perf_counter()
            reply = json.loads(line)
            read = reads[reply["id"] - lines[0][0]]
            read[2] = now
            read[4] = state["pushed"]
            read[5] = reply
            if tracer is not None:
                tracer.record("client.read", int(read[1] * 1e9), int(now * 1e9),
                              rid=reply["id"])

    async def push():
        for k, wire in enumerate(wires):
            await _sleep_until(t0 + (k + 0.5) / delta_rate)
            state["pushed"] += 1
            sent = time.perf_counter()
            try:
                reply = await client.call({"op": "DELTA", "action": "apply", "delta": wire})
            except ClientError:
                reply = None
            ack = time.perf_counter()
            if reply is not None and reply.get("applied"):
                state["acked"] += 1
            if tracer is not None:
                tracer.record("client.call", int(sent * 1e9), int(ack * 1e9),
                              rid=f"delta{wire['epoch']}")
            pushes.append((sent, ack, reply))

    await asyncio.gather(send(), receive(), push())
    return reads, pushes


async def _drive_update(address, sizes, seconds, windows, pair_lines, wires,
                        expected, traced):
    client = ResilientClient([address], policy=POLICY)
    reader, writer = await asyncio.open_connection(*address)
    state = {"pushed": 0, "acked": 0}
    per_window = len(wires) // windows
    out = []
    try:
        # Warm-up: reads only, to fill the pair cache and decode cache.
        warm = int(sizes.read_rate * sizes.warmup_s)
        reads, _ = await _open_loop(
            reader, writer, client, pair_lines[:warm], sizes.read_rate, [],
            sizes.delta_rate, state, None)
        out.append({"reads": reads, "pushes": [], "lines": pair_lines[:warm]})
        cursor = warm
        n_reads = int(sizes.read_rate * seconds)
        for w in range(windows):
            tracer = Tracer() if traced and w == windows - 1 else None
            lines = pair_lines[cursor:cursor + n_reads]
            cursor += n_reads
            stats_start = await _stats(client)
            _quiet_gc()
            try:
                reads, pushes = await _open_loop(
                    reader, writer, client, lines, sizes.read_rate,
                    wires[w * per_window:(w + 1) * per_window], sizes.delta_rate,
                    state, tracer)
            finally:
                _loud_gc()
            stats_end = await _stats(client)
            out.append({"reads": reads, "pushes": pushes, "lines": lines,
                        "tracer": tracer, "stats_start": stats_start,
                        "stats_end": stats_end})
        # Final state: every delta applied, labels equal to a rebuild.
        status = await client.call({"op": "DELTA", "action": "status"})
        label_failures = int(status["epoch"] != len(wires))
        for vertex, label in expected.items():
            try:
                reply = await client.call({"op": "LABEL", "v": vertex})
            except ClientError:
                label_failures += 1
                continue
            if _label_json(reply["label"]) != label:
                label_failures += 1
    finally:
        writer.close()
        await writer.wait_closed()
        await client.close()
    return out, label_failures


def _prepare_update(inputs, seconds: float, windows: int):
    """update-mix's inputs: every delta, computed before the push phase
    so relabel CPU never stalls the read generator (its time still
    counts in update_ms), the labels a from-scratch rebuild gives at the
    end, and the request lines of every read.  Also returns how many
    passes computed other deltas than the first."""
    sizes = inputs.sizes
    edges = inputs.edges("delaunay", sizes.update_n)
    # Each pool edge yields two deltas per window: a slow-down and a recovery.
    pool = max(1, int(round(sizes.delta_rate * seconds / 2)))
    updates = inputs.reweights(read_edge_list(edges), pool, windows)
    passes, deltas, wires, differing = [], [], [], 0
    for _ in range(RELABEL_PASSES):
        labeling = build_labels(read_edge_list(edges), "delaunay")
        pass_deltas, pass_stamps = [], []
        for k, (u, v, w) in enumerate(updates):
            start = time.perf_counter_ns()
            affected_units(labeling.tree, u, v)
            mid = time.perf_counter_ns()
            delta = incremental_relabel(labeling, EdgeUpdate(u, v, w))
            end = time.perf_counter_ns()
            delta.epoch = k + 1
            pass_deltas.append(delta)
            pass_stamps.append((start, mid, end))
        pass_wires = [delta_to_dict(delta) for delta in pass_deltas]
        if not passes:
            deltas, wires = pass_deltas, pass_wires
        differing += pass_wires != wires
        passes.append(pass_stamps)
    # Per delta, the stamps of the pass with its median relabel time.
    stamps = [
        sorted(row, key=lambda t: t[2] - t[1])[len(row) // 2] for row in zip(*passes)
    ]
    fresh = build_labeling(labeling.graph, labeling.tree, EPSILON)
    expected = {v: _label_json(encode_label(label)) for v, label in fresh.labels.items()}

    total_reads = int(sizes.read_rate * (sizes.warmup_s + windows * seconds)) + 1
    pairs = inputs.pairs("update-mix", sorted(fresh.labels), total_reads, zipf=1.1)
    pair_lines = [
        (i, encode_request({"id": i, "op": "DIST", "u": u, "v": v}))
        for i, (u, v) in enumerate(pairs)
    ]
    return deltas, wires, stamps, expected, pair_lines, differing


def run_update(rig: Rig, seconds: float, traced: bool) -> Outcome:
    inputs = rig.inputs
    sizes = inputs.sizes
    n = sizes.update_n
    json_path, bin_path = inputs.labels("delaunay", n)
    windows = 2 if traced else 1
    out = Outcome()
    # Launch before the in-process relabel phase, so neither its CPU time
    # nor its heap reaches setup_s; the server idles meanwhile.
    server, out.metrics["setup_s"] = launch(
        rig, bin_path, sizes.setup_launches, extra=("--cache", "4096"))
    try:
        deltas, wires, stamps, expected, pair_lines, differing = _prepare_update(
            inputs, seconds, windows)
        result, label_failures = asyncio.run(_drive_update(
            server.address, sizes, seconds, windows, pair_lines, wires, expected,
            traced))
    finally:
        server.stop()
    relabel_ms = [(end - mid) / 1e6 for _, mid, end in stamps]

    # Checks: each read against the labels at one epoch of its window.
    reads, refused = [], 0
    for window in result:
        for read, (_, line) in zip(window["reads"], window["lines"]):
            reply = read[5]
            if not reply.get("ok"):
                refused += 1
                continue
            request = json.loads(line)
            reads.append((request["u"], request["v"], read[3], read[4], served_form(reply)))
    pushes = [p for window in result for p in window["pushes"]]
    unapplied = sum(1 for _, _, reply in pushes if not (reply and reply.get("applied")))
    # The pair cache keys (u, v) and (v, u) alike, and the combine is not
    # bit-symmetric, so with the cache on a read may carry the estimate
    # of the reversed pair; it is counted and reported, not failed.
    mismatches, reversed_pairs = check_epoch_reads(
        reads, dict(load_labeling(json_path).labels), deltas, either_order=True)
    # Reads, pushes, one LABEL per vertex, the final epoch and the
    # deltas of every relabel pass after the first.
    out.attempted = (len(reads) + refused + len(pushes) + len(expected) + 1
                     + RELABEL_PASSES - 1)
    out.failed = refused + mismatches + unapplied + label_failures + differing

    main = result[1]
    latency = [(recv - due) * 1e3 for due, _, recv, *_ in main["reads"]]
    lag = [(sent - due) * 1e3 for due, sent, *_ in main["reads"]]
    update_ms = [
        relabel_ms[k] + (ack - sent) * 1e3
        for k, (sent, ack, _) in enumerate(pushes)
    ]
    # The read rate is fixed by the generator, so this workload's
    # throughput is the write path's: updates per second of relabel plus
    # send-to-ack time.  The mean, not the median: across seeds, the
    # median relabel time of a window spread twice as wide as the mean.
    main_updates = update_ms[:len(main["pushes"])]
    stats = main["stats_end"]
    out.metrics.update({
        "throughput_per_s": 1e3 * len(main_updates) / sum(main_updates),
        "p50_ms": median(latency),
        "rss_mb": stats["rss_bytes"] / 2**20,
    })
    hits = stats["counters"]["cache_hits"] - main["stats_start"]["counters"]["cache_hits"]
    lookups = hits + stats["counters"]["cache_misses"] - main["stats_start"]["counters"]["cache_misses"]
    out.report.append(
        f"update-mix: {len(latency)} reads open-loop at {sizes.read_rate:.0f}/s and "
        f"{len(main['pushes'])} DELTAs at {sizes.delta_rate:.0f}/s over {seconds}s; "
        f"read p50 {out.metrics['p50_ms']:.3f} ms, p99 {percentile(latency, 99):.3f} ms "
        f"(from due time); update_ms p50 {median(main_updates):.2f}, "
        f"p90 {percentile(main_updates, 90):.2f}, mean {1e3 / out.metrics['throughput_per_s']:.2f} "
        f"({out.metrics['throughput_per_s']:.2f} updates/s); send lag p50 {median(lag):.3f} ms, "
        f"p99 {percentile(lag, 99):.3f} ms, max {max(lag):.3f} ms; "
        f"pair cache {hits}/{lookups} hits; server rss {out.metrics['rss_mb']:.1f} MiB; "
        f"{bin_path.stat().st_size / n:.1f} label bytes per vertex; "
        f"{reversed_pairs} reads answered with the reversed pair's estimate; "
        f"checked {len(reads)} reads, {mismatches} mismatches, "
        f"{out.failed - mismatches} other failures"
    )
    out.report.append(_percentile_line(latency))
    if traced:
        _update_layers(out, result, deltas, wires, stamps, update_ms, bin_path)
    return out


def _update_layers(out, result, deltas, wires, stamps, update_ms, bin_path):
    untraced, traced = result[-2], result[-1]
    tracer: Tracer = traced["tracer"]
    layers = out.layers
    for k, (start, mid, end) in enumerate(stamps):
        tracer.record("dynamic.invalidate", start, mid, rid=f"delta{k + 1}")
        tracer.record("dynamic.relabel", mid, end, rid=f"delta{k + 1}")
    layers["codec.open_ms"] = _open_ms(bin_path, tracer)

    # Replay the traced window in order through a fresh store: each
    # read at the epoch it was sent at, each delta parsed then applied.
    store = _open_store(bin_path)
    applied = 0
    delta_lines = [encode_request({"op": "DELTA", "action": "apply", "delta": w, "id": i})
                   for i, w in enumerate(wires)]
    requests = []
    try:
        for read, (_, line) in zip(traced["reads"], traced["lines"]):
            while applied < read[3]:
                with tracer.span("protocol.delta_parse"):
                    request = parse_request(delta_lines[applied])
                    delta = delta_from_dict(request.delta)
                with tracer.span("store.apply_delta"):
                    store.apply_delta(delta)
                applied += 1
            with tracer.span("protocol.parse"):
                request = parse_request(line)
            with tracer.span("store.estimate"):
                store.estimate(request.u, request.v)
            requests.append((request.u, request.v))
            if len(requests) >= REPLAY_PAIRS:
                break
    finally:
        _close_store(store)
    with BinaryLabelReader(bin_path) as reader:
        flat = {}
        for x in dict.fromkeys(x for pair in requests for x in pair):
            with tracer.span("codec.decode"):
                flat[x] = reader.get_flat(x)
        for u, v in requests:
            fu, fv = flat[u], flat[v]
            with tracer.span("store.combine"):
                flat_estimate(fu, fv)
    for read, (_, line) in zip(traced["reads"], traced["lines"]):
        with tracer.span("client.encode"):
            request = json.loads(line)
            encode_request(request)
        with tracer.span("protocol.encode"):
            reply_line = encode_response(read[5])
        with tracer.span("client.decode"):
            json.loads(reply_line)
    selfs = tracer.self_times()
    for name in ("codec.decode", "store.estimate", "store.combine", "protocol.parse",
                 "protocol.encode", "client.encode", "client.decode", "client.call"):
        layers[name + "_us"] = mean_us(selfs, name)
    layers["store.apply_delta_ms"] = mean_us(selfs, "store.apply_delta") / 1e3
    layers["protocol.delta_parse_ms"] = mean_us(selfs, "protocol.delta_parse") / 1e3
    layers["dynamic.relabel_ms"] = mean_us(selfs, "dynamic.relabel") / 1e3
    layers["dynamic.invalidate_us"] = mean_us(selfs, "dynamic.invalidate")
    layers["dynamic.affected_units"] = sum(d.units for d in deltas) / len(deltas)
    layers["dynamic.changed_entries"] = sum(d.num_changes for d in deltas) / len(deltas)
    layers["dynamic.delta_bytes"] = sum(len(line) for line in delta_lines) / len(delta_lines)
    layers["dynamic.update_ms_p50"] = median(update_ms)
    layers["dynamic.update_ms_p90"] = percentile(update_ms, 90)
    lag = [(sent - due) * 1e3 for due, sent, *_ in traced["reads"]]
    layers["client.send_lag_ms"] = sum(lag) / len(lag)
    _cache_figures(layers, traced["stats_start"], traced["stats_end"])
    read_us = mean_us(selfs, "client.read")
    attributed = (layers["client.encode_us"] + layers["client.decode_us"]
                  + layers["protocol.parse_us"] + layers["store.estimate_us"]
                  + layers["protocol.encode_us"])
    layers["server.unattributed_us"] = read_us - attributed

    def p50(window):
        return median([(recv - due) * 1e3 for due, _, recv, *_ in window["reads"]])

    layers["trace.overhead_pct"] = 100.0 * (p50(traced) - p50(untraced)) / p50(untraced)
    rows = [
        ["read (sent to reply)", "client", selfs["client.read"]["calls"], read_us, read_us],
        ["encode request", "client", selfs["client.encode"]["calls"],
         layers["client.encode_us"], layers["client.encode_us"]],
        ["decode reply", "client", selfs["client.decode"]["calls"],
         layers["client.decode_us"], layers["client.decode_us"]],
        ["parse request", "protocol", selfs["protocol.parse"]["calls"],
         layers["protocol.parse_us"], layers["protocol.parse_us"]],
        ["estimate", "store", selfs["store.estimate"]["calls"],
         layers["store.estimate_us"], layers["store.estimate_us"]],
        ["encode reply", "protocol", selfs["protocol.encode"]["calls"],
         layers["protocol.encode_us"], layers["protocol.encode_us"]],
        ["unattributed remainder", "server", "-", layers["server.unattributed_us"],
         layers["server.unattributed_us"]],
        ["  combine only", "store", selfs["store.combine"]["calls"],
         layers["store.combine_us"], layers["store.combine_us"]],
        ["  decode one label", "codec", selfs["codec.decode"]["calls"],
         layers["codec.decode_us"], 0.0],
        ["DELTA push (send to ack)", "client", selfs["client.call"]["calls"],
         layers["client.call_us"], 0.0],
        ["  parse DELTA line", "protocol", selfs["protocol.delta_parse"]["calls"],
         layers["protocol.delta_parse_ms"] * 1e3, 0.0],
        ["  apply delta", "store", selfs["store.apply_delta"]["calls"],
         layers["store.apply_delta_ms"] * 1e3, 0.0],
        ["relabel (before push)", "dynamic", selfs["dynamic.relabel"]["calls"],
         layers["dynamic.relabel_ms"] * 1e3, 0.0],
        ["  invalidate", "dynamic", selfs["dynamic.invalidate"]["calls"],
         layers["dynamic.invalidate_us"], 0.0],
    ]
    notes = [
        "per_request_us is per read; delta rows are per delta and run beside the reads",
        "unattributed = read (sent to reply) - (client encode + decode + parse + "
        "estimate + encode): asyncio, socket, admit and queueing behind deltas",
        f"cache hit ratio {layers['server.cache_hit_ratio']:.4f} = "
        f"{layers['server.cache_hits']} hits / {layers['server.cache_lookups']} lookups",
        f"deltas: {layers['dynamic.affected_units']:.1f} affected units, "
        f"{layers['dynamic.changed_entries']:.1f} changed entries, "
        f"{layers['dynamic.delta_bytes']:.0f} wire bytes on average",
        f"update_ms p50 {layers['dynamic.update_ms_p50']:.2f}, "
        f"p90 {layers['dynamic.update_ms_p90']:.2f} over {len(update_ms)} deltas",
        f"generator lateness mean {layers['client.send_lag_ms']:.3f} ms",
        f"tracing overhead {layers['trace.overhead_pct']:.2f}% of read p50",
    ]
    out.report.append(stage_table("update-mix stage table (traced window)", rows, notes))
    out.tracer = tracer

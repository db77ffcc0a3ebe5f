"""Command-line interface.

Subcommands::

    repro generate   --family grid --n 400 --out g.edges     # make a graph
    repro decompose  g.edges [--engine greedy|planar|...]    # separator stats
    repro oracle     g.edges --epsilon 0.1 --queries 200     # build + evaluate
    repro labels     g.edges --epsilon 0.1 --out labels.json # ship labels
    repro pack       labels.json labels.bin                  # JSON <-> binary
    repro query      labels.json U V                         # distance from labels
    repro query      labels.json --pairs-file p.txt          # batch of queries
    repro smallworld g.edges --pairs 100                     # greedy-hop comparison
    repro stats      g.edges --epsilon 0.1                   # telemetry breakdown
    repro serve      --labels labels.json --port 7471        # query service
    repro loadgen    --labels labels.json --pairs 500        # drive the service
    repro query      --remote host:7471 U V                  # query the service
    repro chaos      --labels labels.json --pairs 300        # loadgen under faults
    repro update     g.edges --labels l.json --journal j.jsonl \
                     --edge 3 7 2.5                          # incremental relabel
    repro loadgen    --updates 10 --update-graph g.edges ... # updates under load
    repro cluster    init --labels l.bin --root data/        # shard + replicate
    repro cluster    up --root data/                         # N-node local cluster
    repro chaos      --cluster 3 --kill-replica ...          # kill-a-node drill
    repro top        host:7471                               # live METRICS view
    repro trace      server.jsonl client.jsonl               # reassemble traces

Every subcommand also accepts ``--trace`` (span log on stderr),
``--trace-out PATH`` (``repro-spans/1`` JSONL for ``repro trace``),
``--log-file PATH`` / ``--log-ring N`` (structured ``repro-log/1``
events), and
``--metrics-out PATH`` (machine-readable ``repro-metrics/1`` JSON), and
subcommands that use randomness take an explicit ``--seed`` which is
threaded through the separator engines — no global interpreter RNG
state is consumed.  ``oracle``, ``labels``, and ``stats`` take
``--jobs N`` to fan label construction out over N worker processes;
the output is byte-identical to a serial build (see
:doc:`docs/performance`).

Labels travel in either codec of the ``repro-distance-labels`` family —
``/1`` JSON (debug) or ``/2`` packed binary (``docs/formats.md``) —
and every consumer (``query``, ``serve``, ``loadgen``, ``chaos``)
sniffs the file and accepts both; ``repro pack`` converts between
them and ``repro labels --codec binary`` emits ``/2`` directly.

All failure modes the operator can trigger — a missing input file, a
labels file that is not a valid ``repro-distance-labels`` payload, a
query for a vertex with no label — print one ``error: ...`` line on
stderr and exit with status 2, never a traceback.

Graphs are exchanged as whitespace edge lists (see
:mod:`repro.graphs.io`); generated graphs are relabeled to integers so
the format stays trivial.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import List, Optional

from repro.core.labeling import build_labeling
from repro.core.serialize import dump_labeling, load_labeling
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.ops import relabel
from repro.graphs.shortest_paths import dijkstra
from repro.obs import (
    CollectingSink,
    JsonlFileSink,
    JsonlSpanSink,
    LogSink,
    RingBufferSink,
    eventlog,
    metrics,
    span,
    use_sink,
    write_metrics_json,
)
from repro.util.errors import ReproError
from repro.util.tables import format_table


def _make_generator(family: str, n: int, seed: int, weights, p=None, m=3):
    from repro import generators as gen

    side = max(2, int(round(n**0.5)))
    makers = {
        "gnp": lambda: gen.gnp_random_graph(
            n,
            gen.default_gnp_p(n) if p is None else p,
            weight_range=weights,
            seed=seed,
            connect=True,
        ),
        "preferential-attachment": lambda: gen.preferential_attachment_graph(
            n, m, weight_range=weights, seed=seed
        ),
        "grid": lambda: gen.grid_2d(side, weight_range=weights, seed=seed),
        "grid3d": lambda: gen.grid_3d(
            max(2, int(round(n ** (1 / 3)))), weight_range=weights, seed=seed
        ),
        "tree": lambda: gen.random_tree(n, weight_range=weights, seed=seed),
        "outerplanar": lambda: gen.outerplanar_graph(n, seed=seed),
        "series-parallel": lambda: gen.series_parallel_graph(
            n, weight_range=weights, seed=seed
        ),
        "ktree": lambda: gen.k_tree(n, 3, weight_range=weights, seed=seed)[0],
        "planar": lambda: gen.random_planar_graph(
            n, weight_range=weights or (1.0, 10.0), seed=seed
        ),
        "delaunay": lambda: gen.random_delaunay_graph(n, seed=seed)[0],
        "road": lambda: gen.road_network(side, seed=seed),
        "regular": lambda: gen.random_regular_graph(n - n % 2, 3, seed=seed),
    }
    if family not in makers:
        raise ReproError(
            f"unknown family {family!r}; choose from {sorted(makers)}"
        )
    return makers[family]()


def _engines():
    """:mod:`repro.core.engines`, imported by the commands that build:
    ``serve`` and ``query`` never load the separator engines or scipy,
    and neither does this module (the build imports below sit inside
    the commands for the same reason)."""
    from repro.core import engines

    return engines


# Engine factories take (graph, seed) so the CLI ``--seed`` flag reaches
# every randomized engine instead of relying on baked-in defaults.
ENGINES = {
    "auto": lambda g, seed: _engines().auto_engine(g, seed=seed),
    "greedy": lambda g, seed: _engines().GreedyPeelingEngine(seed=seed),
    "centerbag": lambda g, seed: _engines().CenterBagEngine(order="min_degree"),
    "centroid": lambda g, seed: _engines().TreeCentroidEngine(),
    "strong": lambda g, seed: _engines().StrongGreedyEngine(seed=seed),
    "planar": lambda g, seed: _planar_engine(seed),
}


def _planar_engine(seed: int):
    # PlanarCycleEngine is deterministic; seed is accepted for a uniform
    # factory signature but unused.
    from repro.planar import PlanarCycleEngine

    return PlanarCycleEngine()


def _engine_for(args, graph):
    return ENGINES[args.engine](graph, getattr(args, "seed", 0))


def _parse_vertex(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def cmd_generate(args) -> int:
    weights = None
    if args.weights:
        lo, hi = args.weights.split(",")
        weights = (float(lo), float(hi))
    graph = _make_generator(
        args.family, args.n, args.seed, weights, p=args.p, m=args.m
    )
    index = {v: i for i, v in enumerate(sorted(graph.vertices(), key=repr))}
    graph = relabel(graph, index.__getitem__)
    write_edge_list(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def cmd_decompose(args) -> int:
    from repro.core.decomposition import build_decomposition

    graph = read_edge_list(args.graph)
    engine = _engine_for(args, graph)
    tree = build_decomposition(graph, engine=engine)
    stats = tree.stats()
    rows = [[key, round(value, 3)] for key, value in stats.items()]
    print(format_table(["stat", "value"], rows, title=f"decomposition of {args.graph}"))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(tree.to_dot() + "\n")
        print(f"wrote Graphviz tree to {args.dot}")
    return 0


def _evaluate_queries(graph, oracle, queries: int, seed: int):
    """Run *queries* random queries against ground truth; returns
    ``(count, mean_stretch, max_stretch)`` and feeds the
    ``oracle.query.stretch`` histogram."""
    rng = random.Random(seed)
    vertices = sorted(graph.vertices(), key=repr)
    worst = 1.0
    total = 0.0
    count = 0
    with span("oracle.query_eval", queries=queries):
        while count < queries:
            u = vertices[rng.randrange(len(vertices))]
            v = vertices[rng.randrange(len(vertices))]
            if u == v:
                continue
            true = dijkstra(graph, u)[0].get(v)
            if true is None:
                continue
            stretch = oracle.query(u, v) / true
            metrics.observe("oracle.query.stretch", stretch)
            worst = max(worst, stretch)
            total += stretch
            count += 1
    return count, (total / count if count else 0.0), worst


def cmd_oracle(args) -> int:
    from repro.core.oracle import PathSeparatorOracle

    graph = read_edge_list(args.graph)
    engine = _engine_for(args, graph)
    oracle = PathSeparatorOracle.build(
        graph,
        epsilon=args.epsilon,
        engine=engine,
        parallel=args.jobs,
        seed=args.seed,
    )
    count, mean_stretch, worst = _evaluate_queries(
        graph, oracle, args.queries, args.seed
    )
    report = oracle.size_report()
    print(
        format_table(
            ["metric", "value"],
            [
                ["n", graph.num_vertices],
                ["epsilon", args.epsilon],
                ["queries", count],
                ["mean stretch", round(mean_stretch, 5)],
                ["max stretch", round(worst, 5)],
                ["space (words)", report.total_words],
                ["mean label (words)", round(report.mean_words, 1)],
            ],
            title=f"oracle on {args.graph}",
        )
    )
    return 0 if worst <= 1 + args.epsilon + 1e-9 else 1


def cmd_labels(args) -> int:
    from repro.core.decomposition import build_decomposition

    graph = read_edge_list(args.graph)
    tree = build_decomposition(graph, engine=_engine_for(args, graph))
    labeling = build_labeling(
        graph,
        tree,
        epsilon=args.epsilon,
        parallel=args.jobs,
        seed=args.seed,
    )
    dump_labeling(labeling, args.out, codec=args.codec, num_shards=args.shards)
    report = labeling.size_report()
    print(
        f"wrote {len(labeling.labels)} labels (mean {report.mean_words:.1f} "
        f"words, {args.codec}) to {args.out}"
    )
    return 0


def cmd_pack(args) -> int:
    """``repro pack``: convert a labels file between the JSON (``/1``)
    and packed binary (``/2``) codecs.

    The direction is inferred by sniffing the input (override with
    ``--to``); converting a file to its own codec is allowed and
    canonicalizes it.  ``--verify`` reloads the output and requires
    the label set to match the input exactly.
    """
    from repro.core.binfmt import MAGIC, is_binary_labels
    from repro.core.flat import label_content

    in_path = Path(args.input)
    with open(in_path, "rb") as handle:
        head = handle.read(len(MAGIC))
    source_codec = "binary" if is_binary_labels(head) else "json"
    target_codec = args.to or ("json" if source_codec == "binary" else "binary")
    remote = load_labeling(in_path)
    with span("pack", labels=remote.num_labels, to=target_codec):
        dump_labeling(remote, args.out, codec=target_codec, num_shards=args.shards)
    in_bytes = in_path.stat().st_size
    out_bytes = Path(args.out).stat().st_size
    print(
        f"packed {remote.num_labels} labels: {in_bytes} bytes {source_codec} "
        f"-> {out_bytes} bytes {target_codec} "
        f"({out_bytes / max(1, in_bytes):.2f}x) in {args.out}"
    )
    if args.verify:
        packed = load_labeling(args.out)
        if packed.epsilon != remote.epsilon or list(
            map(label_content, packed.labels.values())
        ) != list(map(label_content, remote.labels.values())):
            raise ReproError(
                f"verification failed: {args.out} does not reproduce "
                f"the label set of {args.input}"
            )
        print(f"verified: {args.out} reproduces the label set exactly")
    return 0


def _query_remote(args) -> int:
    """``repro query --remote HOST:PORT``: same answers, served over TCP
    through the resilient client (retries on transient faults, exit 2 on
    permanent errors — identical surface to the offline path)."""
    from repro.serve import ResilientClient, RetryPolicy, parse_address
    from repro.serve.loadgen import read_pairs_file

    # With --remote there is no labels file, so the positionals shift
    # left: `repro query --remote h:p U V` parses as labels=U, u=V.
    tokens = [t for t in (args.labels, args.u, args.v) if t is not None]
    policy = RetryPolicy(attempts=args.retries + 1, attempt_timeout=args.timeout)
    client = ResilientClient(
        [parse_address(args.remote)], policy=policy, store=args.store
    )

    def value_of(fields: dict) -> float:
        est = fields.get("estimate")
        return float("inf") if est is None else est

    async def run() -> int:
        try:
            if args.pairs_file:
                if tokens:
                    raise ReproError("give either U V or --pairs-file, not both")
                if args.pairs_file == "-":
                    pairs = read_pairs_file("<stdin>", stream=sys.stdin)
                else:
                    pairs = read_pairs_file(args.pairs_file)
                response = await client.batch(pairs)
                for (u, v), item in zip(pairs, response.get("results", [])):
                    if isinstance(item, dict) and item.get("ok"):
                        print(f"{u} {v} {value_of(item):.6g}")
                    else:
                        error = (item or {}).get("error", {})
                        print(f"{u} {v} error:{error.get('code', 'internal')}")
                return 0
            if len(tokens) != 2:
                raise ReproError("need two vertices U V (or --pairs-file)")
            u, v = _parse_vertex(tokens[0]), _parse_vertex(tokens[1])
            response = await client.dist(u, v)
            print(f"d({u}, {v}) <= {value_of(response):.6g}")
            return 0
        finally:
            await client.close()

    return asyncio.run(run())


def cmd_query(args) -> int:
    if args.remote:
        return _query_remote(args)
    # load_labeling raises SerializationError for malformed payloads and
    # OSError for a missing file; the store raises GraphError for an
    # unlabeled vertex.  All three become one-line ``error: ...``
    # messages with exit status 2 in main().
    if args.labels is None:
        raise ReproError("need a labels file (or --remote HOST:PORT)")
    from repro.serve.store import ShardedLabelStore

    # Decoding the whole file up front (not the lazy mmap open) keeps a
    # truncated or malformed file a load error rather than a late one.
    store = ShardedLabelStore.from_remote(
        Path(args.labels).stem, load_labeling(args.labels)
    )
    estimate = store.estimate
    if args.pairs_file:
        # Batch mode: one load_labeling amortized over many estimates,
        # one ``u v estimate`` line per pair.
        from repro.serve.loadgen import read_pairs_file

        if args.u is not None or args.v is not None:
            raise ReproError("give either U V or --pairs-file, not both")
        if args.pairs_file == "-":
            pairs = read_pairs_file("<stdin>", stream=sys.stdin)
        else:
            pairs = read_pairs_file(args.pairs_file)
        for u, v in pairs:
            print(f"{u} {v} {estimate(u, v):.6g}")
        return 0
    if args.u is None or args.v is None:
        raise ReproError("need two vertices U V (or --pairs-file)")
    u, v = _parse_vertex(args.u), _parse_vertex(args.v)
    d_hat = estimate(u, v)
    print(f"d({u}, {v}) <= {d_hat:.6g}   (within factor {1 + store.epsilon})")
    return 0


def _sample_distinct_pairs(vertices, count: int, rng: random.Random):
    """*count* uniform (u, v) pairs with u != v — self-pairs are
    resampled, not silently kept, because a greedy route from u to u
    is 0 hops and deflates the mean."""
    pairs = []
    while len(pairs) < count:
        u = vertices[rng.randrange(len(vertices))]
        v = vertices[rng.randrange(len(vertices))]
        if u != v:
            pairs.append((u, v))
    return pairs


def cmd_smallworld(args) -> int:
    from repro.baselines import KleinbergAugmentation, UniformAugmentation
    from repro.core import AugmentedGraph, GreedyRouter, PathSeparatorAugmentation
    from repro.core.decomposition import build_decomposition

    graph = read_edge_list(args.graph)
    tree = build_decomposition(graph, engine=_engine_for(args, graph))
    rng = random.Random(args.seed)
    vertices = sorted(graph.vertices(), key=repr)
    pairs = _sample_distinct_pairs(vertices, args.pairs, rng)
    rows = []
    for name, augmented in (
        ("path-separator", PathSeparatorAugmentation(tree).augment(graph, seed=args.seed)),
        ("kleinberg", KleinbergAugmentation(2.0).augment(graph, seed=args.seed)),
        ("uniform", UniformAugmentation().augment(graph, seed=args.seed)),
        ("none", AugmentedGraph(base=graph)),
    ):
        rows.append([name, round(GreedyRouter(augmented).mean_hops(pairs), 2)])
    print(format_table(["augmentation", "mean greedy hops"], rows))
    return 0


async def _serve_main(server) -> None:
    """Start *server*, announce the bound address, run until a signal."""
    import signal

    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loops: Ctrl-C still raises KeyboardInterrupt
    host, port = server.address
    print(
        f"serving {server.catalog.num_labels} labels "
        f"({len(server.catalog)} store(s)) on {host}:{port}",
        flush=True,
    )
    # Machine-readable readiness: with --port 0 this is how a parent
    # process (repro cluster up) learns the bound ephemeral port.
    print(f"ready {host}:{port}", flush=True)
    await server.serve_until_shutdown()
    stats = server.counters
    print(
        f"drained: {stats['requests']} requests "
        f"({stats['errors']} errors) over {stats['connections']} connections",
        flush=True,
    )


def cmd_serve(args) -> int:
    from repro.serve import FaultPlan, OracleServer, ShardedLabelStore, StoreCatalog

    fault_plan = None
    if args.fault_plan:
        # FaultPlan.load validates the plan (format stamp, kinds, rates)
        # before the port is ever bound, same as the label stores below.
        fault_plan = FaultPlan.load(args.fault_plan)
        kinds = sorted({r.kind for s in fault_plan.stages for r in s.rules})
        print(
            f"fault plan {args.fault_plan!r}: {len(fault_plan.stages)} stage(s), "
            f"kinds {kinds}, seed {fault_plan.seed}",
            file=sys.stderr,
        )
    catalog = StoreCatalog()
    for path in args.labels:
        # ShardedLabelStore.load validates the format stamp here, so an
        # incompatible file is refused before the port is ever bound.
        store = catalog.add(
            ShardedLabelStore.load(path, num_shards=args.shards)
        )
        print(
            f"loaded store {store.name!r}: {store.num_labels} labels, "
            f"{store.total_words} words across {store.num_shards} shards",
            file=sys.stderr,
        )
    timeseries = None
    if args.timeseries_out:
        from repro.obs import TimeseriesWriter

        timeseries = TimeseriesWriter(
            args.timeseries_out, interval_s=args.timeseries_interval
        )
        print(
            f"timeseries: repro-timeseries/1 deltas to {args.timeseries_out!r} "
            f"every {args.timeseries_interval}s",
            file=sys.stderr,
        )
    cluster = None
    if bool(args.cluster_map) != bool(args.cluster_node):
        raise ReproError("--cluster-map and --cluster-node go together")
    if args.cluster_map:
        from repro.cluster.map import ClusterMap, ClusterNodeState, store_name_for_shard

        cluster_map = ClusterMap.load(args.cluster_map)
        names = {store.name for store in catalog}
        owned = frozenset(
            shard
            for shard in range(cluster_map.num_shards)
            if store_name_for_shard(shard) in names
        )
        cluster = ClusterNodeState(
            node_id=args.cluster_node, map=cluster_map, owned=owned
        )
        print(
            f"cluster node {args.cluster_node!r}: owns {len(owned)} of "
            f"{cluster_map.num_shards} shards (map epoch {cluster_map.epoch})",
            file=sys.stderr,
        )
    server = OracleServer(
        catalog,
        host=args.host,
        port=args.port,
        cache_size=args.cache,
        request_timeout=args.timeout,
        drain_grace=args.drain_grace,
        fault_plan=fault_plan,
        timeseries=timeseries,
        cluster=cluster,
    )
    try:
        asyncio.run(_serve_main(server))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_loadgen_updates(args) -> int:
    """``repro loadgen --updates N``: incremental relabeling under live
    traffic.  Builds the labeling locally (same graph / engine / seed /
    epsilon as the served labels), interleaves N journaled edge
    reweights with byte-verified query phases, pushes each delta to the
    server as an epoch-gated DELTA, and finishes with a from-scratch
    rebuild comparison plus a final verification phase against that
    fresh rebuild (see docs/dynamic.md)."""
    import time

    from repro.core.decomposition import build_decomposition
    from repro.dynamic import JournalWriter
    from repro.dynamic.driver import run_update_loadgen
    from repro.obs import write_bench_json

    if not args.update_graph:
        raise ReproError(
            "--updates needs --update-graph (the edge list the served "
            "labels were built from)"
        )
    if args.cluster_map:
        raise ReproError("--updates drives one --host/--port server")
    graph = read_edge_list(args.update_graph)
    tree = build_decomposition(graph, engine=_engine_for(args, graph))
    labeling = build_labeling(graph, tree, epsilon=args.epsilon, seed=args.seed)
    journal = None
    if args.update_journal:
        journal = JournalWriter(
            args.update_journal,
            epsilon=labeling.epsilon,
            source=str(args.update_graph),
        )
    try:
        report = asyncio.run(
            run_update_loadgen(
                args.host,
                args.port,
                labeling,
                updates=args.updates,
                queries_per_update=args.queries_per_update,
                verify_queries=args.verify_queries,
                concurrency=args.concurrency,
                store=args.store,
                journal=journal,
                verify_rebuild=not args.no_verify_rebuild,
                request_timeout=args.timeout,
                seed=args.seed,
            )
        )
    finally:
        if journal is not None:
            journal.close()
    target = f"{args.host}:{args.port}"
    print(
        format_table(
            ["metric", "value"],
            report.rows(),
            title=f"loadgen --updates {args.updates} vs {target}",
        )
    )
    for sample in report.loadgen.error_samples:
        print(f"note: {sample}", file=sys.stderr)
    if args.bench_out:
        write_bench_json(
            args.bench_out,
            "dynamic",
            header=["metric", "value"],
            rows=report.rows(),
            meta={
                "target": target,
                "graph": str(args.update_graph),
                "engine": args.engine,
                "epsilon": args.epsilon,
                "journal": args.update_journal,
                **report.meta(),
            },
            unix_time=time.time(),
        )
        print(f"wrote bench record to {args.bench_out}", file=sys.stderr)
    return 0 if report.ok and report.loadgen.errors == 0 else 1


def cmd_loadgen(args) -> int:
    import time

    from repro.obs import write_bench_json
    from repro.serve import read_pairs_file, run_loadgen, synthesize_pairs

    if args.updates:
        return _cmd_loadgen_updates(args)
    remote = load_labeling(args.labels) if args.labels else None
    if args.replay:
        from repro.serve.querytrace import read_trace

        if args.pairs_file:
            raise ReproError("give either --replay or --pairs-file, not both")
        pairs = read_trace(args.replay)
    elif args.pairs_file:
        if args.pairs_file == "-":
            pairs = read_pairs_file("<stdin>", stream=sys.stdin)
        else:
            pairs = read_pairs_file(args.pairs_file)
    else:
        if remote is None:
            raise ReproError(
                "need --labels (to sample labeled vertices) or --pairs-file"
            )
        pairs = synthesize_pairs(
            list(remote.vertices()), args.pairs, args.seed, zipf=args.zipf
        )
    if args.record_trace:
        from repro.serve.querytrace import write_trace

        meta = {"seed": args.seed}
        if args.zipf is not None:
            meta["zipf"] = args.zipf
        if args.labels:
            meta["labels"] = str(args.labels)
        write_trace(args.record_trace, pairs, meta=meta)
        print(
            f"recorded {len(pairs)} pairs to {args.record_trace}",
            file=sys.stderr,
        )
    if args.verify and remote is None:
        raise ReproError("--verify needs --labels to compute offline estimates")

    cluster_client = None
    if args.cluster_map:
        from repro.cluster import ClusterClient
        from repro.serve import RetryPolicy

        cluster_client = ClusterClient.from_file(
            args.cluster_map,
            policy=RetryPolicy(
                attempts=args.retries + 1,
                attempt_timeout=args.attempt_timeout or args.timeout,
                hedge_after=args.hedge,
            ),
            seed=args.seed,
        )

    async def drive():
        try:
            return await run_loadgen(
                args.host,
                args.port,
                pairs,
                concurrency=args.concurrency,
                batch=args.batch,
                store=args.store,
                verify=remote if args.verify else None,
                request_timeout=args.timeout,
                retries=args.retries,
                attempt_timeout=args.attempt_timeout,
                hedge_after=args.hedge,
                seed=args.seed,
                slo_ms=args.slo_ms,
                client=cluster_client,
            )
        finally:
            if cluster_client is not None:
                await cluster_client.close()

    target = args.cluster_map or f"{args.host}:{args.port}"
    report = asyncio.run(drive())
    print(
        format_table(
            ["metric", "value"],
            report.rows(),
            title=f"loadgen vs {target}",
        )
    )
    if cluster_client is not None:
        print(
            "cluster routing: "
            + ", ".join(
                f"{key}={value}"
                for key, value in sorted(cluster_client.counters.items())
            ),
            file=sys.stderr,
        )
    for sample in report.error_samples:
        print(f"note: {sample}", file=sys.stderr)
    if args.bench_out:
        meta = {
            "target": target,
            "pairs": len(pairs),
            "verified": bool(args.verify),
            **report.meta(),
        }
        if args.zipf is not None:
            meta["zipf"] = args.zipf
        if cluster_client is not None:
            meta["cluster"] = cluster_client.stats()["cluster"]
        write_bench_json(
            args.bench_out,
            "serve",
            header=["metric", "value"],
            rows=report.rows(),
            meta=meta,
            unix_time=time.time(),
        )
        print(f"wrote bench record to {args.bench_out}", file=sys.stderr)
    return 0 if report.errors == 0 and report.mismatches == 0 else 1


def cmd_update(args) -> int:
    """``repro update``: journaled incremental relabeling, offline.

    Loads the graph, rebuilds its decomposition tree (same engine and
    seed the labels were built with), attaches the exported labels,
    replays any existing journal to reach its last epoch, then applies
    each ``--edge U V W`` reweight incrementally — journaling every
    delta and optionally pushing it to a running server (``--push``)
    and writing the updated labels (``--out``).  ``--verify`` rebuilds
    from scratch at the end and requires byte-identical labels.
    """
    from repro.core.decomposition import build_decomposition
    from repro.core.labeling import DistanceLabeling
    from repro.dynamic import (
        EdgeUpdate,
        JournalWriter,
        delta_to_dict,
        incremental_relabel,
        read_journal,
        replay_journal,
    )

    graph = read_edge_list(args.graph)
    tree = build_decomposition(graph, engine=_engine_for(args, graph))
    remote = load_labeling(args.labels)
    labeling = DistanceLabeling(graph, tree, remote.epsilon, remote.labels)
    journal_path = Path(args.journal)
    if journal_path.exists() and journal_path.stat().st_size > 0:
        read = read_journal(journal_path)
        for warning in read.warnings:
            print(f"note: {warning}", file=sys.stderr)
        replayed = replay_journal(read, labeling)
        if replayed:
            print(f"replayed {replayed} journaled deltas "
                  f"(at epoch {read.last_epoch})")

    deltas = []
    with JournalWriter(
        journal_path, epsilon=labeling.epsilon, source=str(args.graph)
    ) as journal:
        for u_token, v_token, w_token in args.edge:
            u, v = _parse_vertex(u_token), _parse_vertex(v_token)
            try:
                weight = float(w_token)
            except ValueError:
                raise ReproError(f"bad edge weight {w_token!r}") from None
            delta = incremental_relabel(labeling, EdgeUpdate(u, v, weight))
            journal.append(delta)
            deltas.append(delta)
            print(f"epoch {delta.epoch}: {u} -- {v} reweighted "
                  f"{delta.old_weight:g} -> {weight:g} "
                  f"({delta.num_changes} label entries, {delta.units} units)")

    if args.push:
        from repro.serve import ResilientClient, RetryPolicy, parse_address

        async def push_all() -> None:
            client = ResilientClient(
                [parse_address(args.push)],
                policy=RetryPolicy(attempts=3, attempt_timeout=args.timeout),
                store=args.store,
            )
            try:
                for delta in deltas:
                    payload = {
                        "op": "DELTA",
                        "action": "apply",
                        "delta": delta_to_dict(delta),
                    }
                    response = await client.call(payload)
                    status = (
                        "applied" if response.get("applied")
                        else "noop" if response.get("noop")
                        else "rejected"
                    )
                    print(f"pushed epoch {delta.epoch}: {status} "
                          f"(server epoch {response.get('epoch')})")
            finally:
                await client.close()

        asyncio.run(push_all())

    if args.out:
        dump_labeling(labeling, args.out, codec=args.codec)
        print(f"wrote {len(labeling.labels)} updated labels to {args.out}")
    if args.verify:
        fresh = build_labeling(
            graph, tree, epsilon=labeling.epsilon, seed=args.seed
        )
        if dump_labeling(fresh) != dump_labeling(labeling):
            raise ReproError(
                "verification failed: incrementally updated labels differ "
                "from a from-scratch rebuild on the updated graph"
            )
        print("verified: incremental labels are byte-identical to a "
              "from-scratch rebuild")
    return 0


# The default chaos schedule when no --fault-plan is given: the CI
# scenario from docs/serving.md — 10% dropped replies plus a 50ms
# fixed delay on every response.
DEFAULT_CHAOS_PLAN = {
    "format": "repro-fault-plan/1",
    "seed": 0,
    "rules": [
        {"kind": "drop", "rate": 0.1},
        {"kind": "delay", "rate": 1.0, "delay_ms": 50.0},
    ],
}


def _cmd_chaos_cluster(args) -> int:
    """``repro chaos --cluster N``: the kill-a-node drill.

    Initializes an N-node R-replicated cluster from the labels file in
    a temp directory, launches it, and runs two phases:

    * **throughput** — skewed BATCH traffic against all N nodes through
      the cluster client (this is the aggregate-QPS number);
    * **chaos** — ``--pairs`` byte-verified DIST queries, during which
      (with ``--kill-replica``) one replica is SIGKILLed mid-run.  The
      phase must finish with zero errors and zero mismatches: failover
      and the label-combine fallback have to absorb the loss.
    """
    import shutil
    import tempfile
    import time

    from repro.cluster import ClusterClient, LocalCluster, init_cluster
    from repro.obs import write_bench_json
    from repro.serve import RetryPolicy
    from repro.serve.loadgen import LoadgenReport, run_loadgen, synthesize_pairs

    if args.cluster < 2:
        raise ReproError(f"--cluster needs at least 2 nodes, got {args.cluster}")
    if args.fault_plan:
        raise ReproError("--fault-plan is for single-node chaos; "
                         "--cluster injects real process death instead")
    remote = load_labeling(args.labels)
    vertices = list(remote.vertices())
    pairs_throughput = synthesize_pairs(
        vertices, args.throughput_pairs, args.seed, zipf=args.zipf
    )
    pairs_chaos = synthesize_pairs(vertices, args.pairs, args.seed + 1)
    policy = RetryPolicy(
        attempts=args.retries + 1,
        attempt_timeout=args.attempt_timeout,
        hedge_after=args.hedge,
    )
    root = Path(tempfile.mkdtemp(prefix="repro-chaos-cluster-"))

    async def run():
        init_cluster(
            args.labels,
            root,
            nodes=args.cluster,
            replication=args.replication,
            num_shards=args.cluster_shards,
            seed=args.seed,
        )
        cluster = LocalCluster(root, cache=args.cache)
        live_map = await cluster.start()
        victim = None
        try:
            # Phase A: aggregate throughput, every node up.
            client = ClusterClient(live_map, policy=policy, seed=args.seed)
            try:
                report_a = await run_loadgen(
                    "127.0.0.1",
                    0,
                    pairs_throughput,
                    concurrency=args.concurrency,
                    batch=args.throughput_batch,
                    seed=args.seed,
                    client=client,
                )
            finally:
                await client.close()

            # Phase B: verified queries with a replica dying mid-run.
            client = ClusterClient(live_map, policy=policy, seed=args.seed)
            report_b = LoadgenReport()
            kill_after = max(1, args.pairs // 3)
            try:
                load_task = asyncio.ensure_future(
                    run_loadgen(
                        "127.0.0.1",
                        0,
                        pairs_chaos,
                        concurrency=args.concurrency,
                        batch=1,
                        verify=remote,
                        seed=args.seed,
                        client=client,
                        report=report_b,
                    )
                )
                if args.kill_replica:
                    while not load_task.done() and report_b.sent < kill_after:
                        await asyncio.sleep(0.005)
                    if not load_task.done():
                        victim = cluster.victim_for(0)
                        cluster.kill(victim)
                await load_task
            finally:
                await client.close()
        finally:
            drain = await cluster.stop()
        return report_a, report_b, victim, drain, live_map

    try:
        report_a, report_b, victim, drain, live_map = asyncio.run(run())
    finally:
        shutil.rmtree(root, ignore_errors=True)

    print(
        format_table(
            ["metric", "value"],
            report_a.rows(),
            title=(
                f"cluster throughput: {args.cluster} nodes (R={args.replication}), "
                f"batch {args.throughput_batch}, zipf {args.zipf}"
            ),
        )
    )
    print()
    killed = f"node {victim} SIGKILLed mid-run" if victim else "no node killed"
    print(
        format_table(
            ["metric", "value"],
            report_b.rows(),
            title=f"cluster chaos: {args.pairs} verified queries, {killed}",
        )
    )
    for sample in report_b.error_samples:
        print(f"note: {sample}", file=sys.stderr)
    survivors_drained = all(
        r["drained"] for node, r in drain.items() if node != victim
    )
    if not survivors_drained:
        print("note: a surviving node exited without its drain report",
              file=sys.stderr)
    if args.bench_out:
        write_bench_json(
            args.bench_out,
            "cluster",
            header=["metric", "value"],
            rows=report_b.rows(),
            meta={
                "mode": "cluster",
                "nodes": args.cluster,
                "replication": args.replication,
                "cluster_shards": args.cluster_shards,
                "map_epoch": live_map.epoch,
                "cpu_count": os.cpu_count(),
                "killed_node": victim,
                "kill_after_sent": max(1, args.pairs // 3),
                "throughput": {
                    "pairs": len(pairs_throughput),
                    "batch": args.throughput_batch,
                    "zipf": args.zipf,
                    "verified": False,
                    **report_a.meta(),
                },
                "chaos": {
                    "pairs": len(pairs_chaos),
                    "verified": True,
                    **report_b.meta(),
                },
                "drain": drain,
            },
            unix_time=time.time(),
        )
        print(f"wrote bench record to {args.bench_out}", file=sys.stderr)
    clean = (
        report_b.ok == len(pairs_chaos)
        and report_b.errors == 0
        and report_b.mismatches == 0
        and survivors_drained
        and (victim is not None or not args.kill_replica)
    )
    return 0 if clean else 1


def cmd_chaos(args) -> int:
    """Self-hosted resilience check: serve the labels with a fault plan
    active, drive them through the resilient client, verify every answer
    byte-exactly, and report what the faults cost."""
    import time

    from repro.obs import write_bench_json
    from repro.serve import (
        FaultPlan,
        OracleServer,
        ShardedLabelStore,
        StoreCatalog,
        run_loadgen,
        synthesize_pairs,
    )

    if args.cluster:
        return _cmd_chaos_cluster(args)
    if args.fault_plan:
        plan = FaultPlan.load(args.fault_plan)
    else:
        plan = FaultPlan.from_dict(
            {**DEFAULT_CHAOS_PLAN, "seed": args.seed}
        )
    remote = load_labeling(args.labels)
    pairs = synthesize_pairs(list(remote.vertices()), args.pairs, args.seed)
    catalog = StoreCatalog()
    catalog.add(ShardedLabelStore.load(args.labels, num_shards=args.shards))

    async def run():
        server = OracleServer(
            catalog, host="127.0.0.1", port=0, fault_plan=plan
        )
        await server.start()
        try:
            report = await run_loadgen(
                "127.0.0.1",
                server.port,
                pairs,
                concurrency=args.concurrency,
                batch=args.batch,
                verify=remote,
                retries=args.retries,
                attempt_timeout=args.attempt_timeout,
                hedge_after=args.hedge,
                seed=args.seed,
            )
        finally:
            await server.shutdown()
        return report, server.faults.status()

    report, fault_status = asyncio.run(run())
    injected = fault_status.get("injected", {})
    print(
        format_table(
            ["metric", "value"],
            report.rows(),
            title=f"chaos: {args.pairs} verified queries under faults",
        )
    )
    print()
    print(
        format_table(
            ["fault", "injected"],
            sorted(injected.items()) or [["(none)", 0]],
            title="server-side fault injections",
        )
    )
    for sample in report.error_samples:
        print(f"note: {sample}", file=sys.stderr)
    if args.bench_out:
        write_bench_json(
            args.bench_out,
            "chaos",
            header=["metric", "value"],
            rows=report.rows(),
            meta={
                "pairs": len(pairs),
                "verified": True,
                "fault_plan": plan.to_dict(),
                "faults_injected": injected,
                **report.meta(),
            },
            unix_time=time.time(),
        )
        print(f"wrote bench record to {args.bench_out}", file=sys.stderr)
    # Chaos succeeds when the faults were *absorbed*: every query got a
    # byte-exact answer.  Errors mean the retry policy was too weak for
    # the plan; mismatches mean a correctness bug.
    return 0 if report.mismatches == 0 and report.ok > 0 and report.errors == 0 else 1


def cmd_cluster_init(args) -> int:
    """``repro cluster init``: one labels file -> a cluster data
    directory (authored map + canonical shard packs + per-node
    replicas), ready for ``repro cluster up``."""
    from repro.cluster import MAP_FILE, init_cluster

    cluster_map = init_cluster(
        args.labels,
        args.root,
        nodes=args.nodes,
        replication=args.replication,
        num_shards=args.shards,
        seed=args.seed,
    )
    print(
        f"initialized cluster in {args.root}: {len(cluster_map.nodes)} nodes, "
        f"{cluster_map.num_shards} shards at R={cluster_map.replication} "
        f"(map epoch {cluster_map.epoch} in {Path(args.root) / MAP_FILE})"
    )
    return 0


def cmd_cluster_up(args) -> int:
    """``repro cluster up``: launch one ``repro serve`` per node on
    ephemeral ports, push the live map, run until a signal (or
    ``--duration``), then drain."""
    import signal

    from repro.cluster import LIVE_MAP_FILE, LocalCluster

    async def run() -> int:
        cluster = LocalCluster(args.root, cache=args.cache, host=args.host)
        live = await cluster.start()
        for node in live.nodes:
            print(f"node {node.id}: {node.host}:{node.port}", flush=True)
        print(
            f"cluster up: {len(live.nodes)} nodes at epoch {live.epoch}; "
            f"live map in {Path(args.root) / LIVE_MAP_FILE}",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await asyncio.wait_for(stop.wait(), args.duration)
        except asyncio.TimeoutError:
            pass
        results = await cluster.stop()
        undrained = sorted(
            node for node, r in results.items() if not r["drained"]
        )
        print(
            f"cluster down: {len(results)} nodes stopped"
            + (f", undrained: {undrained}" if undrained else ""),
            flush=True,
        )
        return 1 if undrained else 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def cmd_cluster_plan(args) -> int:
    """``repro cluster plan``: diff two maps into the minimal shard
    moves that turn the old layout into the new one."""
    from repro.cluster import ClusterMap, diff_maps

    old = ClusterMap.load(args.old)
    new = ClusterMap.load(args.new)
    plan = diff_maps(old, new)
    rows = [
        [copy.shard, copy.src or "(canonical)", copy.dst, "copy"]
        for copy in plan.copies
    ] + [[drop.shard, drop.node, "-", "drop"] for drop in plan.drops]
    print(
        format_table(
            ["shard", "from", "to", "action"],
            rows or [["-", "-", "-", "(no moves)"]],
            title=(
                f"rebalance epoch {old.epoch} -> {plan.new_epoch}: "
                f"{plan.moved_shards} shard(s) move"
            ),
        )
    )
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(plan.to_dict(), indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote plan to {args.json_out}", file=sys.stderr)
    return 0


def cmd_cluster_apply(args) -> int:
    """``repro cluster apply``: execute a rebalance against a cluster
    data directory — copy shard packs to their new replicas, bump the
    authored map's epoch, optionally prune dropped replicas."""
    from repro.cluster import MAP_FILE, ClusterMap, apply_plan, diff_maps

    root = Path(args.root)
    old = ClusterMap.load(root / MAP_FILE)
    new = ClusterMap.load(args.new)
    plan = diff_maps(old, new)
    summary = apply_plan(root, plan, new, prune=args.prune)
    print(
        f"applied rebalance to {root}: {summary['copied']} copied, "
        f"{summary['skipped']} already present, {summary['pruned']} pruned; "
        f"map now at epoch {plan.new_epoch}"
    )
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: merge ``repro-spans/1`` files from any number of
    processes and render one tree per request with critical-path
    timings.  ``--require-join`` is the CI gate: at least one trace
    must stitch client-side and server-side spans into a single tree."""
    from repro.obs.traceview import (
        assemble_traces,
        cross_process,
        read_span_files,
        render_trace,
    )

    records, skipped = read_span_files(args.files)
    trees = assemble_traces(records)
    joined = sum(1 for tree in trees if cross_process(tree))
    shown = trees if args.limit is None else trees[: args.limit]
    for tree in shown:
        print(render_trace(tree))
        print()
    summary = (
        f"{len(records)} span(s) in {len(args.files)} file(s): "
        f"{len(trees)} trace(s), {joined} joined across processes"
    )
    if len(shown) < len(trees):
        summary += f", showing first {len(shown)}"
    if skipped:
        summary += f", {skipped} unparseable line(s) skipped"
    print(summary)
    if args.require_join and joined == 0:
        print(
            "error: no trace joined client- and server-side spans into one tree",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_top(args) -> int:
    """``repro top``: poll a running server's METRICS op and render a
    live frame per tick (rates are deltas between consecutive polls)."""
    import time

    from repro.serve import ResilientClient, RetryPolicy, parse_address
    from repro.serve.top import render_top

    policy = RetryPolicy(attempts=args.retries + 1, attempt_timeout=args.timeout)
    client = ResilientClient([parse_address(args.target)], policy=policy)

    async def run() -> int:
        prev = None
        prev_t = None
        ticks = 0
        try:
            while args.iterations is None or ticks < args.iterations:
                if ticks:
                    await asyncio.sleep(args.interval)
                cur = await client.call({"op": "METRICS"})
                now = time.monotonic()
                dt = (now - prev_t) if prev_t is not None else None
                print(f"-- {args.target} --")
                print(
                    render_top(cur, prev, dt, client.stats()["breakers"]),
                    flush=True,
                )
                print()
                prev, prev_t = cur, now
                ticks += 1
            return 0
        finally:
            await client.close()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _phase_rows(roots):
    """Flatten collected span trees into per-phase table rows."""
    rows = []
    for root in roots:
        base = root.duration_s or 1e-12
        for node, depth in root.walk():
            rows.append(
                [
                    "  " * depth + node.name,
                    round(node.duration_s, 4),
                    round(node.self_ns / 1e9, 4),
                    round(100.0 * node.duration_s / base, 1),
                ]
            )
    return rows


def _level_rows(tree):
    """Per-level breakdown of the decomposition tree."""
    levels = {}
    for node in tree.nodes:
        agg = levels.setdefault(
            node.depth, {"nodes": 0, "paths": 0, "sep_vertices": 0, "size": 0}
        )
        agg["nodes"] += 1
        agg["paths"] += node.separator.num_paths
        agg["sep_vertices"] += len(node.separator.vertices())
        agg["size"] += node.size
    return [
        [
            level,
            agg["nodes"],
            agg["paths"],
            agg["sep_vertices"],
            round(agg["size"] / agg["nodes"], 1),
        ]
        for level, agg in sorted(levels.items())
    ]


def cmd_stats(args) -> int:
    from repro.core.oracle import PathSeparatorOracle

    graph = read_edge_list(args.graph)
    engine = _engine_for(args, graph)
    collector = CollectingSink()
    with metrics.activate(reset=False), use_sink(collector):
        oracle = PathSeparatorOracle.build(
            graph,
            epsilon=args.epsilon,
            engine=engine,
            parallel=args.jobs,
            seed=args.seed,
        )
        count, mean_stretch, worst = _evaluate_queries(
            graph, oracle, args.queries, args.seed
        )

    phase_rows = _phase_rows(collector.roots)
    level_rows = _level_rows(oracle.tree)
    snapshot = metrics.snapshot()
    scalar_rows = [
        [name, round(value, 3)]
        for name, value in sorted(
            {**snapshot["counters"], **snapshot["gauges"]}.items()
        )
    ]
    hist_rows = [
        [
            name,
            h["count"],
            round(h["mean"], 3),
            round(h["p50"], 3),
            round(h["p90"], 3),
            round(h["max"], 3),
        ]
        for name, h in sorted(snapshot["histograms"].items())
    ]

    print(
        format_table(
            ["phase", "wall_s", "self_s", "pct"],
            phase_rows,
            title=f"per-phase timing on {args.graph} (eps={args.epsilon})",
        )
    )
    print()
    print(
        format_table(
            ["level", "nodes", "paths", "sep_vertices", "mean_size"],
            level_rows,
            title="per-level decomposition breakdown",
        )
    )
    print()
    print(format_table(["metric", "value"], scalar_rows, title="counters / gauges"))
    print()
    print(
        format_table(
            ["histogram", "count", "mean", "p50", "p90", "max"],
            hist_rows,
            title="histograms",
        )
    )
    print()
    print(
        f"{count} queries: mean stretch {mean_stretch:.4f}, "
        f"max stretch {worst:.4f} (bound {1 + args.epsilon})"
    )

    # Enrich the generic --metrics-out payload with the same breakdowns.
    args._metrics_extra = {
        "command": "stats",
        "graph": args.graph,
        "n": graph.num_vertices,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "queries": {
            "count": count,
            "mean_stretch": mean_stretch,
            "max_stretch": worst,
        },
        "phases": [root.to_dict() for root in collector.roots],
        "levels": [
            {
                "level": level,
                "nodes": nodes,
                "paths": paths,
                "sep_vertices": sep_vertices,
                "mean_size": mean_size,
            }
            for level, nodes, paths, sep_vertices, mean_size in level_rows
        ],
    }
    return 0 if worst <= 1 + args.epsilon + 1e-9 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Object location using path separators (PODC 2006)",
    )
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_parent.add_argument(
        "--trace",
        action="store_true",
        help="log hierarchical spans to stderr as they complete",
    )
    obs_parent.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a repro-metrics/1 JSON snapshot to PATH on exit",
    )
    obs_parent.add_argument(
        "--trace-out",
        metavar="PATH",
        help="append completed spans to PATH as repro-spans/1 JSONL",
    )
    obs_parent.add_argument(
        "--log-file",
        metavar="PATH",
        help="append structured events to PATH as repro-log/1 JSONL",
    )
    obs_parent.add_argument(
        "--log-ring",
        type=int,
        metavar="N",
        help="keep the last N events in memory; dump to stderr on failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate", help="generate a benchmark graph", parents=[obs_parent]
    )
    p.add_argument("--family", default="grid")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", help="LO,HI uniform edge weights")
    p.add_argument("--p", type=float, default=None,
                   help="edge probability for --family gnp "
                   "(default: 3 ln(n)/n, above the connectivity threshold)")
    p.add_argument("--m", type=int, default=3,
                   help="edges per new vertex for "
                   "--family preferential-attachment (default 3)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "decompose", help="decomposition statistics", parents=[obs_parent]
    )
    p.add_argument("graph")
    p.add_argument("--engine", choices=sorted(ENGINES), default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", help="also write the tree as Graphviz DOT")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "oracle",
        help="build an oracle and evaluate stretch",
        parents=[obs_parent],
    )
    p.add_argument("graph")
    p.add_argument("--engine", choices=sorted(ENGINES), default="auto")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="build labels with N worker processes (same bytes as serial)",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "labels",
        help="build and export distance labels",
        parents=[obs_parent],
    )
    p.add_argument("graph")
    p.add_argument("--engine", choices=sorted(ENGINES), default="auto")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="build labels with N worker processes (same bytes as serial)",
    )
    p.add_argument("--codec", choices=["json", "binary"], default="json",
                   help="output codec: repro-distance-labels/1 JSON (debug, "
                   "default) or /2 packed binary (see docs/formats.md)")
    p.add_argument("--shards", type=int, default=8,
                   help="pack-time shard count (binary codec only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser(
        "pack",
        help="convert a labels file between the JSON and binary codecs",
        parents=[obs_parent],
    )
    p.add_argument("input", help="labels file in either codec")
    p.add_argument("out", help="output path")
    p.add_argument("--to", choices=["json", "binary"], default=None,
                   help="target codec (default: the other one)")
    p.add_argument("--shards", type=int, default=8,
                   help="pack-time shard count baked into a binary output")
    p.add_argument("--verify", action="store_true",
                   help="reload the output and require the label set to "
                   "match the input exactly")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser(
        "query",
        help="answer a query from exported labels",
        parents=[obs_parent],
    )
    p.add_argument("labels", nargs="?",
                   help="labels file (omit with --remote)")
    p.add_argument("u", nargs="?")
    p.add_argument("v", nargs="?")
    p.add_argument(
        "--pairs-file",
        metavar="PATH",
        help="answer every 'u v' pair in PATH ('-' for stdin) instead of "
        "one positional pair; prints one 'u v estimate' line each",
    )
    p.add_argument("--remote", metavar="HOST:PORT",
                   help="ask a running `repro serve` instead of reading "
                   "a labels file")
    p.add_argument("--store", help="named store on the remote server")
    p.add_argument("--retries", type=int, default=2, metavar="R",
                   help="extra attempts per remote request")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-attempt remote deadline in seconds")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "smallworld",
        help="compare greedy-routing augmentations",
        parents=[obs_parent],
    )
    p.add_argument("graph")
    p.add_argument("--engine", choices=sorted(ENGINES), default="auto")
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_smallworld)

    p = sub.add_parser(
        "stats",
        help="build an oracle and print per-phase / per-level telemetry",
        parents=[obs_parent],
    )
    p.add_argument("graph")
    p.add_argument("--engine", choices=sorted(ENGINES), default="auto")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--queries", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="build labels with N worker processes (same bytes as serial)",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="serve DIST/BATCH/LABEL queries from exported labels over TCP",
        parents=[obs_parent],
    )
    p.add_argument(
        "--labels",
        action="append",
        required=True,
        metavar="PATH",
        help="labels file to load (repeat for multiple stores)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7471,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--shards", type=int, default=8,
                   help="hash shards per store")
    p.add_argument("--cache", type=int, default=0, metavar="N",
                   help="LRU cache capacity in (u, v) pairs (0 = off)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request deadline in seconds for handlers that "
                   "await (the built-in ops are synchronous)")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="seconds to let inflight requests finish on shutdown")
    p.add_argument("--fault-plan", metavar="PATH",
                   help="arm a repro-fault-plan/1 JSON fault-injection "
                   "schedule (see docs/serving.md)")
    p.add_argument("--metrics", action="store_true",
                   help="enable the in-process metrics registry so METRICS "
                   "returns per-op counters and latency histograms")
    p.add_argument("--timeseries-out", metavar="PATH",
                   help="append repro-timeseries/1 JSONL samples to PATH "
                   "while serving")
    p.add_argument("--timeseries-interval", type=float, default=2.0,
                   metavar="S",
                   help="seconds between timeseries samples (default 2.0)")
    p.add_argument("--cluster-map", metavar="PATH",
                   help="serve as one node of a repro-cluster-map/1 "
                   "cluster (see docs/cluster.md)")
    p.add_argument("--cluster-node", metavar="ID",
                   help="this node's id in the cluster map")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive a running `repro serve` and report QPS + latency",
        parents=[obs_parent],
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7471)
    p.add_argument("--labels", metavar="PATH",
                   help="labels file: sample vertices from it (and verify "
                   "against it with --verify)")
    p.add_argument("--pairs-file", metavar="PATH",
                   help="replay 'u v' pairs from PATH ('-' for stdin) "
                   "instead of sampling")
    p.add_argument("--pairs", type=int, default=500, metavar="K",
                   help="queries to synthesize when sampling")
    p.add_argument("--concurrency", type=int, default=8, metavar="C",
                   help="concurrent client connections")
    p.add_argument("--batch", type=int, default=1, metavar="B",
                   help="pairs per request (1 = DIST, >1 = BATCH)")
    p.add_argument("--store", help="target a named store on the server")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request client deadline in seconds")
    p.add_argument("--retries", type=int, default=0, metavar="R",
                   help="extra attempts per request on transient failures")
    p.add_argument("--attempt-timeout", type=float, default=None,
                   metavar="S", help="per-attempt deadline (default: --timeout)")
    p.add_argument("--hedge", type=float, default=None, metavar="S",
                   help="launch a hedged second attempt after S seconds "
                   "of silence")
    p.add_argument("--verify", action="store_true",
                   help="compare every served estimate to the offline "
                   "RemoteLabels.estimate (requires --labels)")
    p.add_argument("--slo-ms", type=float, default=None, metavar="MS",
                   help="report SLO attainment: fraction of requests "
                   "answered within MS milliseconds")
    p.add_argument("--zipf", type=float, default=None, metavar="S",
                   help="sample skewed pairs from a Zipf(S) distribution "
                   "instead of uniformly (requires --labels)")
    p.add_argument("--cluster-map", metavar="PATH",
                   help="route through a cluster map (cluster-map.live.json) "
                   "instead of one --host/--port server")
    p.add_argument("--bench-out", metavar="PATH",
                   help="write a repro-bench/1 record (e.g. BENCH_serve.json)")
    p.add_argument("--record-trace", metavar="PATH",
                   help="write the query pairs as a repro-querytrace/1 "
                   "file for later --replay")
    p.add_argument("--replay", metavar="PATH",
                   help="replay pairs from a repro-querytrace/1 file "
                   "instead of sampling")
    p.add_argument("--updates", type=int, default=0, metavar="N",
                   help="interleave N journaled edge reweights with the "
                   "query load, pushing each to the server as an "
                   "epoch-gated DELTA (see docs/dynamic.md)")
    p.add_argument("--update-graph", metavar="PATH",
                   help="edge list the served labels were built from "
                   "(required with --updates)")
    p.add_argument("--engine", choices=sorted(ENGINES), default="auto",
                   help="separator engine for --updates label rebuilds")
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="epsilon the served labels were built with "
                   "(--updates)")
    p.add_argument("--queries-per-update", type=int, default=30, metavar="K",
                   help="verified queries between updates (--updates)")
    p.add_argument("--verify-queries", type=int, default=300, metavar="K",
                   help="final queries verified against a fresh offline "
                   "rebuild (--updates)")
    p.add_argument("--update-journal", metavar="PATH",
                   help="append each delta to a repro-label-journal/1 "
                   "file (--updates)")
    p.add_argument("--no-verify-rebuild", action="store_true",
                   help="skip the final from-scratch rebuild and byte "
                   "comparison (--updates)")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "update",
        help="apply journaled edge reweights to exported labels "
        "incrementally (see docs/dynamic.md)",
        parents=[obs_parent],
    )
    p.add_argument("graph", help="edge list the labels were built from")
    p.add_argument("--labels", required=True, metavar="PATH",
                   help="exported labels file to update")
    p.add_argument("--journal", required=True, metavar="PATH",
                   help="repro-label-journal/1 file to replay and append to")
    p.add_argument("--edge", nargs=3, action="append", required=True,
                   metavar=("U", "V", "W"),
                   help="reweight edge U--V to W (repeatable, applied "
                   "in order)")
    p.add_argument("--engine", choices=sorted(ENGINES), default="auto",
                   help="separator engine the labels were built with")
    p.add_argument("--seed", type=int, default=0,
                   help="seed the labels were built with")
    p.add_argument("--push", metavar="HOST:PORT",
                   help="also push each delta to a running `repro serve` "
                   "as an epoch-gated DELTA")
    p.add_argument("--store", help="named store on the --push server")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="per-attempt --push deadline in seconds")
    p.add_argument("--out", metavar="PATH",
                   help="write the updated labels file")
    p.add_argument("--codec", choices=["json", "binary"], default="json",
                   help="codec for --out")
    p.add_argument("--verify", action="store_true",
                   help="rebuild from scratch and require byte-identical "
                   "labels")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser(
        "chaos",
        help="serve labels under an injected fault plan and verify the "
        "resilient client absorbs it byte-exactly",
        parents=[obs_parent],
    )
    p.add_argument("--labels", required=True, metavar="PATH",
                   help="labels file to serve and verify against")
    p.add_argument("--fault-plan", metavar="PATH",
                   help="repro-fault-plan/1 JSON schedule (default: 10%% "
                   "dropped replies + 50ms delay)")
    p.add_argument("--pairs", type=int, default=300, metavar="K",
                   help="verified queries to run")
    p.add_argument("--concurrency", type=int, default=8, metavar="C")
    p.add_argument("--batch", type=int, default=1, metavar="B",
                   help="pairs per request (1 = DIST, >1 = BATCH)")
    p.add_argument("--shards", type=int, default=8,
                   help="hash shards for the hosted store")
    p.add_argument("--retries", type=int, default=5, metavar="R",
                   help="extra attempts per request")
    p.add_argument("--attempt-timeout", type=float, default=2.0, metavar="S",
                   help="per-attempt deadline in seconds")
    p.add_argument("--hedge", type=float, default=None, metavar="S",
                   help="hedge a second attempt after S seconds of silence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cluster", type=int, default=0, metavar="N",
                   help="run the kill-a-node drill against an N-node local "
                   "cluster instead of one faulty server")
    p.add_argument("--kill-replica", action="store_true",
                   help="SIGKILL one replica mid-run (with --cluster)")
    p.add_argument("--replication", type=int, default=2, metavar="R",
                   help="replicas per shard for --cluster (default 2)")
    p.add_argument("--cluster-shards", type=int, default=16, metavar="K",
                   help="shards in the cluster map (default 16)")
    p.add_argument("--cache", type=int, default=4096, metavar="N",
                   help="per-node (u, v) pair-cache capacity for --cluster")
    p.add_argument("--zipf", type=float, default=1.1, metavar="S",
                   help="Zipf skew of the cluster throughput phase")
    p.add_argument("--throughput-pairs", type=int, default=16384, metavar="K",
                   help="pairs in the cluster throughput phase")
    p.add_argument("--throughput-batch", type=int, default=64, metavar="B",
                   help="batch size in the cluster throughput phase")
    p.add_argument("--bench-out", metavar="PATH",
                   help="write a repro-bench/1 record (e.g. BENCH_chaos.json)")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "cluster",
        help="replicated shard cluster: init, up, plan, apply "
        "(see docs/cluster.md)",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    pc = cluster_sub.add_parser(
        "init",
        help="split a labels file into a cluster data directory",
        parents=[obs_parent],
    )
    pc.add_argument("--labels", required=True, metavar="PATH",
                    help="labels file to shard across the cluster")
    pc.add_argument("--root", required=True, metavar="DIR",
                    help="cluster data directory to create")
    pc.add_argument("--nodes", type=int, default=3, metavar="N")
    pc.add_argument("--replication", type=int, default=2, metavar="R",
                    help="replicas per shard (default 2)")
    pc.add_argument("--shards", type=int, default=16, metavar="K",
                    help="shards in the cluster map (default 16)")
    pc.add_argument("--seed", type=int, default=0,
                    help="rendezvous placement seed")
    pc.set_defaults(func=cmd_cluster_init)

    pc = cluster_sub.add_parser(
        "up",
        help="launch every node of an initialized cluster locally",
        parents=[obs_parent],
    )
    pc.add_argument("--root", required=True, metavar="DIR",
                    help="directory from `repro cluster init`")
    pc.add_argument("--host", default="127.0.0.1")
    pc.add_argument("--cache", type=int, default=4096, metavar="N",
                    help="per-node (u, v) pair-cache capacity")
    pc.add_argument("--duration", type=float, default=None, metavar="S",
                    help="stop after S seconds (default: until a signal)")
    pc.set_defaults(func=cmd_cluster_up)

    pc = cluster_sub.add_parser(
        "plan",
        help="diff two cluster maps into minimal shard moves",
        parents=[obs_parent],
    )
    pc.add_argument("old", metavar="OLD_MAP")
    pc.add_argument("new", metavar="NEW_MAP")
    pc.add_argument("--json-out", metavar="PATH",
                    help="also write the plan as JSON")
    pc.set_defaults(func=cmd_cluster_plan)

    pc = cluster_sub.add_parser(
        "apply",
        help="execute a rebalance against a cluster data directory",
        parents=[obs_parent],
    )
    pc.add_argument("--root", required=True, metavar="DIR",
                    help="directory from `repro cluster init`")
    pc.add_argument("--new", required=True, metavar="NEW_MAP",
                    help="target map to rebalance to")
    pc.add_argument("--prune", action="store_true",
                    help="delete shard packs a node no longer replicates")
    pc.set_defaults(func=cmd_cluster_apply)

    p = sub.add_parser(
        "top",
        help="live view over a running server's METRICS snapshot",
        parents=[obs_parent],
    )
    p.add_argument("target", metavar="HOST:PORT",
                   help="address of a running `repro serve`")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="seconds between polls (default 2.0)")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="render N frames then exit (default: until Ctrl-C)")
    p.add_argument("--retries", type=int, default=2, metavar="R",
                   help="extra attempts per poll on transient failures")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-poll deadline in seconds")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "trace",
        help="reassemble repro-spans/1 files into per-request trace trees",
        parents=[obs_parent],
    )
    p.add_argument("files", nargs="+", metavar="SPANS_JSONL",
                   help="span files from any mix of processes "
                   "(e.g. server + loadgen --trace-out)")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="render at most N traces")
    p.add_argument("--require-join", action="store_true",
                   help="exit nonzero unless at least one trace joins "
                   "client- and server-side spans")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    needs_metrics = (
        bool(metrics_out)
        or args.func is cmd_stats
        or getattr(args, "metrics", False)
    )
    ring = None
    try:
        with ExitStack() as stack:
            if getattr(args, "trace", False):
                stack.enter_context(use_sink(LogSink(sys.stderr)))
            trace_out = getattr(args, "trace_out", None)
            if trace_out:
                stack.enter_context(
                    use_sink(JsonlSpanSink(trace_out, service=args.command))
                )
            log_file = getattr(args, "log_file", None)
            if log_file:
                file_sink = JsonlFileSink(log_file)
                eventlog.add_sink(file_sink)
                stack.callback(file_sink.close)
                stack.callback(eventlog.remove_sink, file_sink)
            log_ring = getattr(args, "log_ring", None)
            if log_ring:
                ring = RingBufferSink(log_ring)
                eventlog.add_sink(ring)
                stack.callback(eventlog.remove_sink, ring)
            if needs_metrics:
                stack.enter_context(metrics.activate())
            rc = args.func(args)
            if ring is not None and rc != 0:
                for event in ring.events():
                    print(json.dumps(event, sort_keys=True), file=sys.stderr)
            if metrics_out:
                extra = getattr(args, "_metrics_extra", {"command": args.command})
                try:
                    write_metrics_json(metrics_out, extra=extra)
                except OSError as exc:
                    print(f"error: cannot write metrics to {metrics_out}: {exc}",
                          file=sys.stderr)
                    return 2
                print(f"wrote metrics to {metrics_out}", file=sys.stderr)
        return rc
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's consumer went away (e.g. `repro ... | head`): not an
        # error.  Detach stdout so the interpreter's shutdown flush
        # doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        # Missing / unreadable input paths (graph files, labels files).
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

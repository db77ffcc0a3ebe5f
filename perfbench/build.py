"""The ``build`` workload: offline construction, graph to /2 bytes.

One fresh process (``python -m perfbench.build``) builds over and over
for the run's seconds.  Each build reads the two generated edge lists
(the workload's set-up), then decomposes, labels and dumps delaunay with
``GreedyPeelingEngine`` and ktree3 with ``CenterBagEngine``, serially,
and writes the /2 bytes.  A first build is not timed: it warms the
process, and the peak RSS is taken after it, so it is the peak of one
build.  ``setup_s`` and the build time are medians over the timed builds.
One build of larger graphs per fresh process gave three builds of about
5 s in a run, whose times varied by a quarter from build to build, and
the median of three spread too wide over ten seeds.
After the timings it checks its own output: every build wrote the same
bytes as the first, the last build's /2 bytes reload to the same labels,
and on a seeded sample of pairs ``d <= estimate <= (1 + eps) * d`` against
exact Dijkstra.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import fmean

from perfbench.metrics import Outcome, median
from perfbench.trace import Tracer, stage_table

FAMILIES = ("delaunay", "ktree3")
MIN_BUILDS = 5


def _child(args) -> dict:
    from repro.core import build_decomposition, build_labeling
    from repro.core.serialize import dump_labeling, encode_label, load_labeling
    from repro.graphs.io import read_edge_list
    from repro.graphs.shortest_paths import dijkstra
    from repro.util.rng import derive_seed

    from perfbench.checks import check_stretch
    from perfbench.inputs import EPSILON, make_engine

    tracer = Tracer() if args.trace else None
    out_dir = Path(args.out)

    def build(rep):
        """Read and build both graphs; traced builds record spans under
        request id *rep* (``None``: untraced)."""

        def span(name):
            if tracer is None or rep is None:
                return nullcontext()
            return tracer.span(name, rep)

        started = time.perf_counter()
        graphs = [read_edge_list(path) for path in (args.delaunay, args.ktree3)]
        read_s = time.perf_counter() - started
        built = []
        started = time.perf_counter()
        for family, graph in zip(FAMILIES, graphs):
            with span(f"build.{family}"):
                with span(f"decomposition.{family}"):
                    tree = build_decomposition(graph, engine=make_engine(family))
                with span(f"labeling.{family}"):
                    labeling = build_labeling(graph, tree, epsilon=EPSILON)
                with span(f"codec.dump.{family}"):
                    path = out_dir / f"{family}.bin"
                    blob = dump_labeling(labeling, codec="binary")
                    path.write_bytes(blob)
            built.append((family, graph, tree, labeling, path, blob))
        return read_s, time.perf_counter() - started, built

    def digests(built):
        return [hashlib.sha256(blob).hexdigest() for *_, blob in built]

    _, _, built = build(None)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    first = digests(built)
    setup_s, build_s, differing = [], [], 0
    window = time.perf_counter()
    while len(build_s) < MIN_BUILDS or time.perf_counter() - window < args.seconds:
        read_s, seconds, built = build(len(build_s))
        setup_s.append(read_s)
        build_s.append(seconds)
        differing += digests(built) != first

    # Checks, after every timing is taken.
    result = {"setup_s": setup_s, "build_s": build_s, "peak_rss": peak_rss,
              "attempted": len(build_s), "failed": differing, "graphs": {}}
    for (family, graph, tree, labeling, path, blob), sha256 in zip(built, first):
        reloaded = load_labeling(path)
        same = (
            list(reloaded.labels) == list(labeling.labels)
            and all(
                encode_label(reloaded.labels[v]) == encode_label(label)
                for v, label in labeling.labels.items()
            )
        )
        rng = random.Random(derive_seed(args.seed, "stretch", family))
        vertices = sorted(graph.vertices())
        measured = []
        for source in rng.sample(vertices, args.sources):
            dist, _ = dijkstra(graph, source)
            for target in rng.sample(vertices, args.targets):
                if target != source:
                    measured.append((dist[target], reloaded.estimate(source, target)))
        violations = check_stretch(measured, EPSILON)
        result["attempted"] += 1 + len(measured)
        result["failed"] += (not same) + violations
        units = tree.phase_units()
        result["graphs"][family] = {
            "n": graph.num_vertices,
            "bytes": len(blob),
            "sha256": sha256,
            "words": labeling.size_report().total_words,
            "nodes": tree.num_nodes,
            "separator_vertices": sum(len(node.separator.vertices()) for node in tree.nodes),
            "units": len(units),
            "dijkstra_sources": sum(
                len(tree.nodes[node_id].separator.phases[phase].vertices())
                for node_id, phase, _ in units
            ),
        }
    if tracer is not None:
        per_build = [
            {name: row["self_ns"] / 1e9 for name, row in tracer.self_times(rid=rep).items()}
            for rep in range(len(build_s))
        ]
        result["stages"] = {
            name: fmean([stages[name] for stages in per_build]) for name in per_build[0]
        }
        tracer.write(out_dir / "spans.jsonl")
    return result


def _run_child(rig, out_dir: Path, seconds: float, traced: bool) -> dict:
    from perfbench.inputs import pin_to

    root, inputs = rig.root, rig.inputs
    sizes = inputs.sizes
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root), str(root / "src")]))
    cmd = [
        sys.executable, "-m", "perfbench.build",
        "--delaunay", str(inputs.edges("delaunay", sizes.build_delaunay_n)),
        "--ktree3", str(inputs.edges("ktree3", sizes.build_ktree_n)),
        "--out", str(out_dir), "--seed", str(inputs.seed), "--seconds", str(seconds),
        "--sources", str(sizes.stretch_sources), "--targets", str(sizes.stretch_targets),
        "--trace", "1" if traced else "0",
    ]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, timeout=600,
                          check=True, preexec_fn=pin_to(rig.program_cpu))
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def run_build(rig, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    base = rig.root / ".perfbench" / "build-out"
    plain = _run_child(rig, base / "plain", seconds, traced=False)
    runs = [plain, _run_child(rig, base / "traced", seconds, traced=True)] if traced else [plain]
    hashes = set()
    for run in runs:
        out.attempted += run["attempted"] + 1
        out.failed += run["failed"]
        hashes.add(tuple(g["sha256"] for g in run["graphs"].values()))
    # Every process must write the same bytes from the same inputs.
    out.failed += len(hashes) - 1

    graphs = plain["graphs"]
    vertices = sum(g["n"] for g in graphs.values())
    build_s = plain["build_s"]
    out.metrics.update({
        "setup_s": median(plain["setup_s"]),
        "throughput_per_s": vertices / median(build_s),
        "p50_ms": median(build_s) * 1e3,
        "rss_mb": plain["peak_rss"] / 2**20,
    })
    bytes_per_vertex = sum(g["bytes"] for g in graphs.values()) / vertices
    out.report.append(
        f"build: {len(build_s)} timed builds in one process after a warm-up build; "
        f"build_s median {median(build_s):.3f} (all: {', '.join(f'{s:.3f}' for s in build_s)}); "
        f"peak rss {out.metrics['rss_mb']:.1f} MiB; "
        f"{bytes_per_vertex:.2f} /2 bytes per vertex over "
        f"{vertices} vertices; {out.failed} failed checks of {out.attempted}"
    )
    if traced:
        _build_layers(out, plain, runs[1], vertices)
    return out


def _build_layers(out, plain, traced, vertices):
    layers = out.layers
    stages = traced["stages"]
    mean_s = fmean(traced["build_s"])
    graphs = traced["graphs"]
    for family in FAMILIES:
        layers[f"decomposition.build_s.{family}"] = stages[f"decomposition.{family}"]
        layers[f"labeling.build_s.{family}"] = stages[f"labeling.{family}"]
    layers["codec.dump_s"] = sum(stages[f"codec.dump.{f}"] for f in FAMILIES)
    for key, name in (("nodes", "decomposition.nodes"),
                      ("separator_vertices", "decomposition.separator_vertices"),
                      ("units", "labeling.units"),
                      ("dijkstra_sources", "labeling.dijkstra_sources")):
        layers[name] = sum(g[key] for g in graphs.values())
    layers["labeling.words_per_vertex"] = sum(g["words"] for g in graphs.values()) / vertices
    plain_s, traced_s = median(plain["build_s"]), median(traced["build_s"])
    layers["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s

    rows = []
    for family in FAMILIES:
        for stage, layer in (("decomposition", "decomposition"),
                             ("labeling", "labeling"), ("codec.dump", "codec")):
            seconds = stages[f"{stage}.{family}"]
            rows.append([f"{stage} {family}", layer, 1, seconds * 1e6, seconds * 1e6])
    stage_sum = sum(stages[f"{s}.{f}"] for f in FAMILIES
                    for s in ("decomposition", "labeling", "codec.dump"))
    remainder = mean_s - stage_sum
    rows.append(["unattributed remainder", "-", "-", remainder * 1e6, remainder * 1e6])
    notes = [
        "per_request_us is per build (both graphs); means over the traced builds, "
        "so the stages and the remainder add up to the mean build",
        f"stages sum to {stage_sum:.3f} s of the mean build_s {mean_s:.3f} s "
        f"({100 * stage_sum / mean_s:.1f}%)",
        f"decomposition: {layers['decomposition.nodes']} nodes, "
        f"{layers['decomposition.separator_vertices']} separator vertices; labeling: "
        f"{layers['labeling.units']} units, {layers['labeling.dijkstra_sources']} "
        f"Dijkstra sources, {layers['labeling.words_per_vertex']:.2f} words per vertex",
        f"tracing overhead {layers['trace.overhead_pct']:.2f}% of the median build_s "
        f"({plain_s:.3f} untraced vs {traced_s:.3f} traced)",
        "spans of the traced builds: .perfbench/build-out/traced/spans.jsonl",
    ]
    out.report.append(stage_table("build stage table (traced builds)", rows, notes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one build of the build workload")
    parser.add_argument("--delaunay", required=True)
    parser.add_argument("--ktree3", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--sources", type=int, required=True)
    parser.add_argument("--targets", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    print(json.dumps(_child(parser.parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

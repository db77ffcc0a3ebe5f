"""Input generation for the benchmark workloads.

The graphs are fixed per (family, n), so every run measures the code on
the same labels: ``GreedyPeelingEngine`` draws its separators from an
RNG seeded by the vertex set, and across ten delaunay n=8192 graphs the
labels ranged from 720 to 1065 bytes per vertex, which alone moved
``batch-mmap`` throughput by a factor of 1.7.  For the same reason the
reweights of ``update-mix`` are fixed per graph.  The workload seed
generates the query pairs and the stretch-check sample.  The program
under test receives only the files and the requests.  Graph and labels
files are cached under ``.perfbench/inputs`` in the checkout; nothing
generated here is ever timed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import build_decomposition, build_labeling
from repro.core.engines import CenterBagEngine, GreedyPeelingEngine
from repro.core.serialize import dump_labeling
from repro.generators import k_tree, random_delaunay_graph
from repro.graphs.io import read_edge_list, write_edge_list
from repro.serve.loadgen import synthesize_pairs
from repro.util.rng import derive_seed

EPSILON = 0.25
GRAPH_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Input sizes and rates of one benchmark scale."""

    dist_n: int            # dist-small: delaunay served from /1 JSON
    batch_n: int           # batch-mmap: delaunay served from /2
    update_n: int          # update-mix: delaunay served from /2
    build_delaunay_n: int  # build: GreedyPeelingEngine graph
    build_ktree_n: int     # build: CenterBagEngine graph
    batch_pairs: int       # pairs per BATCH request
    read_rate: float       # update-mix open-loop DIST rate, per second
    delta_rate: float      # update-mix DELTA push rate, per second
    setup_launches: int    # server launches per run
    warmup_s: float        # untimed load before each measured window
    stretch_sources: int   # build check: exact Dijkstra sources per graph
    stretch_targets: int   # build check: targets per source


SIZES: Dict[str, Sizes] = {
    "full": Sizes(
        dist_n=512, batch_n=8192, update_n=2048,
        build_delaunay_n=2048, build_ktree_n=4096,
        batch_pairs=64, read_rate=1500.0, delta_rate=10.0,
        setup_launches=5, warmup_s=1.0, stretch_sources=8, stretch_targets=25,
    ),
    # For the benchmark's own smoke test: every code path, seconds long.
    "tiny": Sizes(
        dist_n=64, batch_n=160, update_n=96,
        build_delaunay_n=96, build_ktree_n=96,
        batch_pairs=8, read_rate=200.0, delta_rate=10.0,
        setup_launches=2, warmup_s=0.1, stretch_sources=3, stretch_targets=5,
    ),
}


def make_graph(family: str, n: int):
    """The graph behind one edge list (``delaunay`` or ``ktree3``)."""
    if family == "delaunay":
        return random_delaunay_graph(n, seed=derive_seed(GRAPH_SEED, family, n))[0]
    if family == "ktree3":
        return k_tree(n, 3, seed=derive_seed(GRAPH_SEED, family, n))[0]
    raise ValueError(f"unknown family {family!r}")


def make_engine(family: str):
    """The separator engine the workloads name for each family."""
    if family == "delaunay":
        return GreedyPeelingEngine(seed=0)
    return CenterBagEngine(order="min_degree")


def build_labels(graph, family: str):
    """Decompose and label *graph* exactly as the build workload does."""
    tree = build_decomposition(graph, engine=make_engine(family))
    return build_labeling(graph, tree, epsilon=EPSILON)


def pin_to(cpu: Optional[int]):
    """A ``preexec_fn`` pinning a child process to *cpu* (None: no-op)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


@dataclass
class Rig:
    """Where a run happens: the checkout, its seeded inputs, and the CPU
    the program under test is pinned to.  The load generator takes
    another CPU, so the two processes never share or swap cores."""

    root: Path
    inputs: "Inputs"
    program_cpu: Optional[int] = None

    @classmethod
    def create(cls, root: Path, size: str, seed: int) -> "Rig":
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        program_cpu = None
        if len(cpus) >= 2:
            try:
                os.sched_setaffinity(0, {cpus[1]})
                program_cpu = cpus[0]
            except OSError:
                pass  # placement is a refinement; run unpinned
        return cls(root, Inputs(root, size, seed), program_cpu)


class Inputs:
    """The inputs of one (size, seed); files are generated on first use."""

    def __init__(self, root: Path, size: str, seed: int) -> None:
        self.sizes = SIZES[size]
        self.seed = seed
        self.dir = root / ".perfbench" / "inputs" / size
        self.dir.mkdir(parents=True, exist_ok=True)

    def _write_atomic(self, path: Path, data) -> None:
        tmp = path.with_name(path.name + ".tmp")
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data)
        os.replace(tmp, path)

    def edges(self, family: str, n: int) -> Path:
        """Edge list of one generated graph."""
        path = self.dir / f"{family}-{n}.edges"
        if not path.exists():
            tmp = path.with_name(path.name + ".tmp")
            write_edge_list(make_graph(family, n), tmp)
            os.replace(tmp, path)
        return path

    def labels(self, family: str, n: int) -> Tuple[Path, Path]:
        """``(json_path, binary_path)``: one labeling in both codecs,
        built from the edge list as a user would build it."""
        edges = self.edges(family, n)
        json_path = self.dir / f"{family}-{n}.json"
        bin_path = self.dir / f"{family}-{n}.bin"
        if not (json_path.exists() and bin_path.exists()):
            labeling = build_labels(read_edge_list(edges), family)
            self._write_atomic(bin_path, dump_labeling(labeling, codec="binary"))
            self._write_atomic(json_path, dump_labeling(labeling))
        return json_path, bin_path

    def pairs(self, name: str, vertices, count: int, zipf=None) -> List[tuple]:
        """*count* seeded query pairs over *vertices*."""
        return synthesize_pairs(
            vertices, count, seed=derive_seed(self.seed, "pairs", name), zipf=zipf
        )

    def reweights(self, graph, pool_size: int, rounds: int = 1) -> List[Tuple[object, object, float]]:
        """A fixed sequence of edge reweights ``(u, v, w)`` over a fixed
        pool of *pool_size* edges.  In each of *rounds* rounds every pool
        edge slows to twice its weight and later drops to three quarters
        of that, so both an increase and a decrease are applied.  Pool and
        order are fixed per graph because the cost of one update varies
        widely with its edge and with the weights around it: with 120
        random edges per seed, the interquartile range of the mean relabel
        time over eight seeds was 0.24 of its median.  With a fixed pool
        of 90 edges in a seeded order, the mean relabel time still ranged
        from 12.6 to 20.4 ms over six seeds, while two runs of one seed
        differed by at most 14%."""
        edges = sorted(((u, v) for u, v, _ in graph.edges()), key=repr)
        pool = random.Random(derive_seed(GRAPH_SEED, "reweight-pool")).sample(edges, pool_size)
        rng = random.Random(derive_seed(GRAPH_SEED, "reweights"))
        current = {edge: float(graph.weight(*edge)) for edge in pool}
        out = []
        for _ in range(rounds):
            events = pool * 2
            rng.shuffle(events)
            slowed = set()
            for edge in events:
                current[edge] *= 0.75 if edge in slowed else 2.0
                slowed.add(edge)
                out.append((edge[0], edge[1], current[edge]))
        return out

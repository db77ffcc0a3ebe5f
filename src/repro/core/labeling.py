"""Theorem 2: (1+eps)-approximate distance labeling.

Each vertex v receives a label holding, for every node H on its
decomposition-tree root path and every phase residual J of H it
belongs to, an epsilon-cover portal list per separator path of that
phase.  Distances are then estimated from *two labels alone*:

    d_hat(u, v) = min over shared (node, phase, path) keys of
                  min over portal pairs (c1, c2) of
                  d_J(u, c1) + d_Q(c1, c2) + d_J(v, c2)

Correctness sketch (the paper's argument): the true shortest path R
first touches the separator system at some node H, phase i; R then
lies in the residual J and is a shortest path of J crossing some
separator path Q of phase i at a vertex x.  Both endpoints hold
(1+eps)-cover portals for (H, i, Q), so the estimate is between
d(u, v) and (1+eps) d(u, v).
"""

from __future__ import annotations

import random
import time
from multiprocessing import get_context
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from repro.graphs.graph import Graph
from repro.obs import metrics, record_span, span
from repro.util.errors import GraphError
from repro.util.rng import SeedLike, derive_seed
from repro.util.sizing import SizeReport

if TYPE_CHECKING:
    # The query side imports this module for estimate_distance, so the
    # decomposition (with its engines and scipy) is a type here only;
    # flat imports this module, so the calls import flat themselves.
    from repro.core.decomposition import DecompositionTree
    from repro.core.flat import FlatLabel

Vertex = Hashable
PortalEntry = Tuple[float, float]  # (prefix position on the path, distance)
INF = float("inf")


def estimate_distance(label_u: "FlatLabel", label_v: "FlatLabel") -> float:
    """Distributed (1+eps)-approximate distance query from two labels,
    by :func:`repro.core.flat.flat_estimate`.

    Returns ``inf`` if the labels share no separator path (which for
    labels of the same connected graph cannot happen unless u = v is
    false in different components).
    """
    from repro.core.flat import flat_estimate

    return flat_estimate(label_u, label_v)


class DistanceLabeling:
    """The full labeling of a graph (Theorem 2's distributed form).

    ``labels`` maps each vertex, in graph order, to its
    :class:`repro.core.flat.FlatLabel`."""

    def __init__(
        self,
        graph: Graph,
        tree: DecompositionTree,
        epsilon: float,
        labels: Dict[Vertex, "FlatLabel"],
    ) -> None:
        self.graph = graph
        self.tree = tree
        self.epsilon = epsilon
        self.labels = labels

    def label(self, v: Vertex) -> "FlatLabel":
        try:
            return self.labels[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} has no label") from None

    def estimate(self, u: Vertex, v: Vertex) -> float:
        """(1+eps)-approximate distance between u and v."""
        from repro.core.flat import flat_estimate

        return flat_estimate(self.label(u), self.label(v))

    def size_report(self) -> SizeReport:
        """Per-vertex label sizes in words (experiment E3's measurement)."""
        return SizeReport.from_counts(
            (v, label.words) for v, label in self.labels.items()
        )


# One unit's output: (unit index, flat_unit_entries arrays, batched
# Dijkstra sources, seconds).
UnitResult = Tuple[int, tuple, int, float]

# Read-only (flat build context, epsilon) shared with forked pool
# workers.  Set in the parent right before the fork so children inherit
# it by copy-on-write instead of pickling the graph per task.
_WORKER_STATE: Optional[Tuple[object, float]] = None


def build_labeling(
    graph: Graph,
    tree: DecompositionTree,
    epsilon: float = 0.25,
    parallel: Optional[int] = None,
    seed: SeedLike = 0,
) -> DistanceLabeling:
    """Construct the Theorem 2 labeling from a decomposition tree.

    Construction is *batched per level*: for every (node, phase) of the
    tree, one :func:`~repro.graphs.shortest_paths.batched_dijkstra`
    pass from the phase's separator-path vertices yields ``d_J(x, v)``
    for every vertex v of the residual at once (undirected symmetry),
    and an epsilon-cover portal selection per (vertex, path) turns the
    rows into label entries.  Separator paths are much smaller than the
    residuals they split, so this replaces the naive one-Dijkstra-per-
    (vertex, phase) loop with a pass whose search count is the number
    of separator vertices — the dominant construction win.

    Parameters
    ----------
    parallel:
        Number of worker processes; ``None``/``0``/``1`` builds
        serially.  (node, phase) units are distributed across workers
        deterministically and merged in unit order, so the result —
        including its ``dump_labeling`` byte encoding — is identical to
        a serial build.  Requires the ``fork`` start method (falls back
        to serial where unavailable).
    seed:
        Only used to derive per-worker child seeds (via
        :func:`repro.util.rng.derive_seed`) that reseed each worker's
        inherited global RNG state; label construction itself is
        deterministic.

    Units run on the CSR kernels of :mod:`repro.core.flat_build` and
    emit arrays, which :func:`repro.core.flat_build.assemble_labels`
    merges in unit order into one :class:`~repro.core.flat.FlatLabel`
    per vertex; residuals below ``flat_build.SMALL_RESIDUAL`` run the
    reference kernels instead, with bit-identical output.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    from repro.core.flat_build import FlatBuildContext, assemble_labels

    jobs = int(parallel) if parallel else 1
    with span(
        "labeling.build", n=graph.num_vertices, epsilon=epsilon, jobs=jobs
    ):
        fctx = FlatBuildContext(graph, tree)
        units = tree.phase_units()
        jobs = min(jobs, len(units)) if units else 1
        if jobs > 1:
            produced = _build_units_parallel(fctx, epsilon, jobs, seed)
        else:
            produced = _run_units(fctx, epsilon, range(len(units)))
        metrics.gauge("labeling.jobs", jobs)
        if metrics.enabled:
            for unit_idx, arrays, num_sources, seconds in produced:
                node = tree.nodes[units[unit_idx][0]]
                metrics.inc("labeling.batches")
                metrics.inc("labeling.dijkstra_runs", num_sources)
                metrics.inc(
                    "labeling.level.dijkstra_runs", num_sources, level=node.depth
                )
                metrics.observe("labeling.batch_seconds", seconds)
                metrics.observe("labeling.batch_sources", num_sources)
                metrics.inc("labeling.portals", len(arrays[3]))
        unit_arrays = [(unit_idx, arrays) for unit_idx, arrays, _, _ in produced]
        del produced  # assemble_labels frees the arrays once merged
        labels = assemble_labels(fctx, unit_arrays)
        labeling = DistanceLabeling(graph, tree, epsilon, labels)
        if metrics.enabled:
            metrics.inc("labeling.vertices", len(labels))
            report = labeling.size_report()
            metrics.gauge("labeling.words", report.total_words)
            for words in report.per_vertex.values():
                metrics.observe("labeling.label_words", words)
    return labeling


def _run_units(fctx, epsilon: float, unit_idxs) -> List[UnitResult]:
    """Build the units named by *unit_idxs*, timing each one."""
    from repro.core.flat_build import flat_unit_entries

    units = fctx.tree.phase_units()
    results = []
    for unit_idx in unit_idxs:
        node_id, phase_idx, residual = units[unit_idx]
        started = time.perf_counter()
        arrays, num_sources = flat_unit_entries(
            fctx, node_id, phase_idx, residual, epsilon
        )
        results.append(
            (unit_idx, arrays, num_sources, time.perf_counter() - started)
        )
    return results


def _assign_chunks(
    tree: DecompositionTree, jobs: int
) -> List[List[int]]:
    """Deterministic longest-processing-time assignment of unit indices
    to *jobs* buckets, balancing on |residual| * (separator size) — the
    leading term of a unit's batched-Dijkstra cost."""
    units = tree.phase_units()
    costs = []
    for unit_idx, (node_id, phase_idx, residual) in enumerate(units):
        phase = tree.nodes[node_id].separator.phases[phase_idx]
        sep = sum(len(path) for path in phase.paths)
        costs.append((len(residual) * max(1, sep), unit_idx))
    costs.sort(key=lambda pair: (-pair[0], pair[1]))
    buckets: List[List[int]] = [[] for _ in range(jobs)]
    loads = [0.0] * jobs
    for cost, unit_idx in costs:
        target = loads.index(min(loads))
        buckets[target].append(unit_idx)
        loads[target] += cost
    return buckets


def _worker_init(fctx, epsilon: float) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (fctx, epsilon)


def _worker_chunk(task):
    """Build every unit of one chunk inside a worker process."""
    worker_idx, unit_idxs, child_seed = task
    assert _WORKER_STATE is not None
    fctx, epsilon = _WORKER_STATE
    # Hygiene for anything in the worker that touches the global RNG:
    # replace the state inherited from the parent's fork (identical in
    # every sibling) with an independent, derived child stream.
    random.seed(child_seed)
    started = time.perf_counter()
    results = _run_units(fctx, epsilon, unit_idxs)
    return worker_idx, results, time.perf_counter() - started


def _build_units_parallel(
    fctx, epsilon: float, jobs: int, seed: SeedLike
) -> List[UnitResult]:
    global _WORKER_STATE
    try:
        ctx = get_context("fork")
    except ValueError:
        # No fork start method (e.g. some non-POSIX platforms): the
        # read-only shared state cannot be inherited cheaply, so build
        # serially rather than pickle the graph to every worker.
        units = fctx.tree.phase_units()
        return _run_units(fctx, epsilon, range(len(units)))
    chunks = _assign_chunks(fctx.tree, jobs)
    tasks = [
        (worker_idx, unit_idxs, derive_seed(seed, "labeling.worker", worker_idx))
        for worker_idx, unit_idxs in enumerate(chunks)
        if unit_idxs
    ]
    # The flat context (graph, tree, CSR arrays + scratch) is built
    # pre-fork, so the children inherit it copy-on-write.
    _WORKER_STATE = (fctx, epsilon)
    try:
        with ctx.Pool(processes=len(tasks), initializer=_worker_init,
                      initargs=(fctx, epsilon)) as pool:
            outcomes = pool.map(_worker_chunk, tasks)
    finally:
        _WORKER_STATE = None
    produced: List[UnitResult] = []
    for worker_idx, results, seconds in sorted(outcomes, key=lambda o: o[0]):
        record_span(
            "labeling.worker",
            int(seconds * 1e9),
            worker=worker_idx,
            units=len(results),
            sources=sum(num_sources for _, _, num_sources, _ in results),
        )
        metrics.observe("labeling.worker_seconds", seconds)
        produced.extend(results)
    # Unit order, not arrival order, decides the merge: byte-identical
    # output to a serial build regardless of scheduling.
    produced.sort(key=lambda item: item[0])
    return produced

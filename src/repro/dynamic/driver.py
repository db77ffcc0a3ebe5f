"""Update-under-load driver — ``repro loadgen --updates``.

Interleaves edge-weight updates with live query traffic against a
running :class:`~repro.serve.server.OracleServer` and verifies, query
by query, that the served answers track the updates:

1. Phase 0 queries the pristine labels.
2. Each update picks a random existing edge, reweights it, runs
   :func:`~repro.dynamic.rebuild.incremental_relabel` locally, appends
   the delta to the journal (when one is given), and pushes it to the
   server with an epoch-gated ``DELTA`` apply.
3. The next query phase verifies served estimates **byte-exactly**
   against the updated in-memory labeling — the server must answer
   from the new labels, not stale ones, and never a mix.
4. After the last update the driver rebuilds the labeling from scratch
   on the mutated graph (same tree) and (a) byte-compares it with the
   incrementally maintained labels, (b) runs a final verification
   phase against that *fresh offline rebuild* — the end-to-end check
   that incremental serving equals full recomputation.

All query phases share one :class:`~repro.serve.client.ResilientClient`
and one :class:`~repro.serve.loadgen.LoadgenReport`, so the totals read
like a single run (elapsed time is accumulated across phases by hand —
:func:`run_loadgen` overwrites ``elapsed_s`` per call).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.labeling import DistanceLabeling, build_labeling
from repro.core.serialize import dump_labeling
from repro.dynamic.delta import EdgeUpdate, delta_to_dict
from repro.dynamic.journal import JournalWriter
from repro.dynamic.rebuild import incremental_relabel
from repro.obs import eventlog, metrics
from repro.serve.client import ClientError, RequestFailed, ResilientClient, RetryPolicy
from repro.serve.loadgen import LoadgenError, LoadgenReport, run_loadgen, synthesize_pairs
from repro.util.rng import derive_seed

__all__ = [
    "UpdateRunReport",
    "run_update_loadgen",
]


@dataclass
class UpdateRunReport:
    """What one ``--updates`` run did and observed."""

    loadgen: LoadgenReport = field(default_factory=LoadgenReport)
    updates_applied: int = 0
    update_failures: int = 0
    final_epoch: int = 0
    update_seconds: float = 0.0     # local relabel + journal + push, total
    rebuild_identical: Optional[bool] = None  # None: --verify-rebuild off
    rebuild_seconds: float = 0.0
    applied_edges: List[List] = field(default_factory=list)  # [u, v, old_w, new_w]

    @property
    def ok(self) -> bool:
        return (
            self.update_failures == 0
            and self.loadgen.mismatches == 0
            and self.rebuild_identical is not False
        )

    def rows(self) -> List[List]:
        rows = [
            ["updates_applied", self.updates_applied],
            ["update_failures", self.update_failures],
            ["final_epoch", self.final_epoch],
            ["update_seconds", round(self.update_seconds, 3)],
        ]
        if self.rebuild_identical is not None:
            rows.append(["rebuild_identical", self.rebuild_identical])
            rows.append(["rebuild_seconds", round(self.rebuild_seconds, 3)])
        return rows + self.loadgen.rows()

    def meta(self) -> dict:
        payload = dict(self.loadgen.meta())
        payload["updates"] = {
            "applied": self.updates_applied,
            "failures": self.update_failures,
            "final_epoch": self.final_epoch,
            "update_seconds": round(self.update_seconds, 4),
        }
        if self.rebuild_identical is not None:
            payload["updates"]["rebuild_identical"] = self.rebuild_identical
            payload["updates"]["rebuild_seconds"] = round(self.rebuild_seconds, 4)
        return payload


def _pick_update(rng: random.Random, graph) -> tuple:
    """A random existing edge and a new weight for it (never the old)."""
    edges = sorted(graph.edges(), key=repr)
    if not edges:
        raise LoadgenError("graph has no edges to update")
    u, v, old_w = edges[rng.randrange(len(edges))]
    new_w = round(float(old_w) * rng.uniform(0.5, 2.0), 9)
    if new_w == float(old_w) or new_w <= 0:
        new_w = float(old_w) + 0.5
    return u, v, new_w


async def run_update_loadgen(
    host: str,
    port: int,
    labeling: DistanceLabeling,
    *,
    updates: int = 10,
    queries_per_update: int = 30,
    verify_queries: int = 300,
    concurrency: int = 4,
    store: Optional[str] = None,
    journal: Optional[JournalWriter] = None,
    verify_rebuild: bool = True,
    request_timeout: float = 30.0,
    seed: int = 0,
) -> UpdateRunReport:
    """Drive *updates* journaled edge reweights against ``host:port``
    under live verified query load.  See the module docstring for the
    phase structure.  The *labeling* is mutated in place (its graph
    gets the new weights, its labels the incremental deltas); pass a
    throwaway copy if you need the original afterwards.

    Raises :class:`~repro.serve.loadgen.LoadgenError` for unusable
    parameters; a server that rejects a DELTA push is an
    ``update_failures`` row in the report, not an exception.
    """
    if updates < 1:
        raise LoadgenError(f"updates must be >= 1, got {updates}")
    if queries_per_update < 0 or verify_queries < 0:
        raise LoadgenError("query counts must be >= 0")

    report = UpdateRunReport()
    vertices = sorted(labeling.labels, key=repr)
    edge_rng = random.Random(derive_seed(seed, "updates.elements"))
    client = ResilientClient(
        [(host, port)],
        policy=RetryPolicy(attempts=1, attempt_timeout=request_timeout),
        store=store,
        seed=seed,
    )
    elapsed_total = 0.0

    async def query_phase(phase: int, count: int, verify) -> None:
        nonlocal elapsed_total
        if count <= 0:
            return
        pairs = synthesize_pairs(
            vertices, count, seed=derive_seed(seed, "updates.pairs", phase)
        )
        await run_loadgen(
            host,
            port,
            pairs,
            concurrency=concurrency,
            store=store,
            verify=verify,
            request_timeout=request_timeout,
            seed=seed,
            client=client,
            report=report.loadgen,
        )
        elapsed_total += report.loadgen.elapsed_s

    async def push(delta) -> bool:
        payload = {
            "op": "DELTA",
            "action": "apply",
            "delta": delta_to_dict(delta),
        }
        if store is not None:
            payload["store"] = store
        try:
            response = await client.call(payload)
        except (RequestFailed, ClientError) as exc:
            eventlog.warn(
                "dynamic.push.failed", epoch=delta.epoch, error=str(exc)
            )
            return False
        if not response.get("ok"):
            eventlog.warn(
                "dynamic.push.rejected", epoch=delta.epoch,
                error=response.get("error"),
            )
            return False
        report.final_epoch = max(report.final_epoch, int(response.get("epoch", 0)))
        return True

    try:
        # Phase 0: pristine labels.
        await query_phase(0, queries_per_update, labeling)
        for i in range(updates):
            u, v, new_w = _pick_update(edge_rng, labeling.graph)
            old_w = float(labeling.graph.weight(u, v))
            t0 = time.perf_counter()
            delta = incremental_relabel(labeling, EdgeUpdate(u, v, new_w))
            if journal is not None:
                journal.append(delta)
            pushed = await push(delta)
            report.update_seconds += time.perf_counter() - t0
            if pushed:
                report.updates_applied += 1
                report.applied_edges.append([u, v, old_w, new_w])
            else:
                report.update_failures += 1
            # Queries in this phase must see the *new* labels.
            await query_phase(i + 1, queries_per_update, labeling)
        # Final check: a from-scratch rebuild on the mutated graph.
        verify = labeling
        if verify_rebuild:
            t0 = time.perf_counter()
            fresh = build_labeling(
                labeling.graph, labeling.tree, labeling.epsilon
            )
            report.rebuild_seconds = time.perf_counter() - t0
            report.rebuild_identical = (
                dump_labeling(fresh) == dump_labeling(labeling)
            )
            verify = fresh
            if not report.rebuild_identical:
                eventlog.warn("dynamic.rebuild.mismatch")
        await query_phase(updates + 1, verify_queries, verify)
    finally:
        report.loadgen.elapsed_s = elapsed_total
        await client.close()
    metrics.gauge("dynamic.loadgen.updates", report.updates_applied)
    metrics.gauge("dynamic.loadgen.mismatches", report.loadgen.mismatches)
    return report

"""``repro.serve`` — the online query layer of the oracle.

The paper's labels (Theorem 2) are small remote objects: any two of
them answer a (1+eps)-approximate distance query with no graph in
sight.  This package is the serving side of that claim — an asyncio
TCP service over sharded in-memory label stores, plus the resilient
client and load generator that measure it, clean and under faults:

* :mod:`repro.serve.store` — :class:`ShardedLabelStore` (flat labels
  from a JSON ``/1`` file decoded at load, or from a binary ``/2`` file
  mmap'd with O(1) open + lazy decode), plus :class:`StoreCatalog`:
  labelings hash-sharded by vertex with O(1) lookup and per-shard size
  accounting.
* :mod:`repro.serve.protocol` — the newline-delimited JSON wire
  protocol (DIST / BATCH / LABEL / HEALTH / STATS / METRICS / FAULT /
  MAP / DELTA) with typed error replies and an optional per-request
  ``"trace"`` context field that joins server spans to the caller's
  trace.
* :mod:`repro.serve.server` — :class:`OracleServer`: per-connection
  read loops, request timeouts, semaphore backpressure, an optional
  LRU pair cache, graceful drain on shutdown, and a seedable
  fault-injection layer.
* :mod:`repro.serve.faults` — :class:`FaultPlan` / :class:`FaultInjector`:
  deterministic drop / delay / corrupt / unavailable / slow-drain
  faults, loadable from JSON and togglable at runtime via FAULT.
* :mod:`repro.serve.client` — :class:`ResilientClient`: per-attempt
  timeouts, capped exponential backoff with deterministic jitter,
  retry budgets, per-address circuit breakers, optional hedging —
  all preserving byte-exact answers.
* :mod:`repro.serve.loadgen` — closed-loop concurrent client
  reporting QPS + latency percentiles (and retry/hedge counts and,
  with ``slo_ms``, SLO attainment), with optional byte-exact
  verification against offline estimates.

CLI entry points: ``repro serve``, ``repro loadgen``, ``repro chaos``,
``repro top`` (live METRICS polling), and ``repro trace`` (cross-
process trace reassembly); the protocol and knobs are specified in
``docs/serving.md``, the telemetry formats in ``docs/observability.md``.
"""

from repro.serve.client import (
    CircuitBreaker,
    ClientError,
    RequestFailed,
    ResilientClient,
    RetryPolicy,
    parse_address,
)
from repro.serve.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    FaultStage,
)
from repro.serve.loadgen import (
    LoadgenError,
    LoadgenReport,
    read_pairs_file,
    run_loadgen,
    synthesize_pairs,
)
from repro.serve.protocol import (
    DELTA_ACTIONS,
    ERROR_CODES,
    FAULT_ACTIONS,
    OPS,
    TRANSIENT_CODES,
    ProtocolError,
    Request,
    encode_request,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)
from repro.serve.server import DEFAULT_MAX_BATCH, MAX_LINE_BYTES, OracleServer
from repro.serve.store import (
    DEFAULT_NUM_SHARDS,
    ShardStats,
    ShardedLabelStore,
    StoreCatalog,
)

__all__ = [
    "CircuitBreaker",
    "ClientError",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_NUM_SHARDS",
    "DELTA_ACTIONS",
    "ERROR_CODES",
    "FAULT_ACTIONS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "FaultStage",
    "LoadgenError",
    "LoadgenReport",
    "MAX_LINE_BYTES",
    "OPS",
    "OracleServer",
    "ProtocolError",
    "Request",
    "RequestFailed",
    "ResilientClient",
    "RetryPolicy",
    "ShardStats",
    "ShardedLabelStore",
    "StoreCatalog",
    "TRANSIENT_CODES",
    "encode_request",
    "encode_response",
    "error_response",
    "ok_response",
    "parse_address",
    "parse_request",
    "read_pairs_file",
    "run_loadgen",
    "synthesize_pairs",
]

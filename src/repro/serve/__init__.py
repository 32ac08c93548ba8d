"""repro.serve — asynchronous matching service over the T-DFS engines.

A long-lived serving layer for repeated queries against evolving graphs:

* :class:`MatchService` — graph registry (versioned), request submission,
  blocking ``query()`` convenience wrapper;
* plan + result caches keyed by ``(graph_id, graph_version,
  plan_fingerprint, engine, config_fingerprint)`` — graph and version only
  where the entry depends on them, and the version in the key is the only
  invalidation; a planner's entry holds its portfolio and feedback
  (:mod:`repro.serve.cache`);
* bounded admission queue with priority shedding and micro-batching
  (:mod:`repro.serve.batcher`);
* a worker pool with per-thread engine ownership and deadline enforcement
  wired into the fault-recovery ladder (:mod:`repro.serve.workers`);
* supervised serving — worker watchdog with bounded redelivery, circuit
  breakers, poison-query quarantine, and checkpoint/resume of in-flight
  matches (:mod:`repro.serve.resilience`);
* counters/histograms behind one snapshot (:mod:`repro.serve.metrics`;
  :meth:`MatchService.snapshot`, printed by ``repro.obs.console.render_top``);
* operational observability — per-request cross-process traces, a flight
  recorder of structured events, SLO burn-rate alerting, and one-call
  incident bundles (:mod:`repro.obs.ops` / :mod:`repro.obs.slo`, wired in
  by the service; ``repro top`` renders the live console).

See the "Serving" section of the README for an embed example and
DESIGN.md for the cache-key scheme and the resilience design (§10).
"""

from repro.serve.batcher import AdmissionQueue, AdmissionRejected, QueueEntry
from repro.serve.cache import (
    CacheStats,
    LRUCache,
    config_fingerprint,
    plan_fingerprint,
    plan_key,
    result_key,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    MatchCheckpoint,
    PoisonedRequestError,
    Quarantine,
    Supervisor,
    SupervisorConfig,
)
from repro.serve.service import (
    DeltaResponse,
    MatchRequest,
    MatchResponse,
    MatchService,
    MatchTicket,
    ResultTimeout,
    ServeConfig,
)

__all__ = [
    "AdmissionQueue",
    "AdmissionRejected",
    "BreakerState",
    "CacheStats",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeltaResponse",
    "LRUCache",
    "MatchCheckpoint",
    "MatchRequest",
    "MatchResponse",
    "MatchService",
    "MatchTicket",
    "PoisonedRequestError",
    "Quarantine",
    "QueueEntry",
    "ResultTimeout",
    "ServeConfig",
    "ServeMetrics",
    "Supervisor",
    "SupervisorConfig",
    "config_fingerprint",
    "plan_fingerprint",
    "plan_key",
    "result_key",
]

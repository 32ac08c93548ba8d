"""The asynchronous matching service.

:class:`MatchService` turns the one-shot :func:`repro.match` call into a
long-lived, embeddable service:

* a registry of named graphs, each with a monotonically increasing
  **version** — ``update_graph`` / ``apply_edges`` bump it, which lazily
  invalidates every cache entry built against the old version;
* plan and result caches (:mod:`repro.serve.cache`);
* a bounded admission queue with priority shedding and micro-batching
  (:mod:`repro.serve.batcher`);
* a worker-thread pool, each worker building one engine per delivery
  (:mod:`repro.serve.workers`);
* request deadlines wired into the fault-recovery ladder
  (:func:`repro.faults.deadline_policy`);
* metrics (:mod:`repro.serve.metrics`).

Requests submitted through the service return exactly the counts the
one-shot :func:`repro.match` would — caching and batching are pure
performance layers, never semantic ones.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.core.config import RunContext, TDFSConfig
from repro.core.engine import available_engines, make_engine
from repro.core.result import MatchResult
from repro.dynamic import DeltaBatch, IncrementalMatcher
from repro.errors import ReproError, UnsupportedError
from repro.graph.csr import CSRGraph
from repro.obs.ops import (
    FlightRecorder,
    TraceContext,
    make_incident,
    ops_tracer,
    write_incident,
)
from repro.obs.slo import SLO, SLOTracker
from repro.query.pattern import QueryGraph
from repro.query.patterns import get_pattern
from repro.query.plan import MatchingPlan
from repro.serve.batcher import AdmissionQueue, AdmissionRejected, QueueEntry
from repro.serve.cache import (
    LRUCache,
    config_fingerprint,
    plan_fingerprint,
    result_key,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.resilience import (
    CircuitOpenError,
    PoisonedRequestError,
    Supervisor,
    SupervisorConfig,
)


#: LRU capacities of the plan (and portfolio) cache and the result cache.
PLAN_CACHE_SIZE = 256
RESULT_CACHE_SIZE = 1024


class ResultTimeout(ReproError):
    """``MatchTicket.result(timeout=...)`` expired before a response."""


# --------------------------------------------------------------------------- #
# Requests, responses, tickets
# --------------------------------------------------------------------------- #


@dataclass
class MatchRequest:
    """One matching request against a registered graph.

    ``query`` may be a :class:`QueryGraph`, a precompiled
    :class:`MatchingPlan`, or a pattern name like ``"P4"``.
    ``deadline_ms`` is a wall-clock budget measured from submission;
    ``priority`` (higher = more important) decides who is shed first under
    overload.
    """

    graph_id: str
    query: Union[QueryGraph, MatchingPlan, str]
    engine: str = "tdfs"
    deadline_ms: Optional[float] = None
    priority: int = 0
    collect_matches: int = 0
    config: Optional[TDFSConfig] = None
    """Per-request engine config override (``None`` = the service default)."""
    use_result_cache: bool = True
    """Allow serving this request from (and storing it into) the result
    cache; plan caching is unaffected."""


@dataclass
class MatchResponse:
    """Result + serving telemetry for one request."""

    request_id: int
    graph_id: str
    graph_version: Optional[int]
    engine: str
    query_name: str
    result: Optional[MatchResult] = None
    error: Optional[str] = None
    """``None`` on success; ``"DEADLINE"`` (expired before execution),
    ``"UNKNOWN_GRAPH"``, an engine failure marker (``"OOM"``, ``"N/A"``,
    ``"ERR (...)"``), ``"POISONED (...)"`` (redelivery budget exhausted),
    ``"STRANDED"`` (worker unjoinable at stop), or ``"SHUTDOWN"``."""
    result_cache_hit: bool = False
    plan_cache_hit: bool = False
    resumed: bool = False
    """True when the run was resumed from a mid-match checkpoint after a
    worker died or wedged (see :mod:`repro.serve.resilience`)."""
    redeliveries: int = 0
    """Times the supervisor redelivered this request before it settled."""
    degraded: bool = False
    """True when the deadline ladder pre-degraded the run or canceled it."""
    deadline_missed: bool = False
    """True when the request completed, but after its deadline."""
    queue_ms: float = 0.0
    compile_ms: float = 0.0
    """Wall time spent compiling the plan (0 on a plan-cache hit)."""
    run_ms: float = 0.0
    """Wall time spent inside the engine."""
    total_ms: float = 0.0
    batch_size: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @property
    def count(self) -> Optional[int]:
        """Match count, or ``None`` when the request did not produce one."""
        return self.result.count if self.result is not None else None


@dataclass
class DeltaResponse:
    """Outcome of one :meth:`MatchService.match_delta` call."""

    graph_id: str
    graph_version: int
    """Version of the successor graph the count is for."""
    query_name: str
    engine: str
    count: int
    """Exact match count on the successor graph."""
    base_count: Optional[int] = None
    """Cached count on the previous version (``None`` = no cached base)."""
    gained: int = 0
    lost: int = 0
    incremental: bool = False
    """True when the delta fast path produced the count; False when a full
    re-match ran (see ``fallback_reason``)."""
    fallback_reason: Optional[str] = None
    anchored_tasks: int = 0
    total_ms: float = 0.0
    result: Optional[MatchResult] = None


class MatchTicket:
    """Async handle returned by :meth:`MatchService.submit`.

    ``result()`` blocks until the response arrives; it raises
    :class:`AdmissionRejected` if the request was shed after admission and
    :class:`ResultTimeout` when ``timeout`` expires first.  A ticket may be
    born settled (a result-cache hit); only a ``result()`` call that finds
    it unsettled allocates an event to wait on.
    """

    #: Shared by all tickets; orders "unsettled, so wait on an event" against
    #: "settled, so wake the event".  Never held while waiting.
    _lock = threading.Lock()

    def __init__(
        self, request_id: int, response: Optional[MatchResponse] = None
    ) -> None:
        self.request_id = request_id
        self._response = response
        self._error: Optional[BaseException] = None
        self._event: Optional[threading.Event] = None

    def done(self) -> bool:
        return self._response is not None or self._error is not None

    def result(self, timeout: Optional[float] = None) -> MatchResponse:
        if not self.done():
            with self._lock:
                if self._event is None and not self.done():
                    self._event = threading.Event()
                event = self._event
            if event is not None and not event.wait(timeout):
                raise ResultTimeout(
                    f"no response for request {self.request_id} within {timeout}s"
                )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response

    # internal — called by the service/workers
    def _complete(self, response: MatchResponse) -> None:
        self._settle(response, None)

    def _fail(self, error: BaseException) -> None:
        self._settle(None, error)

    def _settle(self, response, error) -> None:
        with self._lock:
            self._response, self._error = response, error
            event = self._event
        if event is not None:
            event.set()


@dataclass
class _PreparedRequest:
    """A request after submit-time normalization (internal)."""

    request: MatchRequest
    query: Union[QueryGraph, MatchingPlan]
    config: TDFSConfig
    plan_fp: str
    config_fp: str

    @property
    def query_name(self) -> str:
        q = self.query.query if isinstance(self.query, MatchingPlan) else self.query
        return q.name


# --------------------------------------------------------------------------- #
# Service configuration
# --------------------------------------------------------------------------- #


@dataclass
class ServeConfig:
    """Knobs of one :class:`MatchService`."""

    workers: int = 2
    max_queue: int = 256
    """Admission-queue depth; beyond it, requests shed or are rejected."""
    max_batch: int = 16
    """Micro-batch size cap (requests sharing one candidate build)."""
    batch_window_ms: float = 1.0
    """How long a worker lingers after taking a request to let same-graph
    requests accumulate into its batch (0 disables the wait)."""
    enable_plan_cache: bool = True
    enable_result_cache: bool = True
    eager_invalidation: bool = False
    """Scan-and-drop cache entries on a graph update instead of relying on
    version-keyed lazy invalidation alone."""
    autostart: bool = True
    """Start the worker pool on first submit (otherwise call ``start()``)."""
    match_config: TDFSConfig = field(default_factory=TDFSConfig)
    """Default engine config for requests without an override.  Sharding
    is set here (``match_config.shards``; see :mod:`repro.shard`) — cache
    keys include it via the config fingerprint, so sharded and unsharded
    results never alias even though their counts agree."""
    supervisor: Optional[SupervisorConfig] = None
    """Enable supervised serving (watchdog + breakers + quarantine +
    checkpoint/resume; see :mod:`repro.serve.resilience`)."""
    worker_faults: Optional[object] = None
    """A :class:`repro.faults.WorkerFaultPlan` driving worker-kill /
    worker-stall chaos at checkpoint boundaries.  Setting it implies
    supervision (a default :class:`SupervisorConfig` is used if
    ``supervisor`` is ``None``)."""
    slos: tuple = ()
    """Declarative :class:`repro.obs.SLO` objectives evaluated against the
    live outcome stream after every settled request; a rising-edge breach
    records an ``slo.breach`` flight event (a fault kind, so it can
    trigger an incident dump)."""
    dump_on_error: Optional[str] = None
    """Auto-dump an incident bundle the first time a fault-kind flight
    event fires: a directory (bundles get timestamped names) or an
    explicit ``*.json`` path.  ``None`` disables auto-dump;
    :meth:`MatchService.dump_incident` always works."""
    shard_faults: tuple = ()
    """Shard indices whose worker process is killed on dispatch (handed to
    every run as :attr:`repro.core.RunContext.shard_faults`).  Chaos-only:
    counts are recovered exactly by re-execution."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError("serve: workers must be >= 1")
        if self.max_batch < 1:
            raise ReproError("serve: max_batch must be >= 1")
        for slo in self.slos:
            if not isinstance(slo, SLO):
                raise ReproError(
                    "serve: slos must be repro.obs.SLO objects, "
                    f"got {type(slo).__name__}"
                )
        self.shard_faults = tuple(self.shard_faults)
        RunContext(shard_faults=self.shard_faults)  # validate now, not per run


@dataclass
class _GraphSlot:
    graph: CSRGraph
    version: int


# --------------------------------------------------------------------------- #
# The service
# --------------------------------------------------------------------------- #


class MatchService:
    """Embeddable asynchronous subgraph-matching service.

    Usage::

        from repro import load_dataset
        from repro.serve import MatchService

        with MatchService() as svc:
            svc.register_graph("g", load_dataset("web-google"))
            print(svc.query("g", "P1").count)   # cold: compile + run
            print(svc.query("g", "P1").count)   # warm: result-cache hit
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        from repro.planner.feedback import PlanFeedbackStore

        self.config = config or ServeConfig()
        self.metrics = ServeMetrics()
        self.tracer = ops_tracer()
        """Process-wide operational span ring (see :mod:`repro.obs.ops`)."""
        self.flight = FlightRecorder()
        """Structured operational event ring; fault kinds trigger dumps."""
        self.slo_tracker: Optional[SLOTracker] = None
        if self.config.slos:
            self.slo_tracker = SLOTracker(
                list(self.config.slos),
                self.metrics.outcomes,
                registry=self.metrics.registry,
                on_breach=self._on_slo_breach,
            )
        self.incident_path: Optional[str] = None
        """Path of the auto-dumped incident bundle (``None`` until a fault
        fires with ``dump_on_error`` configured)."""
        self._incident_lock = threading.Lock()
        self._auto_dumped = False
        if self.config.dump_on_error:
            self.flight.on_fault(self._auto_dump)
        self.plan_cache = LRUCache(PLAN_CACHE_SIZE)
        self.result_cache = LRUCache(RESULT_CACHE_SIZE)
        self.portfolio_cache = LRUCache(PLAN_CACHE_SIZE)
        """Planner portfolios keyed like plan-cache entries (planner only)."""
        self.feedback = PlanFeedbackStore()
        """Observed per-plan runtime; drives portfolio promote/demote."""
        self._graphs: dict[str, _GraphSlot] = {}
        self._graphs_lock = threading.RLock()
        self._queue = AdmissionQueue(
            max_depth=self.config.max_queue, on_shed=self._shed
        )
        self._lifecycle = threading.Lock()
        self._pool = None
        self.supervisor: Optional[Supervisor] = None
        self._ids = itertools.count(1)  # request ids; next() is atomic
        self._stopped = False
        self._draining = False

    # ------------------------------------------------------------------ #
    # Graph registry
    # ------------------------------------------------------------------ #

    def register_graph(self, graph_id: str, graph: CSRGraph) -> int:
        """Register a new named graph at version 1."""
        with self._graphs_lock:
            if graph_id in self._graphs:
                raise ReproError(
                    f"graph {graph_id!r} already registered; use update_graph()"
                )
            self._graphs[graph_id] = _GraphSlot(graph=graph, version=1)
            return 1

    def update_graph(self, graph_id: str, graph: CSRGraph) -> int:
        """Replace a registered graph wholesale; bumps its version."""
        with self._graphs_lock:
            slot = self._slot(graph_id)
            slot.graph = graph
            slot.version += 1
            version = slot.version
        self._after_update(graph_id)
        return version

    def apply_edges(
        self,
        graph_id: str,
        add: Optional[Iterable[tuple[int, int]]] = None,
        remove: Optional[Iterable[tuple[int, int]]] = None,
    ) -> int:
        """Apply a batch-dynamic edge delta; bumps the graph version.

        ``add`` may reference new vertex ids past the current ``|V|`` (the
        vertex set grows; new vertices of a labeled graph get label 0).
        Removal of a non-existent edge is a no-op; a self-loop or repeated
        edge in ``add`` raises :class:`~repro.dynamic.DeltaError`.  The
        successor graph is built by the vectorized
        :meth:`~repro.graph.csr.CSRGraph.apply_delta` — no per-edge Python
        loop over ``|E|``.  Every cache entry for the previous version
        becomes unreachable, so no request observes a stale count.
        """
        batch = DeltaBatch.make(add=add, remove=remove)
        with self._graphs_lock:
            slot = self._slot(graph_id)
            slot.graph = slot.graph.apply_delta(batch)
            slot.version += 1
            version = slot.version
        self._after_update(graph_id)
        return version

    def match_delta(
        self,
        graph_id: str,
        query: Union[QueryGraph, MatchingPlan, str],
        add: Optional[Iterable[tuple[int, int]]] = None,
        remove: Optional[Iterable[tuple[int, int]]] = None,
        engine: str = "tdfs",
        config: Optional[TDFSConfig] = None,
    ) -> DeltaResponse:
        """Apply an edge delta and return the exact new count in one step.

        When the previous version's count for ``(query, engine, config)``
        sits in the result cache and the engine is ``"tdfs"``, the count is
        produced by the incremental fast path — delta-edge-anchored runs of
        the unmodified engine (:class:`repro.dynamic.IncrementalMatcher`)
        instead of a from-scratch re-match — and the synthesized result is
        stored under the new version, so a chain of small deltas never pays
        for a full match.  Otherwise a full re-match runs; either way the
        returned count is exact and the graph version is bumped exactly
        once (same cache-invalidation semantics as :meth:`apply_edges`).
        """
        trace = TraceContext.mint(kind="delta", graph=graph_id, engine=engine)
        with self.tracer.span("serve.delta", ctx=trace, graph=graph_id) as span:
            response = self._match_delta(
                trace, graph_id, query, add, remove, engine, config
            )
            span.tags.update(
                query=response.query_name, incremental=response.incremental
            )
        return response

    def _match_delta(
        self, trace, graph_id, query, add, remove, engine, config
    ) -> DeltaResponse:
        t0 = time.monotonic()
        self.metrics.incr("delta_requests")
        if engine not in available_engines():
            raise UnsupportedError(
                f"unknown engine {engine!r}; available: "
                f"{', '.join(available_engines())}"
            )
        if isinstance(query, str):
            query = get_pattern(query)
        cfg = config or self.config.match_config
        # Fingerprint the caller's (memoising) object, not the traced copy.
        plan_fp = plan_fingerprint(query)
        config_fp = config_fingerprint(cfg)
        if cfg.trace_context is None:
            cfg = cfg.replace(trace_context=trace)
        ctx = RunContext(shard_faults=self.config.shard_faults)
        batch = DeltaBatch.make(add=add, remove=remove)

        with self._graphs_lock:
            slot = self._slot(graph_id)
            old_graph, old_version = slot.graph, slot.version
            new_graph = old_graph.apply_delta(batch)
            slot.graph = new_graph
            slot.version += 1
            version = slot.version
        self._after_update(graph_id)

        base: Optional[MatchResult] = None
        if self.config.enable_result_cache:
            base = self.result_cache.get(
                result_key(graph_id, old_version, plan_fp, engine, config_fp, 0)
            )

        fallback_reason: Optional[str] = None
        if engine != "tdfs":
            # Baseline engines seed initial tasks differently (STMatch
            # re-filters them on the host, Hybrid re-plans the split), so
            # anchored seeding only matches tdfs semantics.
            fallback_reason = "engine-not-tdfs"
        elif base is None:
            fallback_reason = "no-cached-base"

        q_name = (
            query.query.name if isinstance(query, MatchingPlan) else query.name
        )
        response = DeltaResponse(
            graph_id=graph_id,
            graph_version=version,
            query_name=q_name,
            engine=engine,
            count=0,
            base_count=base.count if base is not None else None,
        )
        if fallback_reason is None:
            assert base is not None
            out = IncrementalMatcher(cfg, ctx).count_delta(
                old_graph, new_graph, batch, query, base.count
            )
            response.count = out.count
            response.gained = out.gained
            response.lost = out.lost
            response.incremental = out.incremental
            response.fallback_reason = out.fallback_reason
            response.anchored_tasks = out.anchored_tasks
            response.result = out.result
        else:
            result = make_engine(engine, cfg, ctx).run(new_graph, query)
            if result.error is not None:
                raise ReproError(
                    f"delta re-match on {graph_id!r} failed: {result.error}"
                )
            response.count = result.count
            response.fallback_reason = fallback_reason
            response.result = result

        if response.incremental:
            self.metrics.incr("delta_incremental")
            self.metrics.incr("delta_gained", response.gained)
            self.metrics.incr("delta_lost", response.lost)
        else:
            self.metrics.incr("delta_fallbacks")
            self.flight.record(
                "delta.fallback",
                graph=graph_id,
                query=q_name,
                reason=response.fallback_reason,
                trace_id=trace.trace_id,
            )
        if self.config.enable_result_cache and response.result is not None:
            self.result_cache.put(
                result_key(graph_id, version, plan_fp, engine, config_fp, 0),
                response.result,
            )
        response.total_ms = (time.monotonic() - t0) * 1000.0
        return response

    def graph(self, graph_id: str) -> CSRGraph:
        """The current graph registered under ``graph_id``."""
        with self._graphs_lock:
            return self._slot(graph_id).graph

    def graph_version(self, graph_id: str) -> int:
        with self._graphs_lock:
            return self._slot(graph_id).version

    def graphs(self) -> dict[str, int]:
        """Mapping of registered graph ids to their current versions."""
        with self._graphs_lock:
            return {gid: slot.version for gid, slot in self._graphs.items()}

    def _slot(self, graph_id: str) -> _GraphSlot:
        try:
            return self._graphs[graph_id]
        except KeyError:
            raise ReproError(
                f"unknown graph {graph_id!r}; registered: "
                f"{', '.join(sorted(self._graphs)) or '(none)'}"
            ) from None

    def resolve_graph(self, graph_id: str) -> tuple[CSRGraph, int]:
        """Snapshot ``(graph, version)`` — what a worker executes against."""
        with self._graphs_lock:
            slot = self._slot(graph_id)
            return slot.graph, slot.version

    def _after_update(self, graph_id: str) -> None:
        self.metrics.incr("graph_updates")
        # Planner-produced plans, their portfolios and feedback are *always*
        # eagerly invalidated on a version bump: a matching order chosen for
        # the old graph's statistics (or promoted by runs against it) must
        # never be served against the new graph.  Version keying already
        # makes old entries unreachable; the eager drop also stops the
        # feedback store from resurrecting stale observations under a
        # recycled key.  Plans compiled without a planner depend on no
        # graph, are keyed on none (``plan_key``) and so stay.
        self.plan_cache.invalidate_graph(graph_id)
        self.portfolio_cache.invalidate_graph(graph_id)
        self.feedback.invalidate_graph(graph_id)
        if self.config.eager_invalidation:
            self.result_cache.invalidate_graph(graph_id)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "MatchService":
        """Start the worker pool (idempotent)."""
        from repro.serve.workers import WorkerPool

        with self._lifecycle:
            if self._stopped:
                raise ReproError("this MatchService was stopped; build a new one")
            if self._pool is None:
                self._pool = WorkerPool(self, self.config.workers)
                self._pool.start()
                if (
                    self.config.supervisor is not None
                    or self.config.worker_faults is not None
                ):
                    self.supervisor = Supervisor(self, self.config.supervisor)
                    self.supervisor.start()
                self.metrics.set_pool_size(self.config.workers)
        return self

    def stop(self) -> None:
        """Drain nothing, reject the queued remainder, stop the workers."""
        with self._lifecycle:
            if self._stopped:
                return
            self._stopped = True
            if self.supervisor is not None:
                # Stop the watchdog first so it cannot redeliver into the
                # queue we are about to close.
                self.supervisor.stop()
            remaining = self._queue.close()
            for entry in remaining:
                self.metrics.incr("rejected")
                if entry.claim_settle():
                    entry.ticket._fail(
                        AdmissionRejected("service stopped before the request ran")
                    )
            if self._pool is not None:
                self._pool.join()
                # Workers that died mid-flight (and were not recovered
                # before the supervisor stopped) may still hold unsettled
                # entries; a stop must never leave a ticket hanging.
                for w in self._pool.workers:
                    for entry in w.take_inflight():
                        if not entry.settled:
                            self._settle_error(entry, "SHUTDOWN")
                self._pool = None
            if self.supervisor is not None:
                self.supervisor.join(timeout=2.0)

    def drain(self, timeout: float = 30.0) -> int:
        """Gracefully drain: seal intake, let in-flight work finish, stop.

        New submissions are rejected (typed :class:`AdmissionRejected`)
        while queued and in-flight requests run to completion — supervisor
        redelivery still lands, so a worker dying mid-drain does not lose
        its entries.  After ``timeout`` seconds whatever is still queued or
        running is settled with typed errors by :meth:`stop`.  Returns the
        number of *stranded* requests (0 = a perfectly clean drain).
        """
        self._draining = True
        self.metrics.incr("drains")
        self._queue.seal()

        def pending() -> int:
            # Count queued entries plus unsettled in-flight entries on
            # EVERY worker — including dead ones: between a worker crash
            # and the watchdog sweep that redelivers, an entry lives only
            # in the dead worker's in-flight list.
            n = self._queue.depth
            pool = self._pool
            if pool is not None:
                for w in pool.workers:
                    n += w.unsettled_inflight()
            return n

        deadline = time.monotonic() + timeout
        stable = 0
        while time.monotonic() < deadline:
            if pending() == 0:
                stable += 1
                if stable >= 3:  # ride out take->publish races
                    break
            else:
                stable = 0
            time.sleep(0.005)
        stranded = pending()
        for _ in range(stranded):
            self.metrics.incr("stranded")
        self.stop()
        return stranded

    @property
    def running(self) -> bool:
        return self._pool is not None and not self._stopped

    def __enter__(self) -> "MatchService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #

    def submit(self, request: MatchRequest) -> MatchTicket:
        """Admit a request; returns immediately with a :class:`MatchTicket`.

        Raises :class:`AdmissionRejected` when the request cannot be
        admitted (queue full and priority too low, service draining, or
        service stopped), :class:`CircuitOpenError` when the request's
        ``(graph, plan)`` signature has an open circuit,
        :class:`PoisonedRequestError` when an identical request was
        quarantined, and :class:`ReproError` for an unknown graph or
        engine.
        """
        t_submit = time.monotonic()
        prepared = self._prepare(request)
        rid = next(self._ids)
        self.metrics.incr("submitted")

        graph, version = self.resolve_graph(request.graph_id)

        breaker_sig = (request.graph_id, prepared.plan_fp)
        if self.supervisor is not None:
            try:
                self.supervisor.quarantine.check(
                    (
                        request.graph_id,
                        prepared.plan_fp,
                        request.engine,
                        prepared.config_fp,
                    )
                )
            except PoisonedRequestError:
                self.metrics.incr("poisoned_rejected")
                self.metrics.incr("rejected")
                raise
            try:
                self.supervisor.breaker.check(breaker_sig)
            except CircuitOpenError:
                self.metrics.incr("breaker_rejected")
                self.metrics.incr("rejected")
                raise

        # Fast path: an exact repeat of a cached result answers immediately,
        # without touching the admission queue.
        if self.config.enable_result_cache and request.use_result_cache:
            key = result_key(
                request.graph_id,
                version,
                prepared.plan_fp,
                request.engine,
                prepared.config_fp,
                request.collect_matches,
            )
            cached = self.result_cache.get(key)
            if cached is not None:
                trace = TraceContext.mint()  # no baggage: it ends with this span
                with self.tracer.span(
                    "serve.request", ctx=trace, request_id=rid, cache="hit"
                ):
                    total_ms = (time.monotonic() - t_submit) * 1000.0
                    ticket = MatchTicket(
                        rid,
                        MatchResponse(
                            request_id=rid,
                            graph_id=request.graph_id,
                            graph_version=version,
                            engine=request.engine,
                            query_name=prepared.query_name,
                            result=cached,
                            result_cache_hit=True,
                            total_ms=total_ms,
                        ),
                    )
                    self.metrics.incr("completed")
                    self.metrics.incr("result_cache_hits")
                    self.metrics.observe_latency(total_ms)
                    self._record_outcome(total_ms, error=False)
                    if self.supervisor is not None:
                        # A cache hit is a healthy outcome: it closes a
                        # half-open circuit's probe like any other success.
                        self.supervisor.breaker.record_success(breaker_sig)
                return ticket

        ticket = MatchTicket(rid)
        trace = TraceContext.mint(
            request_id=rid,
            graph=request.graph_id,
            engine=request.engine,
            query=prepared.query_name,
        )
        if self.config.autostart:
            self.start()
        deadline_at = None
        if request.deadline_ms is not None:
            deadline_at = t_submit + request.deadline_ms / 1000.0
        entry = QueueEntry(
            request=prepared,
            ticket=ticket,
            request_id=rid,
            priority=request.priority,
            batch_key=(request.graph_id, request.engine, prepared.config_fp),
            submitted_at=t_submit,
            deadline_at=deadline_at,
            trace=trace,
        )
        try:
            self._queue.offer(entry)
        except AdmissionRejected:
            self.metrics.incr("rejected")
            self.flight.record(
                "request.rejected",
                request_id=rid,
                graph=request.graph_id,
                trace_id=trace.trace_id,
            )
            raise
        self.flight.record(
            "request.admitted",
            request_id=rid,
            graph=request.graph_id,
            query=prepared.query_name,
            trace_id=trace.trace_id,
        )
        self.metrics.set_queue_depth(self._queue.depth)
        return ticket

    def query(
        self,
        graph_id: str,
        query: Union[QueryGraph, MatchingPlan, str],
        timeout: Optional[float] = 300.0,
        **kwargs,
    ) -> MatchResponse:
        """Blocking convenience wrapper: submit and wait for the response."""
        request = MatchRequest(graph_id=graph_id, query=query, **kwargs)
        return self.submit(request).result(timeout=timeout)

    def _prepare(self, request: MatchRequest) -> _PreparedRequest:
        if request.engine not in available_engines():
            raise UnsupportedError(
                f"unknown engine {request.engine!r}; available: "
                f"{', '.join(available_engines())}"
            )
        query = request.query
        if isinstance(query, str):
            query = get_pattern(query)
        config = request.config or self.config.match_config
        return _PreparedRequest(
            request=request,
            query=query,
            config=config,
            plan_fp=plan_fingerprint(query),
            config_fp=config_fingerprint(config),
        )

    def _settle_error(self, entry: QueueEntry, marker: str) -> bool:
        """Settle ``entry`` with a typed error response — exactly once.

        Shared by workers (batch-level failures), the supervisor
        (quarantine / redelivery-into-closed-queue), and pool shutdown
        (stranded entries).  Returns False when somebody else already
        settled the entry (benign race with a zombie worker).
        """
        if not entry.claim_settle():
            return False
        prepared = entry.request
        response = MatchResponse(
            request_id=entry.request_id,
            graph_id=prepared.request.graph_id,
            graph_version=None,
            engine=prepared.request.engine,
            query_name=prepared.query_name,
            error=marker,
            redeliveries=entry.redeliveries,
            total_ms=(time.monotonic() - entry.submitted_at) * 1000.0,
        )
        entry.ticket._complete(response)
        self.metrics.incr("completed")
        self.metrics.incr("errors")
        self._record_outcome(response.total_ms, error=True)
        self.flight.record(
            "request.error",
            request_id=entry.request_id,
            marker=marker,
            redeliveries=entry.redeliveries,
            trace_id=getattr(entry.trace, "trace_id", None),
        )
        return True

    def _shed(self, entry: QueueEntry) -> None:
        """Admission-queue callback: a queued request was displaced."""
        if not entry.claim_settle():
            return
        self.metrics.incr("shed")
        self.flight.record(
            "request.shed",
            request_id=entry.request_id,
            priority=entry.priority,
            trace_id=getattr(entry.trace, "trace_id", None),
        )
        self._record_outcome(
            (time.monotonic() - entry.submitted_at) * 1000.0, error=True
        )
        entry.ticket._fail(
            AdmissionRejected(
                f"request {entry.request_id} shed under overload "
                f"(priority {entry.priority})"
            )
        )

    # ------------------------------------------------------------------ #
    # Operational observability
    # ------------------------------------------------------------------ #

    def _record_outcome(self, latency_ms: float, error: bool = False) -> None:
        """Feed a settled request into the SLO stream; evaluate burns."""
        self.metrics.record_outcome(latency_ms, error=error)
        if self.slo_tracker is not None:
            self.slo_tracker.evaluate()

    def _on_slo_breach(self, status) -> None:
        """SLOTracker rising-edge callback → a fault-kind flight event."""
        self.flight.record(
            "slo.breach",
            name=status.name,
            slo_kind=status.kind,
            burn_rates={k: round(v, 4) for k, v in status.burn_rates.items()},
        )

    def _auto_dump(self, event: dict) -> None:
        """Flight-recorder fault callback: dump one bundle per service."""
        with self._incident_lock:
            if self._auto_dumped:
                return
            self._auto_dumped = True
        self.incident_path = self.dump_incident(
            reason=event.get("kind", "fault")
        )

    def dump_incident(self, reason: str, path: Optional[str] = None) -> str:
        """Write a self-contained incident bundle; returns its path.

        ``path=None`` resolves against ``ServeConfig.dump_on_error``: an
        explicit ``*.json`` path is used as-is, anything else is treated
        as a directory and gets a timestamped bundle name.
        """
        slos = (
            [s.to_dict() for s in self.slo_tracker.evaluate()]
            if self.slo_tracker is not None
            else []
        )
        bundle = make_incident(
            reason=reason,
            recorder=self.flight,
            tracer=self.tracer,
            metrics=self.snapshot(),
            slos=slos,
            info={
                "workers": self.config.workers,
                "graphs": ", ".join(sorted(self.graphs())) or "(none)",
                "draining": self._draining,
            },
        )
        if path is None:
            base = self.config.dump_on_error or "."
            if base.endswith(".json"):
                path = base
            else:
                os.makedirs(base, exist_ok=True)
                path = os.path.join(
                    base,
                    f"incident-{int(time.time() * 1000)}-{os.getpid()}.json",
                )
        return write_incident(bundle, path)

    def ops_snapshot(self) -> dict:
        """Everything the live ops console renders, one JSON dict."""
        snap = self.snapshot()
        if self.slo_tracker is not None:
            snap["slos"] = [s.to_dict() for s in self.slo_tracker.evaluate()]
            snap["alerts"] = self.slo_tracker.active_alerts()
        else:
            snap["slos"] = []
            snap["alerts"] = []
        snap["flight"] = self.flight.counts()
        snap["qps_60s"] = round(self.metrics.windowed_qps(60.0), 3)
        snap["spans_recorded"] = len(self.tracer)
        snap["incident_path"] = self.incident_path
        from repro.obs.console import shard_utilization

        snap["shard_util"] = shard_utilization(self.tracer.spans())
        return snap

    # ------------------------------------------------------------------ #
    # Planner feedback
    # ------------------------------------------------------------------ #

    def record_plan_feedback(
        self,
        graph_id: str,
        plan_fp: str,
        portfolio_key: tuple,
        plan: MatchingPlan,
        result: MatchResult,
    ) -> None:
        """Fold one completed run into the plan feedback loop.

        Records the plan's observed virtual cycles (plus timeouts/steals
        from the engine metrics) against its order, publishes the
        estimator-vs-actual error, and — when the observation re-ranks the
        portfolio — eagerly invalidates the cached plan for this
        ``(graph_id, plan_fp)`` so the next request runs the promoted
        member.
        """
        portfolio = self.portfolio_cache.get(portfolio_key)
        key = (graph_id, plan_fp)
        choice = (
            portfolio.choice_for_order(plan.order) if portfolio is not None else None
        )
        before = (
            self.feedback.preferred(key, portfolio)
            if portfolio is not None
            else None
        )
        obs = self.feedback.record(
            key,
            plan.order,
            cycles=result.elapsed_cycles,
            est_cycles=choice.est_cycles if choice is not None else 0.0,
            timeouts=result.timeouts,
            steals=result.steals,
            error=result.error is not None,
        )
        self.metrics.incr("planner_feedback")
        if choice is not None and obs.rel_error is not None:
            self.metrics.observe_plan_error(obs.rel_error)
        if portfolio is not None and before is not None:
            after = self.feedback.preferred(key, portfolio)
            if after.order != before.order:
                # Re-rank: the cached plan now points at a demoted order.
                self.plan_cache.invalidate_matching(graph_id, plan_fp)
                self.metrics.incr("plan_reranks")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def cache_stats(self) -> dict:
        return {
            "plan_cache": self.plan_cache.stats().to_dict(),
            "result_cache": self.result_cache.stats().to_dict(),
        }

    def snapshot(self) -> dict:
        """Metrics + cache counters + graph registry, JSON-compatible."""
        snap = self.metrics.snapshot()
        snap.update(self.cache_stats())
        snap["graphs"] = self.graphs()
        snap["workers"] = self.config.workers
        snap["draining"] = self._draining
        if self.supervisor is not None:
            snap["resilience"] = self.supervisor.snapshot()
        return snap

    def render_metrics(self) -> str:
        """Text metrics report (the ``repro serve`` CLI output)."""
        return self.metrics.render(cache_stats=self.cache_stats())

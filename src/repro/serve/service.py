"""The asynchronous matching service.

:class:`MatchService` turns the one-shot :func:`repro.match` call into a
long-lived, embeddable service:

* a registry of named graphs, each with a monotonically increasing
  **version** — ``update_graph`` / ``apply_edges`` bump it, and the version
  in every graph-dependent cache key is the only invalidation: entries
  built against the old version are never addressed again;
* plan and result caches (:mod:`repro.serve.cache`); a planner's plan-cache
  entry holds its portfolio and the runs observed on it
  (:class:`repro.planner.PlanFeedback`);
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
from repro.core.engine import available_engines, is_engine
from repro.core.result import MatchResult
from repro.dynamic import DeltaBatch, DeltaCount, IncrementalMatcher
from repro.errors import ReproError, UnsupportedError
from repro.graph.csr import CSRGraph
from repro.obs.ops import (
    FlightRecorder,
    TraceContext,
    make_incident,
    ops_tracer,
    write_incident,
)
from repro.obs.console import shard_utilization
from repro.obs.slo import SLO, SLOTracker
from repro.query.pattern import QueryGraph
from repro.query.patterns import get_pattern
from repro.query.plan import MatchingPlan
from repro.serve.batcher import AdmissionQueue, AdmissionRejected, QueueEntry
from repro.serve.cache import (
    LRUCache,
    config_fingerprint,
    plan_fingerprint,
    plan_key,
    result_key,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.resilience import (
    CircuitOpenError,
    PoisonedRequestError,
    Supervisor,
    SupervisorConfig,
)


#: LRU capacities of the plan cache and the result cache.
PLAN_CACHE_SIZE = 256
RESULT_CACHE_SIZE = 1024


#: First words of the error markers the breaker neither charges nor
#: credits: the engine cannot run the query, the graph or the service is
#: going away, or redelivery already charged the failure (``POISONED``).
_BREAKER_NEUTRAL = ("N/A", "UNKNOWN_GRAPH", "SHUTDOWN", "STRANDED", "POISONED")


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


@dataclass(kw_only=True)
class DeltaResponse(DeltaCount):
    """Outcome of one :meth:`MatchService.match_delta` call: the
    :class:`~repro.dynamic.DeltaCount` plus the serving envelope."""

    graph_id: str
    graph_version: int
    """Version of the successor graph the count is for."""
    query_name: str
    engine: str
    total_ms: float = 0.0


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
        if self._response is None and self._error is None:
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


@dataclass(eq=False)
class _PreparedRequest:
    """A request *shape* after submit-time normalization (internal), shared
    by every request of that shape (:meth:`MatchService._prepare`) — and
    the one place its keys are derived.  A request's own fields
    (``deadline_ms``, ``priority``) live on its queue entry."""

    graph_id: str
    engine: str
    collect_matches: int
    query: Union[QueryGraph, MatchingPlan]
    query_name: str
    config: TDFSConfig
    plan_fp: str
    config_fp: str
    cache_results: bool
    """The service and the request both allow the result cache."""
    _keyed: tuple = (None, None)
    """The latest ``(version, result key)``, replaced in one assignment."""
    _template: Optional[MatchResponse] = None
    """The latest hit's response, which later hits of its result copy."""

    @property
    def signature(self) -> tuple:
        """Breaker key: what reproducibly identifies a killer query."""
        return (self.graph_id, self.plan_fp)

    @property
    def fingerprint(self) -> tuple:
        """Quarantine key: the full repeat-identity of a request."""
        return (*self.signature, self.engine, self.config_fp)

    @property
    def batch_key(self) -> tuple:
        """Requests sharing it share one graph resolution in a worker."""
        return (self.graph_id, self.engine, self.config_fp)

    def _key(self, make, version: Optional[int], last) -> tuple:
        return make(
            self.graph_id, version, self.plan_fp, self.engine, self.config_fp, last
        )

    def result_key(self, version: int) -> Optional[tuple]:
        """``None`` = neither look nor store: the service or the request
        has result caching off."""
        keyed = self._keyed
        if keyed[0] != version:
            key = None
            if self.cache_results:
                key = self._key(result_key, version, self.collect_matches)
            keyed = self._keyed = (version, key)
        return keyed[1]

    def plan_key(self, version: int, planned: bool) -> tuple:
        return self._key(plan_key, version, planned)

    def response(self, request_id: int, version: Optional[int], **telemetry):
        """A :class:`MatchResponse` with this request's identity fields."""
        return MatchResponse(
            request_id, self.graph_id, version, self.engine, self.query_name,
            **telemetry,
        )

    def hit(self, request_id: int, version: int, cached: MatchResult):
        """A result-cache hit's response: a copy of the template while it
        still answers with ``cached`` at ``version``."""
        template = self._template
        if template is None or template.result is not cached or (
            template.graph_version != version
        ):
            template = self._template = self.response(
                0, version, result=cached, result_cache_hit=True
            )
        response = object.__new__(MatchResponse)  # a field copy, no __init__
        response.__dict__ = template.__dict__.copy()
        response.request_id = request_id
        return response


# --------------------------------------------------------------------------- #
# Service configuration
# --------------------------------------------------------------------------- #


@dataclass
class ServeConfig:
    """Knobs of one :class:`MatchService`."""

    workers: int = 2
    max_queue: int = 256
    """Admission-queue depth; beyond it, requests shed or are rejected."""
    enable_plan_cache: bool = True
    enable_result_cache: bool = True
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
        self._shapes: dict[tuple, _PreparedRequest] = {}
        """Prepared request shapes, oldest first (:meth:`_prepare`)."""
        self._shapes_lock = threading.Lock()
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
        return self._advance(graph_id, lambda _old: graph)[3]

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
        return self._advance(graph_id, lambda old: old.apply_delta(batch))[3]

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
        prepared = self._prepare(
            MatchRequest(graph_id, query, engine=engine, config=config)
        )
        # The caller's (memoising) config: its fingerprint and anchor config
        # are kept on it, so the trace travels beside it.
        cfg = prepared.config
        ctx = RunContext(shard_faults=self.config.shard_faults)
        batch = DeltaBatch.make(add=add, remove=remove)
        net = None

        def successor(old):
            nonlocal net  # normalized once, against the graph being replaced
            net = batch.normalize(old)
            return old.apply_delta(net)
        old_graph, old_version, new_graph, version = self._advance(
            graph_id, successor
        )
        old_key = prepared.result_key(old_version)
        base = self.result_cache.get(old_key) if old_key is not None else None
        out = IncrementalMatcher(cfg, ctx, trace=trace).count_delta(
            old_graph,
            new_graph,
            net,
            prepared.query,
            base.count if base is not None else None,
            engine=engine,
        )
        if out.incremental:
            self.metrics.incr("delta_incremental")
            self.metrics.incr("delta_gained", out.gained)
            self.metrics.incr("delta_lost", out.lost)
        else:
            self.metrics.incr("delta_fallbacks")
            self.flight.record(
                "delta.fallback",
                graph=graph_id,
                query=prepared.query_name,
                reason=out.fallback_reason,
                trace_id=trace.trace_id,
            )
        new_key = prepared.result_key(version)
        if new_key is not None:
            self.result_cache.put(new_key, out.result)
        return DeltaResponse(
            **vars(out),
            graph_id=graph_id,
            graph_version=version,
            query_name=prepared.query_name,
            engine=engine,
            total_ms=(time.monotonic() - t0) * 1000.0,
        )

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

    def _advance(self, graph_id: str, successor) -> tuple:
        """Replace a graph by ``successor(graph)`` and bump its version,
        atomically; returns ``(old graph, old version, graph, version)``."""
        with self._graphs_lock:
            slot = self._slot(graph_id)
            old = slot.graph, slot.version
            slot.graph = successor(slot.graph)
            slot.version += 1
            new = slot.graph, slot.version
        self.metrics.incr("graph_updates")
        return (*old, *new)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "MatchService":
        """Start the worker pool (idempotent)."""
        if not self._start():
            raise ReproError("this MatchService was stopped; build a new one")
        return self

    def _start(self) -> bool:
        """:meth:`start`, answering False instead of raising once stopped."""
        from repro.serve.workers import WorkerPool

        with self._lifecycle:
            if self._stopped:
                return False
            if self._pool is None:
                self._pool = WorkerPool(self, self.config.workers)
                self._pool.start()
                if (
                    self.config.supervisor is not None
                    or self.config.worker_faults is not None
                ):
                    self.supervisor = Supervisor(self, self.config.supervisor)
                    self.supervisor.start()
                self.metrics.pool_size.set(self.config.workers)
        return True

    def stop(self) -> None:
        """Drain nothing, reject the queued remainder, stop the workers.

        Every later :meth:`submit` — a result-cache hit too — raises
        :class:`AdmissionRejected`, booked as a refusal."""
        with self._lifecycle:
            if self._stopped:
                return
            self._stopped = True
            if self.supervisor is not None:
                # Stop the watchdog first so it cannot redeliver into the
                # queue we are about to close.
                self.supervisor.stop()
            for entry in self._queue.close():
                self._settle(
                    AdmissionRejected("service stopped before the request ran"),
                    entry,
                    kind="rejected",
                )
            if self._pool is not None:
                self._pool.join()
                # Workers that died mid-flight (and were not recovered
                # before the supervisor stopped) may leave taken entries
                # unsettled; a stop must never leave a ticket hanging.
                for entry in self._queue.unsettled():
                    self._settle("SHUTDOWN", entry)
                self._pool = None
            if self.supervisor is not None:
                self.supervisor.join(timeout=2.0)

    def drain(self, timeout: float = 30.0) -> int:
        """Gracefully drain: seal intake, let in-flight work finish, stop.

        New submissions, result-cache hits included, are rejected (typed
        :class:`AdmissionRejected`, booked as refusals) while queued and
        in-flight requests run to completion — supervisor
        redelivery still lands, so a worker dying mid-drain does not lose
        its entries.  After ``timeout`` seconds whatever is still queued or
        running is settled with typed errors by :meth:`stop`.  Returns the
        number of *stranded* requests (0 = a perfectly clean drain).
        """
        self._draining = True
        self._queue.seal()
        # The queue holds every admitted entry until it settles — queued,
        # taken by a live worker, or taken by a dead one the watchdog has
        # yet to recover — so its pending count is exact.
        deadline = time.monotonic() + timeout
        while self._queue.pending and time.monotonic() < deadline:
            time.sleep(0.005)
        stranded = self._queue.pending
        self.metrics.incr("stranded", stranded)
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
        service stopped — a result-cache hit is refused alike), each booked
        as ``submitted`` and ``rejected`` with one ``request.rejected``
        flight event; :class:`CircuitOpenError` when the request's
        ``(graph, plan)`` signature has an open circuit,
        :class:`PoisonedRequestError` when an identical request was
        quarantined, and :class:`ReproError` for an unknown graph or
        engine.
        """
        t_submit = time.monotonic()
        prepared = self._prepare(request)
        rid = next(self._ids)
        graph_id = request.graph_id
        try:
            if self._stopped or self._draining:
                self._refused(rid, graph_id, None)
                raise AdmissionRejected(
                    "service is stopped"
                    if self._stopped
                    else "service is draining; intake sealed"
                )
            # One read of the version, without _graphs_lock (DESIGN §7).
            slot = self._graphs.get(graph_id)
            version = slot.version if slot is not None else self.graph_version(graph_id)
            if self.supervisor is not None:
                self._screen(prepared)
        except BaseException:
            self.metrics.incr("submitted")  # refused, but it was submitted
            raise

        # Fast path: an exact repeat of a cached result answers immediately,
        # without touching the admission queue (no entry, no per-entry lock)
        # and settles in one pass from its span's start time.
        key = prepared.result_key(version)
        cached = self.result_cache.get(key) if key is not None else None
        if cached is not None:
            response = prepared.hit(rid, version, cached)
            self._settle(
                response,
                prepared=prepared,
                submitted_at=t_submit,
                start_ms=time.time() * 1000.0,
            )
            return MatchTicket(rid, response)  # born settled: nobody to wake

        self.metrics.incr("submitted")
        ticket = MatchTicket(rid)
        trace = TraceContext.mint(
            request_id=rid,
            graph=graph_id,
            engine=prepared.engine,
            query=prepared.query_name,
        )
        if not self._start():
            self._refused(rid, graph_id, trace.trace_id)
            raise AdmissionRejected("service is stopped")
        deadline_at = None
        if request.deadline_ms is not None:
            deadline_at = t_submit + request.deadline_ms / 1000.0
        entry = QueueEntry(
            request=prepared,
            ticket=ticket,
            request_id=rid,
            priority=request.priority,
            batch_key=prepared.batch_key,
            submitted_at=t_submit,
            deadline_ms=request.deadline_ms,
            deadline_at=deadline_at,
            trace=trace,
        )
        try:
            self._queue.offer(entry)
        except AdmissionRejected:
            self._refused(rid, graph_id, trace.trace_id)
            raise
        self.flight.record(
            "request.admitted",
            request_id=rid,
            graph=graph_id,
            query=prepared.query_name,
            trace_id=trace.trace_id,
        )
        self.metrics.queue_depth.set(self._queue.depth)
        return ticket

    def _refused(self, rid: int, graph_id: str, trace_id: Optional[str]) -> None:
        """Book a submission the service turned away (its ``submitted`` is
        booked by the caller): one ``rejected``, one ``request.rejected``
        flight event."""
        self.metrics.incr("rejected")
        self.flight.record(
            "request.rejected", request_id=rid, graph=graph_id, trace_id=trace_id
        )

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

    def _screen(self, prepared: _PreparedRequest) -> None:
        """The supervisor's admission checks: quarantine, then breaker."""
        try:
            self.supervisor.quarantine.check(prepared.fingerprint)
        except PoisonedRequestError:
            self.metrics.incr("poisoned_rejected")
            self.metrics.incr("rejected")
            raise
        try:
            self.supervisor.breaker.check(prepared.signature)
        except CircuitOpenError:
            self.metrics.incr("breaker_rejected")
            self.metrics.incr("rejected")
            raise

    def _prepare(self, request: MatchRequest) -> _PreparedRequest:
        """The request's shape: built once, kept among the newest
        :data:`PLAN_CACHE_SIZE`.  A query object or config counts by
        identity; the shape holds both, so no id is reused while it lives."""
        query, config = request.query, request.config or self.config.match_config
        shape = (request.graph_id, query if isinstance(query, str) else id(query),
                 request.engine, id(config), request.use_result_cache,
                 request.collect_matches)
        prepared = self._shapes.get(shape)
        if prepared is not None:
            return prepared
        if not is_engine(request.engine):
            raise UnsupportedError(
                f"unknown engine {request.engine!r}; available: "
                f"{', '.join(available_engines())}"
            )
        if isinstance(query, str):
            query = get_pattern(query)
        plan_query = query.query if isinstance(query, MatchingPlan) else query
        prepared = _PreparedRequest(
            request.graph_id, request.engine, request.collect_matches,
            query=query,
            query_name=plan_query.name,
            config=config,
            plan_fp=plan_fingerprint(query),
            config_fp=config_fingerprint(config),
            cache_results=(
                self.config.enable_result_cache and request.use_result_cache
            ),
        )
        with self._shapes_lock:
            while len(self._shapes) >= PLAN_CACHE_SIZE:
                del self._shapes[next(iter(self._shapes))]
            self._shapes[shape] = prepared
        return prepared

    def _settle(
        self,
        outcome: Union[MatchResponse, str, AdmissionRejected],
        entry: Optional[QueueEntry] = None,
        span=None,
        kind: Optional[str] = None,
        *,
        prepared: Optional[_PreparedRequest] = None,
        submitted_at: float = 0.0,
        start_ms: float = 0.0,
    ) -> bool:
        """The one ending of every request — exactly once, one set of books.

        ``outcome`` is the response, the marker of an error response (built
        here, ``graph_version=None``), or the typed rejection of an admitted
        request, whose ``kind`` is ``"shed"`` or ``"rejected"``.  ``span``
        is the delivery's open ``serve.request`` span.  Only a result-cache
        hit in :meth:`submit` has no ``entry``: it names ``prepared``,
        ``submitted_at`` and its span's ``start_ms`` itself and takes one
        pass — no claim, no marker, no flight event; its span is recorded
        closed from ``start_ms`` and its ticket is born settled.  Returns
        False when somebody else already settled the entry (a zombie worker
        racing its replacement); the loser's outcome is dropped, uncounted.
        The order below is fixed, and the ticket wakes last: a caller woken
        by ``query()`` finds the books closed (and any breach-triggered
        incident dump started).
        """
        if entry is not None:
            if not entry.claim_settle():
                return False
            prepared, submitted_at = entry.request, entry.submitted_at
        total_ms = (time.monotonic() - submitted_at) * 1000.0
        response = marker = None
        if isinstance(outcome, str):
            response = prepared.response(entry.request_id, None, error=outcome)
        elif kind is None:
            response = outcome
        try:
            if response is not None:
                response.total_ms = total_ms
                if entry is not None:
                    response.redeliveries = entry.redeliveries
                marker = response.error
                if marker is not None:
                    kind = "error"
            # A hit settles inside submit: its submission joins its books.
            self.metrics.settle(total_ms, response, kind, submitted=entry is None)
            if self.slo_tracker is not None:
                self.slo_tracker.tick()  # burns; a breach may dump
            if kind is not None:
                self.flight.record(
                    f"request.{kind}",
                    request_id=entry.request_id,
                    marker=marker,
                    priority=entry.priority,
                    redeliveries=entry.redeliveries,
                    trace_id=getattr(entry.trace, "trace_id", None),
                )
            if span is not None:
                span.close(**({"error": marker} if marker is not None else {}))
            elif entry is None:
                self.tracer.record_root(
                    "serve.request",
                    start_ms,
                    request_id=response.request_id,
                    cache="hit",
                )
            sup = self.supervisor
            if sup is not None and not sup.stopped and response is not None:
                if marker is None and not response.deadline_missed:
                    sup.breaker.record_success(prepared.signature)
                elif marker is None or marker.split()[0] not in _BREAKER_NEUTRAL:
                    sup.breaker.record_failure(prepared.signature)
        finally:
            if entry is not None:
                self._queue.release(entry)
            if response is None:
                entry.ticket._fail(outcome)
            elif entry is not None:
                entry.ticket._complete(response)
        return True

    def _shed(self, entry: QueueEntry) -> None:
        """Admission-queue callback: a queued request was displaced."""
        self._settle(
            AdmissionRejected(
                f"request {entry.request_id} shed under overload "
                f"(priority {entry.priority})"
            ),
            entry,
            kind="shed",
        )

    # ------------------------------------------------------------------ #
    # Operational observability
    # ------------------------------------------------------------------ #

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
        snap = self.snapshot()
        bundle = make_incident(
            reason=reason,
            recorder=self.flight,
            tracer=self.tracer,
            metrics=snap,
            slos=snap["slos"],
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

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def cache_stats(self) -> dict:
        return {
            "plan_cache": self.plan_cache.stats().to_dict(),
            "result_cache": self.result_cache.stats().to_dict(),
        }

    def snapshot(self) -> dict:
        """The one JSON view of the service: metrics, caches, graphs,
        supervisor state, SLO status, flight-event counts, per-shard
        utilization — what :func:`repro.obs.console.render_top` prints and
        an incident bundle carries."""
        snap = self.metrics.snapshot()
        snap.update(self.cache_stats())
        snap["workers"] = self.config.workers
        snap["draining"] = self._draining
        if self.supervisor is not None:
            snap["resilience"] = self.supervisor.snapshot()
        tracker = self.slo_tracker
        snap["slos"] = [s.to_dict() for s in tracker.evaluate()] if tracker else []
        snap["alerts"] = tracker.active_alerts() if tracker else []
        snap["flight"] = self.flight.counts()
        snap["shard_util"] = shard_utilization(self.tracer.spans(name="shard.run"))
        return snap

"""Worker pool: drains the admission queue in micro-batches.

Each :class:`Worker` is a thread that builds one engine per delivery —
engines are cheap to construct but carry per-run mutable state (the
resilient retry driver swaps ``engine.config`` during degradation), so
they are never shared across threads — from the request's config and one
:class:`~repro.core.RunContext` (the deadline-fitted retry policy, the
supervisor's checkpoint cadence and hook, the service's shard faults).
A worker takes one request, then at once every queued request with the
same ``(graph_id, engine, config)`` batch key (up to :data:`MAX_BATCH`);
the batch shares one graph resolution before enumeration fans out per
request.  It never waits for a batch to grow: the one build a batch could
share, the graph's directed-edge array, is memoized on the graph, so a
request that arrives later costs no more on its own.

Deadlines are enforced here: a request whose deadline expired while
queued is canceled with a typed ``"DEADLINE"`` response (never started),
and a request running short on budget executes under the trimmed retry
ladder from :func:`repro.faults.deadline_policy` — one device attempt,
then straight to the serial CPU fallback — so expiry degrades cleanly
instead of crashing or hogging the worker.

Supervision hooks (see :mod:`repro.serve.resilience`): every worker
heartbeats, takes its entries from the admission queue in its own name,
and settles each entry through the entry's settle-once claim — so when a
worker dies or wedges mid-batch, the supervisor asks the queue exactly
which entries that worker took and has not settled, redelivers them, and
a late "zombie" completion can never double-respond.  An injected
:class:`~repro.faults.WorkerCrash` (the worker-kill chaos axis) is
deliberately *not* caught by the batch error handler: it kills the worker
thread, leaving its taken entries unsettled for the watchdog to recover —
exactly like a real worker death would.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Optional

from repro.core.config import RunContext
from repro.core.engine import make_engine
from repro.errors import ReproError, UnsupportedError
from repro.faults.plan import apply_rungs
from repro.faults.recovery import deadline_policy
from repro.faults.workers import WorkerCrash
from repro.obs.ops import ops_tracer
from repro.planner.feedback import PlanFeedback
from repro.query.plan import MatchingPlan
from repro.serve.batcher import QueueEntry

logger = logging.getLogger(__name__)

#: How long an idle worker blocks on the admission queue before it
#: heartbeats and checks for abandonment / a closed queue again.
POLL_INTERVAL_S = 0.05

#: Micro-batch size cap: queued requests one worker takes together.
MAX_BATCH = 16


class WorkerPool:
    """Fixed pool of daemon worker threads attached to one service.

    Slots are stable: when the supervisor replaces a dead worker, the
    replacement takes the dead worker's slot (and index), so the pool
    always presents ``num_workers`` serving positions.
    """

    def __init__(self, service, num_workers: int) -> None:
        self.service = service
        self.workers = [Worker(service, i) for i in range(num_workers)]

    def start(self) -> None:
        for w in self.workers:
            w.start()

    def replace(self, slot: int) -> "Worker":
        """Respawn a replacement worker into ``slot`` and start it.

        Started *before* it is published into the slot, so a concurrent
        ``join()`` (service shutdown racing the watchdog) never observes
        an unstarted thread.
        """
        old = self.workers[slot]
        replacement = Worker(self.service, old.index)
        replacement.start()
        self.workers[slot] = replacement
        return replacement

    def join(self, timeout: Optional[float] = 30.0) -> list:
        """Join every worker; returns the workers that did NOT stop in time.

        Each unjoined worker is logged, marked abandoned (so it exits at
        its next loop check instead of serving more work), and every
        unsettled entry it took is settled with a typed ``"STRANDED"``
        error — a stop must never leave a caller blocked on a ticket
        forever.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        unjoined: list = []
        for w in self.workers:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                w.join(remaining)
            except RuntimeError:
                continue  # replacement mid-spawn; it has nothing in flight
            if w.is_alive():
                unjoined.append(w)
        for w in unjoined:
            w.abandoned = True
            stranded = self.service._queue.unsettled(w)
            logger.warning(
                "serve: worker %s did not join within %.1fs; "
                "abandoning it with %d unsettled entr%s",
                w.name,
                timeout if timeout is not None else float("inf"),
                len(stranded),
                "y" if len(stranded) == 1 else "ies",
            )
            for entry in stranded:
                if self.service._settle("STRANDED", entry):
                    self.service.metrics.incr("stranded")
        return unjoined


class Worker(threading.Thread):
    """One serving thread; builds its engines, never shares them."""

    def __init__(self, service, index: int) -> None:
        super().__init__(name=f"repro-serve-worker-{index}", daemon=True)
        self.service = service
        self.index = index
        # --- supervision state -------------------------------------- #
        self.heartbeat = time.monotonic()
        self.started = False
        """The thread body actually began (distinguishes a dead worker
        from one whose ``start()`` has not scheduled it yet)."""
        self.exited = False
        """Clean exit (queue closed / abandoned) — not a crash."""
        self.abandoned = False
        """Set by the supervisor (wedged) or ``join`` (unjoinable): the
        worker must stop serving; its entries were redelivered/settled."""

    def beat(self) -> None:
        self.heartbeat = time.monotonic()

    def run(self) -> None:
        self.started = True
        self.beat()
        try:
            self._loop()
        except Exception:
            # A worker death (an injected WorkerCrash or anything else):
            # its taken entries stay unsettled in the queue for the
            # watchdog, which reports it.
            return
        self.exited = True

    def _loop(self) -> None:
        queue = self.service._queue
        while not self.abandoned:
            self.beat()
            if not self._next_batch(queue) and queue.closed:
                return

    def _next_batch(self, queue) -> bool:
        """Take one micro-batch in this worker's name and settle it; False
        when nothing was queued.  The batch dies with this frame, so a
        settled entry (and its checkpoint) is freed once the queue lets go
        of it, not when the next batch arrives."""
        entry = queue.take(self, timeout=POLL_INTERVAL_S)
        if entry is None:
            return False
        batch = [entry, *queue.take_matching(self, entry.batch_key, MAX_BATCH - 1)]
        try:
            self._process_batch(batch)
        except WorkerCrash:
            # Die with the batch still taken in this worker's name — that
            # is what the watchdog recovers and redelivers.
            raise
        except Exception as exc:  # the worker must survive anything
            for e in batch:
                self.service._settle(f"ERR ({type(exc).__name__})", e)
        self.service.metrics.queue_depth.set(queue.depth)
        return True

    # ------------------------------------------------------------------ #

    def _process_batch(self, batch: list[QueueEntry]) -> None:
        service = self.service
        service.metrics.batch_size.observe(len(batch))
        graph_id = batch[0].request.graph_id
        try:
            graph, version = service.resolve_graph(graph_id)
        except ReproError:
            for e in batch:
                service._settle("UNKNOWN_GRAPH", e)
            return
        # Shared candidate build: one directed-edge-array materialization
        # serves every request of the batch (memoized on the graph).
        graph.directed_edge_array()
        for e in batch:
            self._process_one(e, graph, version, len(batch))

    def _process_one(
        self, entry: QueueEntry, graph, version: int, batch_size: int
    ) -> None:
        # The worker's serve.request span uses the root context minted at
        # admission *as* its identity (so engine/shard children parent to
        # it); redelivery reuses the same root, stitching the crashed and
        # resumed attempts into one trace.  Settling closes it with the
        # response's marker; a crashed delivery or a lost settle race
        # closes it here, tagged ``error=``.
        with ops_tracer(entry.trace).span(
            "serve.request",
            ctx=entry.trace,
            worker=self.index,
            request_id=entry.request_id,
            delivery=entry.redeliveries,
        ) as span:
            # Per-entry isolation: one request blowing up (or being injected
            # with a WorkerCrash mid-batch) must not leave a *sibling* entry
            # unresolved — each entry settles inside its own try, and a
            # crash leaves only the genuinely-unfinished entries taken
            # for the supervisor.
            try:
                self._serve(entry, graph, version, batch_size, span)
            except WorkerCrash:
                raise
            except Exception as exc:
                self.service._settle(f"ERR ({type(exc).__name__})", entry, span)
            span.close(error="SETTLED_ELSEWHERE")

    def _serve(
        self, entry: QueueEntry, graph, version: int, batch_size: int, span
    ) -> None:
        service = self.service
        metrics = service.metrics
        sup = service.supervisor
        prepared = entry.request
        self.beat()
        now = time.monotonic()
        queue_ms = (now - entry.submitted_at) * 1000.0
        metrics.queue_ms.observe(queue_ms)

        base = prepared.response(
            entry.request_id, version, queue_ms=queue_ms, batch_size=batch_size
        )

        # Deadline expired while queued: cancel cleanly, typed, no run.
        if entry.deadline_at is not None and now >= entry.deadline_at:
            metrics.incr("deadline_expired")
            base.error = "DEADLINE"
            base.degraded = True
            service._settle(base, entry, span)
            return

        rkey = prepared.result_key(version)
        cached = service.result_cache.get(rkey) if rkey is not None else None
        if cached is not None:
            base.result = cached
            base.result_cache_hit = True
            service._settle(base, entry, span)
            return

        config = prepared.config
        trace = entry.trace
        if trace is not None and config.trace_context is None:
            # Thread the request's identity into the engine config BEFORE
            # the engine is built: the shard coordinator (and, pickled
            # inside the config, shard worker processes) stamp their spans
            # with this child, so the whole fan-out stitches to the request.
            config = config.replace(trace_context=trace.child(stage="run"))
        retry = None
        if entry.deadline_at is not None:
            remaining_ms = (entry.deadline_at - time.monotonic()) * 1000.0
            retry, rungs = deadline_policy(remaining_ms, entry.deadline_ms)
            if rungs:
                config = apply_rungs(config, rungs)
                base.degraded = True

        # Supervised checkpointing: install the supervisor's hook so the
        # scheduler pauses every N events, snapshots the frontier, and (in
        # chaos runs) consults the worker-fault plan.  Collect-matches runs
        # are excluded — enumeration state is not part of the snapshot.
        checkpointing = (
            sup is not None
            and not sup.stopped
            and sup.checkpointing
            and not prepared.collect_matches
        )
        ctx = RunContext(
            retry=retry,
            shard_faults=service.config.shard_faults,
            checkpoint_every_events=(
                sup.config.checkpoint_every_events if checkpointing else 0
            ),
            checkpoint_hook=(
                sup.checkpoint_hook_for(entry, self) if checkpointing else None
            ),
        )
        engine = make_engine(prepared.engine, config, ctx)
        supports_resume = bool(getattr(engine, "supports_resume", False))

        planned = (
            getattr(engine.config, "planner", None) is not None
            and hasattr(engine, "plan_portfolio")
        )
        plan, compile_ms, plan_hit, ran = self._resolve_plan(
            engine, prepared, prepared.plan_key(version, planned), graph, planned
        )
        base.compile_ms = compile_ms
        base.plan_cache_hit = plan_hit
        # Checkpoint/resume: a redelivered entry carrying a checkpoint is
        # resumed from the saved frontier instead of restarted — the base
        # count plus the re-executed remainder equals the uninterrupted
        # total exactly.
        checkpoint = entry.checkpoint
        if not supports_resume or prepared.collect_matches:
            checkpoint = None
        result = self._run_engine(entry, engine, graph, plan, checkpoint, base)
        if result is not None:
            if ran is not None:
                feedback, choice = ran
                cycles, failed = result.elapsed_cycles, result.error is not None
                metrics.incr("planner_feedback")
                if feedback.record(choice, cycles, error=failed):
                    metrics.incr("plan_reranks")
                if not failed and cycles > 0:
                    # The estimator's error on this run, not on the mean.
                    metrics.plan_error.observe(abs(choice.est_cycles - cycles) / cycles)
            if checkpoint is None:
                if (
                    entry.deadline_at is not None
                    and time.monotonic() > entry.deadline_at
                ):
                    base.deadline_missed = True
                    metrics.incr("deadline_missed")
                # A deadline-degraded run used a config other than the one
                # ``rkey`` fingerprints: it answers this request only.
                if result.error is None and rkey is not None and not base.degraded:
                    service.result_cache.put(rkey, result)
        span.tags["resumed"] = base.resumed
        service._settle(base, entry, span)

    def _run_engine(self, entry: QueueEntry, engine, graph, plan, checkpoint, base):
        """Run (or, given a ``checkpoint``, resume) one request's match.

        Fills ``base`` with the timing, the result and its typed error, and
        records the ``engine.run`` / ``engine.resume`` span and any
        shard-failure flight event.  Returns the result, or ``None`` when
        the engine raised (``base.error`` then says why).
        """
        prepared = entry.request
        metrics = self.service.metrics
        if checkpoint is not None:
            metrics.incr("resumed")
            metrics.checkpoint_age_ms.observe(
                (time.monotonic() - checkpoint.taken_at) * 1000.0
            )
        t0 = time.monotonic()
        with ops_tracer(entry.trace).span(
            "engine.resume" if checkpoint is not None else "engine.run",
            parent=entry.trace,
            engine=prepared.engine,
        ) as span:
            try:
                if checkpoint is not None:
                    result = engine.run_resume(
                        graph, plan, checkpoint.groups, base_count=checkpoint.count
                    )
                else:
                    result = engine.run(
                        graph, plan, collect_matches=prepared.collect_matches
                    )
            except UnsupportedError:
                base.error = span.tags["error"] = "N/A"
                return None
            except ReproError as exc:
                base.error = span.tags["error"] = f"ERR ({type(exc).__name__})"
                return None
            finally:
                base.run_ms = (time.monotonic() - t0) * 1000.0
            span.tags["count"] = result.count
        base.result = result
        base.error = result.error
        base.resumed = checkpoint is not None
        self._flight_shard_failures(entry, result)
        return result

    # ------------------------------------------------------------------ #

    def _resolve_plan(self, engine, prepared, key: tuple, graph, planned: bool):
        """Plan for the request: precompiled > cached > freshly compiled,
        and ``(entry, choice)`` when a planner chose it (else ``None``).

        Compilation goes through ``engine.compile`` so engines that pin
        their own plan flags (EGSM disables symmetry breaking, STMatch
        disables reuse) cache exactly the plan they would have built.

        When ``planned`` (``config.planner`` set and a planner-capable
        engine; ``key`` was built with it), the plan-cache entry is a
        :class:`~repro.planner.PlanFeedback` — the cost-ranked portfolio
        and the runs observed on it — and every request runs the member it
        prefers now, so a re-rank takes effect on the very next request.
        """
        service = self.service
        if isinstance(prepared.query, MatchingPlan):
            return prepared.query, 0.0, False, None
        cache = service.plan_cache if service.config.enable_plan_cache else None
        entry = cache.get(key) if cache is not None else None
        hit = entry is not None
        compile_ms = 0.0
        if not hit:
            t0 = time.monotonic()
            if planned:
                entry = PlanFeedback(engine.plan_portfolio(graph, prepared.query))
            else:
                entry = engine.compile(prepared.query, graph)
            compile_ms = (time.monotonic() - t0) * 1000.0
            service.metrics.incr("plan_compiles")
            if cache is not None:
                cache.put(key, entry)
        if not planned:
            return entry, compile_ms, hit, None
        choice = entry.preferred()
        return choice.plan, compile_ms, hit, (entry, choice)

    def _flight_shard_failures(self, entry: QueueEntry, result) -> None:
        """Record a shard-process death (recovered by re-execution) as a
        fault-kind flight event — the count survived, the process didn't."""
        metrics = result.metrics
        failures = metrics.get("shard.process_failures", 0)
        if failures:
            self.service.flight.record(
                "shard.failure",
                request_id=entry.request_id,
                failures=int(failures),
                rows_reexecuted=int(metrics.get("shard.rows_reexecuted", 0)),
                trace_id=getattr(entry.trace, "trace_id", None),
            )

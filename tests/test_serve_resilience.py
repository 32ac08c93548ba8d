"""Tests for supervised serving (:mod:`repro.serve.resilience`).

Covers the circuit breaker's open/half-open schedule under a fake clock,
the poison quarantine, settle-exactly-once claiming, and end-to-end chaos:
workers killed or wedged mid-match with every request settling and every
resumed count bit-equal to the fault-free baseline.

``REPRO_FAULT_SEED`` (default 0) reseeds the random chaos components so CI
can sweep multiple fault interleavings over the same assertions.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import TDFSConfig, get_pattern, match
from repro.errors import ReproError
from repro.faults import WorkerFaultKind, WorkerFaultPlan, WorkerFaultSpec
from repro.obs.console import render_top
from repro.serve import (
    AdmissionRejected,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    MatchRequest,
    MatchService,
    PoisonedRequestError,
    Quarantine,
    QueueEntry,
    ServeConfig,
    SupervisorConfig,
    plan_fingerprint,
    resilience,
)

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

SIG = ("g", "planfp")


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


def make_breaker(**overrides) -> tuple[CircuitBreaker, FakeClock]:
    clock = FakeClock()
    defaults = dict(
        threshold=3,
        window_s=30.0,
        open_s=1.0,
        max_open_s=30.0,
        jitter=0.2,
        seed=SEED,
        clock=clock,
    )
    defaults.update(overrides)
    return CircuitBreaker(**defaults), clock


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        events = []
        b, _ = make_breaker(on_transition=lambda *e: events.append(e))
        b.record_failure(SIG)
        b.record_failure(SIG)
        assert b.state(SIG) is BreakerState.CLOSED
        b.check(SIG)  # still admitting
        b.record_failure(SIG)
        assert b.state(SIG) is BreakerState.OPEN
        assert events == [(SIG, BreakerState.CLOSED, BreakerState.OPEN)]

    def test_open_rejects_until_backoff_elapses(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record_failure(SIG)
        with pytest.raises(CircuitOpenError) as exc:
            b.check(SIG)
        assert exc.value.signature == SIG
        assert 0.0 < exc.value.retry_after_s <= 1.2  # jitter <= 20%
        clock.advance(exc.value.retry_after_s)
        b.check(SIG)  # the backoff elapsed: admitted as the probe
        assert b.state(SIG) is BreakerState.HALF_OPEN

    def test_half_open_admits_single_probe(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record_failure(SIG)
        clock.advance(1.3)  # past base 1.0s even at +20% jitter
        b.check(SIG)  # the probe: no raise, transitions to HALF_OPEN
        assert b.state(SIG) is BreakerState.HALF_OPEN
        with pytest.raises(CircuitOpenError, match="probe already in flight"):
            b.check(SIG)
        b.record_success(SIG)
        assert b.state(SIG) is BreakerState.CLOSED
        b.check(SIG)  # closed again: admits freely

    def test_probe_failure_reopens_with_doubled_backoff(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record_failure(SIG)
        first = b._breakers[SIG].open_for_s
        clock.advance(1.3)
        b.check(SIG)
        b.record_failure(SIG)  # probe failed
        assert b.state(SIG) is BreakerState.OPEN
        second = b._breakers[SIG].open_for_s
        # Base doubles 1.0 -> 2.0; +-20% jitter cannot mask a 2x step.
        assert second > first
        assert second >= 2.0 * 0.8

    def test_backoff_caps_at_max_open_s(self):
        b, clock = make_breaker(jitter=0.0, max_open_s=4.0)
        for _ in range(3):
            b.record_failure(SIG)
        for _ in range(6):  # keep failing every probe: 1, 2, 4, 4, ...
            clock.advance(b._breakers[SIG].open_for_s + 0.01)
            b.check(SIG)
            b.record_failure(SIG)
        assert b._breakers[SIG].open_for_s == 4.0

    def test_jittered_backoff_is_seed_deterministic(self):
        b1, _ = make_breaker(seed=1)
        b2, _ = make_breaker(seed=1)
        b3, _ = make_breaker(seed=2)
        vals1 = [b1._jittered_open_s(SIG, k) for k in (1, 2, 3)]
        vals2 = [b2._jittered_open_s(SIG, k) for k in (1, 2, 3)]
        vals3 = [b3._jittered_open_s(SIG, k) for k in (1, 2, 3)]
        assert vals1 == vals2
        assert vals1 != vals3
        for k, v in zip((1, 2, 3), vals1):
            base = min(30.0, 1.0 * 2 ** (k - 1))
            assert base * 0.8 <= v <= base * 1.2

    def test_straggler_success_does_not_close_open_circuit(self):
        b, _ = make_breaker()
        for _ in range(3):
            b.record_failure(SIG)
        b.record_success(SIG)  # a redelivered entry finishing late
        assert b.state(SIG) is BreakerState.OPEN

    def test_signatures_are_independent(self):
        b, _ = make_breaker()
        other = ("g", "otherfp")
        for _ in range(3):
            b.record_failure(SIG)
        assert b.state(SIG) is BreakerState.OPEN
        assert b.state(other) is BreakerState.CLOSED
        b.check(other)
        assert b.open_count() == 1

    def test_transition_callback_may_reenter_breaker(self):
        """Regression: callbacks read gauges (open_count) and must not
        deadlock against the breaker's own lock."""
        events = []

        def on_transition(sig, old, new):
            events.append((sig, old, new, b.open_count()))

        clock = FakeClock()
        b = CircuitBreaker(
            threshold=1, open_s=1.0, jitter=0.0, clock=clock,
            on_transition=on_transition,
        )
        t = threading.Thread(target=lambda: b.record_failure(SIG), daemon=True)
        t.start()
        t.join(5.0)
        assert not t.is_alive(), "breaker deadlocked in on_transition"
        assert events == [(SIG, BreakerState.CLOSED, BreakerState.OPEN, 1)]


class TestQuarantine:
    FP = ("g", "planfp", "tdfs", "cfgfp")

    def test_poison_then_reject(self):
        q = Quarantine()
        q.check(self.FP)  # unknown: no raise
        q.poison(self.FP, "POISONED (worker-crash x3)", request_id=7)
        with pytest.raises(PoisonedRequestError) as exc:
            q.check(self.FP)
        assert exc.value.fingerprint == self.FP
        assert "worker-crash" in exc.value.failure
        assert exc.value.request_id == 7
        assert len(q) == 1
        assert q.entries() == {
            "g/planfp/tdfs/cfgfp": {
                "failure": "POISONED (worker-crash x3)", "request_id": 7,
            }
        }

    def test_capacity_evicts_oldest(self):
        q = Quarantine(capacity=2)
        fps = [("g", f"p{i}", "tdfs", "c") for i in range(3)]
        for i, fp in enumerate(fps):
            q.poison(fp, "POISONED", request_id=i)
        q.check(fps[0])  # evicted: admitted again
        with pytest.raises(PoisonedRequestError):
            q.check(fps[2])
        assert len(q) == 2


class TestClaimSettle:
    @staticmethod
    def make_entry() -> QueueEntry:
        return QueueEntry(
            request=None, ticket=None, request_id=1, priority=0,
            batch_key="k", submitted_at=0.0,
        )

    def test_single_winner(self):
        e = self.make_entry()
        assert not e.settled
        assert e.claim_settle()
        assert e.settled
        assert not e.claim_settle()

    def test_racing_claims_have_one_winner(self):
        e = self.make_entry()
        wins = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            if e.claim_settle():
                wins.append(1)

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1


# --------------------------------------------------------------------------- #
# End-to-end chaos
# --------------------------------------------------------------------------- #


def make_supervised(
    fast_config,
    plan: WorkerFaultPlan,
    *,
    workers: int = 2,
    checkpoint_every_events: int = 30,
    heartbeat_timeout_s: float = 0.4,
) -> MatchService:
    sup = SupervisorConfig(
        watchdog_interval_s=0.02,
        heartbeat_timeout_s=heartbeat_timeout_s,
        checkpoint_every_events=checkpoint_every_events,
        seed=SEED,
    )
    return MatchService(ServeConfig(
        workers=workers,
        enable_result_cache=False,
        match_config=fast_config,
        supervisor=sup,
        worker_faults=plan,
    ))


def submit_uncached(svc, pattern: str, **kwargs):
    return svc.submit(MatchRequest(
        graph_id="g", query=pattern, use_result_cache=False, **kwargs
    ))


class TestRecoveryBookkeeping:
    def test_books_are_closed_before_an_entry_is_reoffered(self):
        """Regression: ``_recover`` counted the restart only after the
        re-offer and ``redeliver`` counted after ``offer``, so a sibling
        worker could settle the entry — and wake a caller who then read
        stale counters — first.  A queue whose ``offer`` looks at the books
        synchronously makes that ordering deterministic."""
        from types import SimpleNamespace

        from repro.obs.ops import FlightRecorder
        from repro.serve.batcher import AdmissionQueue
        from repro.serve.metrics import ServeMetrics
        from repro.serve.resilience import Supervisor

        seen = {}

        class BookReadingQueue(AdmissionQueue):
            def offer(self, entry, force=False):
                if entry.redeliveries:
                    seen.update(
                        supervisor_restarts=service.metrics.get(
                            "supervisor_restarts"
                        ),
                        redeliveries=service.metrics.get("redeliveries"),
                        flight=service.flight.counts(),
                        pending=self.pending,
                    )
                super().offer(entry, force)

        entry = QueueEntry(
            request=SimpleNamespace(signature=("g", "p")),
            ticket=None, request_id=7, priority=0, batch_key="k",
            submitted_at=0.0,
        )
        dead = SimpleNamespace(index=0, is_alive=lambda: False)
        queue = BookReadingQueue()
        queue.offer(entry)
        assert queue.take(dead) is entry  # the worker died holding it
        pool = SimpleNamespace(workers=[dead], replace=lambda slot: None)
        service = SimpleNamespace(
            config=SimpleNamespace(worker_faults=None),
            metrics=ServeMetrics(),
            flight=FlightRecorder(),
            _queue=queue,
            _pool=pool,
        )
        sup = Supervisor(service)
        sup._recover(pool, 0, dead, "worker-crash")
        assert seen["supervisor_restarts"] == 1
        assert seen["redeliveries"] == 1
        assert seen["flight"]["worker.crash"] == 1
        assert seen["flight"]["redelivery"] == 1
        assert seen["pending"] == 1
        assert entry.redeliveries == 1
        assert queue.unsettled(dead) == []
        assert queue.take(object()) is entry  # queued again, for anyone

    def test_one_death_charges_each_lost_signature_once(self):
        """Regression: ``redeliver`` charged the breaker once per lost
        entry, so one worker death holding a batch of six requests of one
        query left six failures and opened that query's circuit (threshold
        3).  It is one failure per signature per recovery."""
        from types import SimpleNamespace

        from repro.obs.ops import FlightRecorder
        from repro.serve.batcher import AdmissionQueue
        from repro.serve.metrics import ServeMetrics
        from repro.serve.resilience import Supervisor

        sig = ("g", "p")
        queue = AdmissionQueue()
        dead = SimpleNamespace(index=0, is_alive=lambda: False)
        for request_id in range(6):
            queue.offer(QueueEntry(
                request=SimpleNamespace(signature=sig), ticket=None,
                request_id=request_id, priority=0, batch_key="k",
                submitted_at=0.0,
            ))
        assert len(queue.take_matching(dead, "k", 16)) == 6  # one batch
        pool = SimpleNamespace(workers=[dead], replace=lambda slot: None)
        service = SimpleNamespace(
            config=SimpleNamespace(worker_faults=None),
            metrics=ServeMetrics(),
            flight=FlightRecorder(),
            _queue=queue,
            _pool=pool,
        )
        sup = Supervisor(service)
        sup._recover(pool, 0, dead, "worker-crash")
        assert service.metrics.get("redeliveries") == 6
        assert len(sup.breaker._breakers[sig].failures) == 1
        assert sup.breaker.state(sig) is BreakerState.CLOSED


class TestCheckpointLifetime:
    def test_no_checkpoint_outlives_its_settled_request(
        self, small_plc, fast_config, monkeypatch
    ):
        """Regression: the supervisor kept every request's latest
        checkpoint in a store keyed by request id that nothing cleared on
        settle.  A checkpoint now lives on its queue entry and is freed
        with it — while the service keeps running."""
        import gc
        import weakref

        taken = []

        class Tracked(resilience.MatchCheckpoint):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                taken.append(weakref.ref(self))

        monkeypatch.setattr(resilience, "MatchCheckpoint", Tracked)
        with make_supervised(fast_config, WorkerFaultPlan()) as svc:
            svc.register_graph("g", small_plc)
            tickets = [
                submit_uncached(svc, p) for p in ("P1", "P2", "P3") * 4
            ]
            assert all(t.result(timeout=60.0).ok for t in tickets)
            # A woken caller may run before the worker leaves its batch.
            deadline = time.monotonic() + 5.0
            while True:
                gc.collect()
                alive = [ref for ref in taken if ref() is not None]
                if not alive or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert len(taken) >= len(tickets)
            assert alive == [], f"{len(alive)} of {len(taken)} kept"
            assert svc._queue.pending == 0


class TestKillResume:
    def test_kill_mid_match_resumes_to_exact_count(self, small_plc, fast_config):
        baseline = match(small_plc, "P1", config=fast_config).count
        plan = WorkerFaultPlan(schedule=(
            WorkerFaultSpec(WorkerFaultKind.KILL, request_id=1, at_checkpoint=2),
        ))
        with make_supervised(fast_config, plan) as svc:
            svc.tracer.clear()  # the ring is process-wide
            svc.register_graph("g", small_plc)
            resp = submit_uncached(svc, "P1").result(timeout=60.0)
            assert resp.ok, resp.error
            assert resp.count == baseline
            assert resp.resumed
            assert resp.redeliveries == 1
            m = svc.metrics
            assert m.get("worker_crashes") == 1
            assert m.get("supervisor_restarts") == 1
            assert m.get("redeliveries") == 1
            assert m.get("resumed") == 1
            snap = svc.snapshot()
            assert snap["counters"]["supervisor_restarts"] == 1
            assert snap["counters"]["checkpoints"] >= 1
            # Regression: the killed delivery's serve.request span used to
            # stay open forever (a phantom in-flight request in every later
            # incident bundle).  Once the ticket is settled nothing is in
            # flight, and the crashed delivery is a *finished* span, tagged
            # with its error, in the same trace as the resumed one.
            svc.drain()
            assert svc.tracer.active_spans() == []
            killed, resumed = sorted(
                (s for s in svc.tracer.spans() if s["name"] == "serve.request"),
                key=lambda s: s["tags"]["delivery"],
            )
            assert killed["tags"]["error"] == "WorkerCrash"
            assert resumed["tags"] == {
                "worker": resumed["tags"]["worker"], "request_id": 1,
                "delivery": 1, "resumed": True,
            }
            assert killed["trace_id"] == resumed["trace_id"]

    def test_stall_mid_match_is_abandoned_and_redelivered(
        self, small_plc, fast_config
    ):
        baseline = match(small_plc, "P1", config=fast_config).count
        plan = WorkerFaultPlan(schedule=(
            WorkerFaultSpec(
                WorkerFaultKind.STALL, request_id=1, at_checkpoint=2,
                stall_s=1.2,
            ),
        ))
        with make_supervised(fast_config, plan, heartbeat_timeout_s=0.3) as svc:
            svc.register_graph("g", small_plc)
            resp = submit_uncached(svc, "P1").result(timeout=60.0)
            assert resp.ok, resp.error
            assert resp.count == baseline
            assert resp.redeliveries == 1
            assert svc.metrics.get("worker_stalls") == 1

    def test_resumed_count_equals_uninterrupted_across_patterns(
        self, small_plc, fast_config
    ):
        """Kill at a later checkpoint on a different pattern."""
        baseline = match(small_plc, "P2", config=fast_config).count
        plan = WorkerFaultPlan(schedule=(
            WorkerFaultSpec(WorkerFaultKind.KILL, request_id=1, at_checkpoint=4),
        ))
        with make_supervised(fast_config, plan) as svc:
            svc.register_graph("g", small_plc)
            resp = submit_uncached(svc, "P2").result(timeout=60.0)
            assert resp.ok, resp.error
            assert resp.count == baseline
            assert resp.resumed


class TestQuarantineE2E:
    def test_redelivery_exhaustion_poisons_and_rejects_repeats(
        self, small_plc, fast_config, monkeypatch
    ):
        # Kill every delivery: budget of 1 redelivery is exhausted fast.
        monkeypatch.setattr(resilience, "MAX_REDELIVERIES", 1)
        plan = WorkerFaultPlan(schedule=(
            WorkerFaultSpec(
                WorkerFaultKind.KILL, request_id=1, at_checkpoint=1,
                delivery=None,
            ),
        ))
        with make_supervised(fast_config, plan) as svc:
            svc.register_graph("g", small_plc)
            resp = submit_uncached(svc, "P1").result(timeout=60.0)
            assert resp.error is not None
            assert resp.error.startswith("POISONED")
            assert "worker-crash" in resp.error
            with pytest.raises(PoisonedRequestError):
                submit_uncached(svc, "P1")
            m = svc.metrics
            assert m.get("quarantined") == 1
            assert m.get("poisoned_rejected") == 1
            assert len(svc.supervisor.quarantine) == 1
            # A different pattern is a different fingerprint: unaffected.
            ok = submit_uncached(svc, "P3").result(timeout=60.0)
            assert ok.ok, ok.error

    def test_breaker_opens_under_repeated_kills(
        self, small_plc, fast_config, monkeypatch
    ):
        monkeypatch.setattr(resilience, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(resilience, "BREAKER_OPEN_S", 30.0)
        monkeypatch.setattr(resilience, "MAX_REDELIVERIES", 3)
        plan = WorkerFaultPlan(schedule=(
            WorkerFaultSpec(
                WorkerFaultKind.KILL, request_id=1, at_checkpoint=1,
                delivery=None,
            ),
        ))
        with make_supervised(fast_config, plan) as svc:
            svc.register_graph("g", small_plc)
            resp = submit_uncached(svc, "P1").result(timeout=60.0)
            assert resp.error is not None and resp.error.startswith("POISONED")
            assert svc.metrics.get("breaker_opens") >= 1
            # Same (graph, plan) signature, different config fingerprint:
            # clears quarantine but hits the open breaker at submit.
            with pytest.raises(CircuitOpenError):
                svc.submit(MatchRequest(
                    graph_id="g", query="P1", use_result_cache=False,
                    config=fast_config.replace(num_warps=4),
                ))
            assert svc.metrics.get("breaker_rejected") == 1


class TestSeededChaos:
    def test_all_requests_settle_with_exact_counts(self, small_plc, fast_config):
        patterns = ["P1", "P2", "P3"]
        baselines = {
            p: match(small_plc, p, config=fast_config).count for p in patterns
        }
        # Random kills/stalls hit only the first delivery, so every
        # request must settle OK and every count must equal the
        # fault-free baseline bit-for-bit.
        plan = WorkerFaultPlan(
            seed=SEED, kill_rate=0.4, stall_rate=0.1, stall_s=1.0
        )
        n = 9
        with make_supervised(fast_config, plan) as svc:
            svc.register_graph("g", small_plc)
            tickets = [
                (patterns[i % len(patterns)],
                 submit_uncached(svc, patterns[i % len(patterns)]))
                for i in range(n)
            ]
            responses = [(p, t.result(timeout=120.0)) for p, t in tickets]
            m = svc.metrics
            assert m.get("submitted") == n
            assert m.get("completed") == n
            assert m.get("quarantined") == 0
            assert m.get("stranded") == 0
            crashes = m.get("worker_crashes")
            stalls = m.get("worker_stalls")
            assert m.get("supervisor_restarts") == crashes + stalls
        for p, resp in responses:
            assert resp.ok, f"{p}: {resp.error}"
            assert resp.count == baselines[p], p

    def test_chaos_metrics_render(self, small_plc, fast_config):
        plan = WorkerFaultPlan(schedule=(
            WorkerFaultSpec(WorkerFaultKind.KILL, request_id=1, at_checkpoint=1),
        ))
        with make_supervised(fast_config, plan) as svc:
            svc.register_graph("g", small_plc)
            submit_uncached(svc, "P1").result(timeout=60.0)
            text = render_top(svc.snapshot())
        assert "supervision" in text
        assert "breakers" in text
        assert "quarantine" in text
        assert "checkpoints" in text


class TestDrain:
    def test_drain_settles_everything(self, small_plc, fast_config):
        plan = WorkerFaultPlan()  # unarmed: pure drain semantics
        with make_supervised(fast_config, plan) as svc:
            svc.register_graph("g", small_plc)
            tickets = [submit_uncached(svc, "P1") for _ in range(4)]
            stranded = svc.drain(timeout=60.0)
            assert stranded == 0
            assert all(t.done() for t in tickets)
            assert not svc.running
            with pytest.raises(ReproError):  # stopped (or sealed) service
                submit_uncached(svc, "P1")

    def test_sealed_queue_still_accepts_redelivery(self, small_plc, fast_config):
        """A drain that races a crash must not lose the in-flight entry."""
        plan = WorkerFaultPlan(schedule=(
            WorkerFaultSpec(WorkerFaultKind.KILL, request_id=1, at_checkpoint=2),
        ))
        with make_supervised(fast_config, plan) as svc:
            svc.register_graph("g", small_plc)
            ticket = submit_uncached(svc, "P1")
            stranded = svc.drain(timeout=60.0)
            assert stranded == 0
            resp = ticket.result(timeout=1.0)
            assert resp.ok, resp.error


class TestStranded:
    def test_unjoinable_worker_settles_inflight_as_stranded(
        self, small_plc, fast_config
    ):
        # Wedge the worker well past the join timeout, with a heartbeat
        # timeout too long for the watchdog to rescue it first.
        plan = WorkerFaultPlan(schedule=(
            WorkerFaultSpec(
                WorkerFaultKind.STALL, request_id=1, at_checkpoint=1,
                stall_s=2.0,
            ),
        ))
        with make_supervised(
            fast_config, plan, workers=1, heartbeat_timeout_s=30.0
        ) as svc:
            svc.register_graph("g", small_plc)
            ticket = submit_uncached(svc, "P1")
            deadline = time.monotonic() + 10.0
            while (
                svc.metrics.get("checkpoints") == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)  # wait for the worker to enter the stall
            unjoined = svc._pool.join(timeout=0.2)
            assert len(unjoined) == 1
            assert unjoined[0].abandoned
            resp = ticket.result(timeout=1.0)
            assert resp.error == "STRANDED"
            assert svc.metrics.get("stranded") == 1


class TestMidBatchIsolation:
    def test_sibling_entries_survive_a_mid_batch_crash(
        self, small_plc, fast_config, monkeypatch, start_later
    ):
        """Regression: an exception processing one batch entry must not
        strand its siblings — each settles exactly once."""
        from repro.serve.workers import Worker

        original = Worker._serve

        def exploding(self, entry, *args):
            if entry.request_id == 1:
                raise RuntimeError("boom mid-batch")
            return original(self, entry, *args)

        monkeypatch.setattr(Worker, "_serve", exploding)
        baseline = match(small_plc, "P1", config=fast_config).count
        svc = MatchService(ServeConfig(
            workers=1, enable_result_cache=False, match_config=fast_config,
        ))
        svc.register_graph("g", small_plc)
        t1 = submit_uncached(svc, "P1")
        t2 = submit_uncached(svc, "P1")  # same batch key: rides along
        start_later(svc)
        try:
            r1 = t1.result(timeout=60.0)
            r2 = t2.result(timeout=60.0)
        finally:
            svc.stop()
        assert r1.error == "ERR (RuntimeError)"
        assert r2.ok, r2.error
        assert r2.count == baseline
        assert svc.metrics.get("completed") == 2

    def test_escaped_exception_closes_the_request_span(
        self, small_plc, fast_config, monkeypatch
    ):
        """An exception escaping the request body settles the entry inside
        its serve.request span, which closes with the response's marker."""
        from repro.serve.workers import Worker

        def exploding(self, *args):
            raise RuntimeError("boom in the engine")

        monkeypatch.setattr(Worker, "_run_engine", exploding)
        with MatchService(ServeConfig(
            workers=1, enable_result_cache=False, match_config=fast_config,
        )) as svc:
            svc.tracer.clear()  # the ring is process-wide
            svc.register_graph("g", small_plc)
            resp = submit_uncached(svc, "P1").result(timeout=60.0)
            assert resp.error == "ERR (RuntimeError)"
            svc.drain()
            assert svc.tracer.active_spans() == []
            (span,) = [
                s for s in svc.tracer.spans() if s["name"] == "serve.request"
            ]
            assert span["tags"]["error"] == resp.error

    @pytest.mark.parametrize("exc_type", [ReproError, ValueError])
    def test_the_same_failure_keeps_one_set_of_books(
        self, small_plc, fast_config, monkeypatch, exc_type
    ):
        """Regression: a ``ReproError`` out of ``engine.run`` (caught, a
        typed response) and any other exception (escaping the request body)
        used to end in two places that kept different books — breaker
        charged or not, latency observed or not, a ``request.error`` flight
        event or none, the span tagged with the marker or the bare type
        name.  One ``_settle``: the same ending for the same outcome."""
        from repro.core.engine import TDFSEngine

        def boom(self, *args, **kwargs):
            raise exc_type("boom")

        monkeypatch.setattr(TDFSEngine, "run", boom)
        monkeypatch.setattr(resilience, "BREAKER_THRESHOLD", 1)
        with MatchService(ServeConfig(
            workers=1, enable_result_cache=False, match_config=fast_config,
            supervisor=SupervisorConfig(seed=SEED),
        )) as svc:
            svc.tracer.clear()  # the ring is process-wide
            svc.register_graph("g", small_plc)
            resp = svc.query("g", "P1", timeout=60.0)
            assert resp.error == f"ERR ({exc_type.__name__})"
            signature = ("g", plan_fingerprint(get_pattern("P1")))
            assert svc.supervisor.breaker.state(signature) is BreakerState.OPEN
            m = svc.metrics
            assert m.get("completed") == m.get("errors") == 1
            assert m.latency_ms.count == m.get("completed")
            assert len(m.outcomes) == 1
            (event,) = svc.flight.events(kind="request.error")
            assert event["marker"] == resp.error
            svc.drain()
            assert svc.tracer.active_spans() == []
            (span,) = [
                s for s in svc.tracer.spans() if s["name"] == "serve.request"
            ]
            assert span["tags"]["error"] == resp.error

"""End-to-end tests for the serving layer (:mod:`repro.serve`)."""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro import TDFSConfig, available_engines, get_pattern, match
from repro.dynamic import DeltaBatch, DeltaError
from repro.errors import ReproError, UnsupportedError
from repro.gpusim.costmodel import DEFAULT_COST_MODEL
from repro.obs.ops import ops_tracer
from repro.query.pattern import QueryGraph
from repro.serve import (
    AdmissionRejected,
    BreakerState,
    CircuitOpenError,
    MatchRequest,
    MatchService,
    PoisonedRequestError,
    ServeConfig,
    SupervisorConfig,
    config_fingerprint,
    plan_fingerprint,
    resilience,
)
from repro.serve import service as service_module
from repro.serve.batcher import AdmissionQueue, QueueEntry
from repro.serve.service import PLAN_CACHE_SIZE
from tests.fuzz import delta_stream_cases


@pytest.fixture
def serve_config(fast_config):
    return ServeConfig(workers=1, match_config=fast_config)


def make_service(**overrides) -> MatchService:
    defaults = dict(workers=1, match_config=TDFSConfig(num_warps=8))
    defaults.update(overrides)
    return MatchService(ServeConfig(**defaults))


class TestGraphRegistry:
    def test_register_and_version(self, k4):
        svc = make_service()
        assert svc.register_graph("g", k4) == 1
        assert svc.graph_version("g") == 1
        assert svc.graph("g") is k4

    def test_double_register_rejected(self, k4):
        svc = make_service()
        svc.register_graph("g", k4)
        with pytest.raises(ReproError, match="already registered"):
            svc.register_graph("g", k4)

    def test_unknown_graph_submit(self, k4):
        svc = make_service()
        with pytest.raises(ReproError, match="unknown graph"):
            svc.submit(MatchRequest(graph_id="nope", query="P1"))

    def test_unknown_engine_submit(self, k4):
        svc = make_service()
        svc.register_graph("g", k4)
        with pytest.raises(UnsupportedError, match="available:"):
            svc.submit(MatchRequest(graph_id="g", query="P1", engine="cuda"))


class TestQueryPath:
    def test_counts_match_one_shot(self, k4, small_plc, fast_config):
        with make_service() as svc:
            svc.register_graph("k4", k4)
            svc.register_graph("plc", small_plc)
            for gid, graph in (("k4", k4), ("plc", small_plc)):
                for p in ("P1", "P2"):
                    expected = match(graph, p, config=fast_config).count
                    assert svc.query(gid, p).count == expected

    def test_repeat_query_hits_result_cache(self, small_plc):
        with make_service() as svc:
            svc.register_graph("g", small_plc)
            cold = svc.query("g", "P1")
            warm = svc.query("g", "P1")
        assert not cold.result_cache_hit
        assert warm.result_cache_hit
        assert warm.count == cold.count
        assert svc.metrics.get("result_cache_hits") == 1

    def test_cache_invalidation_on_version_bump(self, k4, fast_config):
        """An edge update must bump the version and flip the served count."""
        with make_service() as svc:
            svc.register_graph("g", k4)
            before = svc.query("g", "P2").count  # K4 = one 4-clique
            assert before == match(k4, "P2", config=fast_config).count
            assert svc.query("g", "P2").result_cache_hit

            assert svc.apply_edges("g", add=[(0, 4), (1, 4), (2, 4), (3, 4)]) == 2
            after = svc.query("g", "P2")
            assert not after.result_cache_hit
            assert after.graph_version == 2
            expected = match(
                svc.graph("g"), "P2", config=fast_config
            ).count
            assert after.count == expected
            assert after.count != before

    def test_apply_edges_remove(self, k4, fast_config):
        with make_service() as svc:
            svc.register_graph("g", k4)
            svc.apply_edges("g", remove=[(0, 1)])
            got = svc.query("g", "P1").count
            expected = match(
                svc.graph("g"), "P1", config=fast_config
            ).count
            assert got == expected

    def test_per_request_config_override(self, small_plc, fast_config):
        with make_service() as svc:
            svc.register_graph("g", small_plc)
            base = svc.query("g", "P1")
            other = svc.query(
                "g", "P1", config=fast_config.replace(num_warps=4)
            )
        # Different config fingerprint: not a cache hit, same count.
        assert not other.result_cache_hit
        assert other.count == base.count

    def test_cost_models_never_alias_in_the_result_cache(self, small_plc):
        """The cost model sets virtual time, so it is part of the result
        key: a request under a 50x ``chunk_fetch`` model must not be served
        the default model's ``elapsed_cycles`` (it used to be)."""
        slow_cost = dataclasses.replace(
            DEFAULT_COST_MODEL, chunk_fetch=DEFAULT_COST_MODEL.chunk_fetch * 50
        )
        configs = [TDFSConfig(num_warps=8), TDFSConfig(num_warps=8, cost=slow_cost)]
        with make_service() as svc:
            svc.register_graph("g", small_plc)
            served = [
                svc.submit(MatchRequest("g", "P1", config=c)).result(60)
                for c in configs
            ]
        bare = [match(small_plc, "P1", config=c) for c in configs]
        assert [r.result_cache_hit for r in served] == [False, False]
        assert [r.result.elapsed_cycles for r in served] == [
            b.elapsed_cycles for b in bare
        ]
        assert bare[0].elapsed_cycles != bare[1].elapsed_cycles
        assert {r.count for r in served} == {bare[0].count}

    def test_run_context_never_reaches_a_cache_key(self, small_plc):
        """How a delivery runs (kill list, checkpoint cadence and hook) is
        context, not config: the same request lands on the same plan and
        result keys whatever context the worker built for it."""
        config = TDFSConfig(num_warps=8, shards=2)
        wiring = dict(
            shard_faults=(0,),
            supervisor=SupervisorConfig(checkpoint_every_events=50),
        )
        keys = []
        for extra in ({}, wiring):
            with make_service(match_config=config, **extra) as svc:
                svc.register_graph("g", small_plc)
                assert svc.query("g", "P1", timeout=120.0).ok
                keys.append(
                    [k for cache in (svc.plan_cache, svc.result_cache)
                     for k, _ in cache.items()]
                )
        assert keys[0] == keys[1] and len(keys[0]) == 2

    @pytest.mark.parametrize("engine", available_engines())
    def test_collect_matches_on_every_engine(self, engine, small_plc):
        """``collect_matches`` is honoured — or refused with the typed
        ``"N/A"`` — by every registry engine; never silently dropped."""
        want = match(small_plc, "P1").count_embeddings
        reference = TDFSConfig(num_warps=8, enable_symmetry=False)
        with make_service(match_config=reference) as svc:
            svc.register_graph("g", small_plc)
            few = svc.submit(
                MatchRequest("g", "P1", engine=engine, collect_matches=3)
            ).result(60)
            every = svc.submit(
                MatchRequest("g", "P1", engine=engine, collect_matches=want)
            ).result(60)
            tdfs = svc.submit(
                MatchRequest("g", "P1", collect_matches=want)
            ).result(60)
        if engine == "pbe":
            assert few.error == every.error == "N/A"
            assert few.result is None
            return
        assert few.error is None and len(few.result.matches) == 3
        query = get_pattern("P1")
        for emb in few.result.matches:
            assert len(set(emb)) == query.num_vertices
            assert all(small_plc.has_edge(emb[a], emb[b]) for a, b in query.edges())
        assert sorted(every.result.matches) == sorted(tdfs.result.matches)

    def test_plan_cache_shared_across_patterns(self, small_plc):
        with make_service(enable_result_cache=False) as svc:
            svc.register_graph("g", small_plc)
            svc.query("g", "P1")
            first = svc.plan_cache.stats()
            svc.query("g", "P1")
            second = svc.plan_cache.stats()
        assert first.misses == 1 and first.hits == 0
        assert second.hits == 1
        assert svc.metrics.get("plan_compiles") == 1

    def test_plans_survive_a_version_bump_without_a_planner(self, small_plc):
        # New rule (it used to be "a version bump empties the plan cache"):
        # without a planner a plan depends on no graph, so neither an edge
        # delta nor a wholesale replacement recompiles it — and one plan
        # serves a second graph too.
        with make_service() as svc:
            svc.register_graph("g", small_plc)
            assert not svc.query("g", "P1").plan_cache_hit
            svc.apply_edges("g", add=[(0, small_plc.num_vertices)])
            after_delta = svc.query("g", "P1")
            svc.update_graph("g", small_plc)
            after_update = svc.query("g", "P1")
            svc.register_graph("h", small_plc)
            other_graph = svc.query("h", "P1")
            for resp in (after_delta, after_update, other_graph):
                assert resp.plan_cache_hit and not resp.result_cache_hit
                assert resp.compile_ms == 0.0
            assert after_update.count == other_graph.count
            assert svc.metrics.get("plan_compiles") == 1
            assert len(svc.plan_cache) == 1

    def test_unsupported_engine_combo_is_typed(self, labeled_plc):
        # PBE cannot run labeled queries -> "N/A" response, not a crash.
        with make_service() as svc:
            svc.register_graph("g", labeled_plc)
            resp = svc.query("g", "P12", engine="pbe")
        assert resp.error == "N/A"
        assert not resp.ok

    def test_stop_rejects_queued_and_new(self, k4, start_later):
        svc = make_service()
        svc.register_graph("g", k4)
        ticket = svc.submit(MatchRequest(graph_id="g", query="P1"))
        svc.stop()
        with pytest.raises(AdmissionRejected):
            ticket.result(timeout=5.0)
        with pytest.raises(AdmissionRejected):
            svc.submit(MatchRequest(graph_id="g", query="P1"))

    def test_stop_rejections_are_on_the_books(self, k4, start_later):
        """Regression: ``stop()`` bumped ``rejected`` before winning the
        settle claim and recorded neither an SLO outcome nor a flight
        event, unlike a shed request with the same typed error."""
        svc = make_service()
        svc.register_graph("g", k4)
        tickets = [
            svc.submit(MatchRequest(graph_id="g", query="P1")) for _ in range(3)
        ]
        # A zombie's late response settles the first entry before the stop.
        assert svc._queue._items[0].claim_settle()
        svc.stop()
        assert not tickets[0].done()
        for ticket in tickets[1:]:
            with pytest.raises(AdmissionRejected, match="service stopped"):
                ticket.result(timeout=5.0)
        assert svc.metrics.get("rejected") == 2
        assert len(svc.metrics.outcomes) == 2
        rejected = svc.flight.events(kind="request.rejected")
        assert [e["request_id"] for e in rejected] == [2, 3]

    @staticmethod
    def assert_refusals_booked(svc, ids, admitted):
        """Refused submissions are booked as a sealed queue books them:
        submitted and rejected, one ``request.rejected`` event each, and no
        answer, latency or outcome."""
        m = svc.metrics
        assert m.get("submitted") == admitted + len(ids)
        assert m.get("rejected") == len(ids)
        assert m.get("completed") == m.latency_ms.count == len(m.outcomes) == admitted
        assert m.get("result_cache_hits") == 0
        rejected = svc.flight.events(kind="request.rejected")
        assert [e["request_id"] for e in rejected] == ids

    def test_stopped_service_refuses_hits_and_misses(self, k4):
        """Regression: after ``stop()`` a hit was answered from the cache and
        a miss raised an untyped ``ReproError`` from ``start()``."""
        svc = make_service()
        svc.register_graph("g", k4)
        with svc:
            svc.query("g", "P1")
        for query in ("P1", "P2"):  # a hit, then a miss
            with pytest.raises(AdmissionRejected, match="service is stopped"):
                svc.submit(MatchRequest(graph_id="g", query=query))
        self.assert_refusals_booked(svc, [2, 3], admitted=1)
        with pytest.raises(ReproError, match="was stopped"):
            svc.start()

    def test_draining_service_refuses_hits_and_misses(self, k4, monkeypatch):
        """Regression: during ``drain()`` a hit was answered while a miss
        was refused.  A held miss keeps the drain waiting while both are
        submitted."""
        from repro.core.engine import TDFSEngine

        armed, release = threading.Event(), threading.Event()
        run = TDFSEngine.run

        def held(self, *args, **kwargs):
            if armed.is_set():
                release.wait(timeout=30.0)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(TDFSEngine, "run", held)
        svc = make_service()
        svc.register_graph("g", k4)
        with svc:
            svc.query("g", "P1")
            armed.set()
            ticket = svc.submit(MatchRequest(graph_id="g", query="P2"))
            stranded: list = []
            drainer = threading.Thread(target=lambda: stranded.append(svc.drain()))
            drainer.start()
            give_up = time.monotonic() + 30.0
            while not svc._draining and time.monotonic() < give_up:
                time.sleep(0.001)
            try:
                for query in ("P1", "P3"):  # a hit, then a miss
                    with pytest.raises(AdmissionRejected, match="draining"):
                        svc.submit(MatchRequest(graph_id="g", query=query))
            finally:
                release.set()
                drainer.join(timeout=30.0)
        assert not drainer.is_alive() and stranded == [0]
        assert ticket.result(timeout=0).count == match(k4, "P2").count
        self.assert_refusals_booked(svc, [3, 4], admitted=2)


class TestHitPath:
    """A result-cache hit skips the queue, not the contract: the same
    admission checks, span, counters and ticket behaviour as a miss."""

    @staticmethod
    def warm_supervised(graph, monkeypatch):
        monkeypatch.setattr(resilience, "BREAKER_JITTER", 0.0)
        svc = make_service(supervisor=SupervisorConfig())
        svc.register_graph("g", graph)
        assert not svc.query("g", "P1").result_cache_hit
        return svc, MatchRequest(graph_id="g", query="P1")

    @staticmethod
    def signature(svc, request):
        from repro.query.patterns import get_pattern

        return ("g", plan_fingerprint(get_pattern(request.query)))

    def test_hit_is_rejected_like_a_miss(self, small_plc, monkeypatch):
        miss = MatchRequest(graph_id="g", query="P1", use_result_cache=False)
        svc, hit = self.warm_supervised(small_plc, monkeypatch)
        with svc:
            sig = self.signature(svc, hit)
            poisoned = (*sig, "tdfs", config_fingerprint(svc.config.match_config))
            svc.supervisor.quarantine.poison(poisoned, "boom", request_id=1)
            for n, request in enumerate((hit, miss), start=1):
                with pytest.raises(PoisonedRequestError):
                    svc.submit(request)
                assert svc.metrics.get("poisoned_rejected") == n
            assert svc.metrics.get("rejected") == 2
            assert svc.metrics.get("result_cache_hits") == 0

        # A fresh service, so no quarantine stands before its breaker.
        svc, hit = self.warm_supervised(small_plc, monkeypatch)
        with svc:
            sig = self.signature(svc, hit)
            for _ in range(svc.supervisor.breaker.threshold):
                svc.supervisor.breaker.record_failure(sig)
            for n, request in enumerate((hit, miss), start=1):
                with pytest.raises(CircuitOpenError):
                    svc.submit(request)
                assert svc.metrics.get("breaker_rejected") == n
            assert svc.metrics.get("rejected") == 2
            assert svc.metrics.get("result_cache_hits") == 0

    def test_hit_closes_a_half_open_breaker(self, small_plc, monkeypatch):
        svc, request = self.warm_supervised(small_plc, monkeypatch)
        with svc:
            breaker = svc.supervisor.breaker
            now = [0.0]
            breaker.clock = lambda: now[0]
            sig = self.signature(svc, request)
            for _ in range(breaker.threshold):
                breaker.record_failure(sig)
            assert breaker.state(sig) is BreakerState.OPEN
            now[0] += breaker.open_s + 0.001  # backoff over: next is the probe
            assert svc.submit(request).result(timeout=0).result_cache_hit
            assert breaker.state(sig) is BreakerState.CLOSED

    def test_hit_span_counters_and_ticket(self, small_plc):
        with make_service() as svc:
            svc.register_graph("g", small_plc)
            request = MatchRequest(graph_id="g", query="P1")
            cold = svc.submit(request).result(timeout=30.0)
            svc.submit(request)  # an earlier hit, to tell trace ids apart
            tracer = ops_tracer()
            tracer.clear()
            m = svc.metrics
            watched = ("submitted", "completed", "result_cache_hits")
            before = {name: m.get(name) for name in watched}
            latencies, outcomes = m.latency_ms.count, len(m.outcomes)

            ticket = svc.submit(request)

            # (e) settled on return: nothing to wait for.
            assert ticket.done()
            response = ticket.result(timeout=0)
            assert response.result_cache_hit and response.count == cold.count
            assert response.graph_version == 1
            # (d) each instrument moved by exactly one.
            assert {n: m.get(n) - before[n] for n in watched} == dict.fromkeys(
                watched, 1
            )
            assert m.latency_ms.count == latencies + 1
            assert len(m.outcomes) == outcomes + 1
            # (c) one closed serve.request span, tagged, under a fresh trace.
            svc.submit(request)
            spans = [s for s in tracer.spans() if s["name"] == "serve.request"]
            assert [s["tags"]["cache"] for s in spans] == ["hit", "hit"]
            assert spans[0]["tags"]["request_id"] == response.request_id
            assert spans[0]["trace_id"] != spans[1]["trace_id"]
            assert not [
                s for s in tracer.active_spans() if s["name"] == "serve.request"
            ]

    def test_hits_and_misses_keep_the_same_books(self, k4):
        n_hits, n_misses = 40, 6
        tracer = ops_tracer()
        tracer.clear()
        spans_before = tracer.counts.get("serve.request", 0)
        hit = MatchRequest(graph_id="g", query="P1")
        miss = MatchRequest(graph_id="g", query="P1", use_result_cache=False)
        with make_service() as svc:
            svc.register_graph("g", k4)
            responses = [svc.submit(hit).result(timeout=30.0)]  # fills the cache
            for i in range(n_hits):
                responses.append(svc.submit(hit).result(timeout=30.0))
                if i % 8 == 0:
                    responses.append(svc.submit(miss).result(timeout=30.0))
        assert sum(r.result_cache_hit for r in responses) == n_hits
        assert len(responses) == n_hits + n_misses
        m = svc.metrics
        assert m.get("submitted") == m.get("completed") == n_hits + n_misses
        assert m.get("result_cache_hits") == n_hits
        assert m.latency_ms.count == m.get("completed") == len(m.outcomes)
        requests = tracer.counts["serve.request"] - spans_before
        assert requests == n_hits + n_misses
        assert tracer.active_spans() == []
        spans = [s for s in tracer.spans() if s["name"] == "serve.request"]
        hits = [s for s in spans if s["tags"].get("cache") == "hit"]
        assert len(hits) == n_hits
        assert len({s["trace_id"] for s in hits}) == n_hits
        assert {s["tags"]["request_id"] for s in hits} == {
            r.request_id for r in responses if r.result_cache_hit
        }

    def test_a_fixed_script_keeps_its_books(self, k4, monkeypatch):
        """Hits, misses and one hit refused by an open breaker: the books
        each instrument keeps, pinned, and every hit's span read back as
        the dict a tracer used to build eagerly, under a trace of its own."""
        from tests.test_obs import _eager_host_span

        svc, _ = self.warm_supervised(k4, monkeypatch)  # request 1: a P1 miss
        tracer = ops_tracer()
        tracer.clear()
        count, total = tracer.counts["serve.request"], tracer.totals["serve.request"]
        with svc:
            script = ("P1", "P2", "P1", "P2", "P2", "P3", "P3")
            hits = [svc.query("g", q).result_cache_hit for q in script]
            assert not svc.query("g", "P1", use_result_cache=False).result_cache_hit
            sig = self.signature(svc, MatchRequest(graph_id="g", query="P3"))
            for _ in range(svc.supervisor.breaker.threshold):
                svc.supervisor.breaker.record_failure(sig)
            with pytest.raises(CircuitOpenError):
                svc.submit(MatchRequest(graph_id="g", query="P3"))
            snap = svc.snapshot()
        assert hits == [True, False, True, True, True, False, True]
        counters = {k: v for k, v in snap["counters"].items() if v}
        assert counters == {
            "breaker_opens": 1, "breaker_rejected": 1,
            "completed": 9, "plan_compiles": 3, "rejected": 1,
            "result_cache_hits": 5, "submitted": 10,
        }
        assert snap["batch_size"]["count"] == 4
        m = svc.metrics
        assert m.latency_ms.count == len(m.outcomes) == 9
        assert svc.cache_stats() == {
            "plan_cache": {
                "capacity": 256, "evictions": 0, "hit_rate": 0.25, "hits": 1,
                "misses": 3, "size": 3,
            },
            "result_cache": {
                "capacity": 1024, "evictions": 0, "hit_rate": 0.4545, "hits": 5,
                "misses": 6, "size": 3,
            },
        }
        spans = tracer.spans(name="serve.request")
        assert tracer.counts["serve.request"] - count == len(spans) == 8
        dur = sum(s["dur_ms"] for s in spans)
        assert tracer.totals["serve.request"] - total == pytest.approx(dur, abs=1e-9)
        hit_spans = [s for s in spans if s["tags"].get("cache") == "hit"]
        assert len(hit_spans) == 5
        assert len({s["trace_id"] for s in hit_spans}) == 5
        for span in hit_spans:
            start = span["start_ms"]
            assert span == _eager_host_span(
                "serve.request", span["trace_id"], span["span_id"],
                start, start + span["dur_ms"], span["tags"],
            )
            assert list(span["tags"]) == ["request_id", "cache"]

    def test_threaded_hits_keep_exact_counters(self, k4):
        import sys

        clients, per_client = 4, 500
        tracer = ops_tracer()
        tracer.clear()
        spans_before = tracer.counts.get("serve.request", 0)
        total_before = tracer.totals.get("serve.request", 0)
        failures: list = []
        with make_service() as svc:
            svc.register_graph("g", k4)
            request = MatchRequest(graph_id="g", query="P1")
            svc.query("g", "P1")

            def client():
                try:
                    for _ in range(per_client):
                        assert svc.submit(request).result(timeout=0).result_cache_hit
                except BaseException as exc:  # surfaced below, not lost
                    failures.append(exc)

            threads = [threading.Thread(target=client) for _ in range(clients)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the books' updates
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
        assert failures == [] and not any(t.is_alive() for t in threads)
        hits = clients * per_client
        m = svc.metrics
        assert m.get("submitted") == m.get("completed") == hits + 1
        assert m.get("result_cache_hits") == hits
        assert m.latency_ms.count == len(m.outcomes) == hits + 1
        # Every request's span is counted and totalled once, hits and miss.
        spans = tracer.spans(name="serve.request")
        assert tracer.counts["serve.request"] - spans_before == len(spans) == hits + 1
        assert tracer.totals["serve.request"] - total_before == pytest.approx(
            sum(s["dur_ms"] for s in spans), abs=1e-6
        )

    def test_ticket_wakeup_is_never_lost(self):
        # The event a waiter sleeps on is allocated lazily, racing the
        # settle that must wake it: more threads than cores, a tiny switch
        # interval, and every waiter must still come back with its response.
        import sys
        import time

        from repro.serve import MatchResponse, MatchTicket, ResultTimeout

        tickets = [MatchTicket(i) for i in range(600)]
        entering = [False] * len(tickets)
        got: list = []
        lost: list = []
        give_up = time.monotonic() + 30.0

        def wait(chunk):
            for t in chunk:
                entering[t.request_id] = True
                try:
                    got.append(t.result(timeout=2.0).request_id)
                except ResultTimeout:
                    lost.append(t.request_id)

        def settle(chunk):
            for t in chunk:
                # Settle just as the waiter starts to wait.
                while not entering[t.request_id] and time.monotonic() < give_up:
                    pass
                t._complete(MatchResponse(t.request_id, "g", 1, "tdfs", "q"))

        threads = [
            threading.Thread(target=fn, args=(tickets[i::4],))
            for i in range(4)
            for fn in (wait, settle)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert lost == []
        assert sorted(got) == list(range(600))

    def test_unsettled_ticket_waits_and_times_out(self, k4, start_later):
        from repro.serve import ResultTimeout

        svc = make_service()  # nobody drains the queue
        svc.register_graph("g", k4)
        ticket = svc.submit(MatchRequest(graph_id="g", query="P1"))
        assert not ticket.done()
        with pytest.raises(ResultTimeout):
            ticket.result(timeout=0.01)
        waiter = threading.Thread(target=ticket.result, kwargs={"timeout": 30.0})
        waiter.start()
        start_later(svc)
        waiter.join(timeout=30.0)
        assert not waiter.is_alive() and ticket.done()
        assert ticket.result(timeout=0).count == match(k4, "P1").count
        svc.stop()


class TestRequestShapes:
    """A request shape is prepared once and shared by every request of it;
    a request's own fields stay its own."""

    def test_equal_requests_share_one_shape(self, k4, monkeypatch):
        builds = []
        real = service_module._PreparedRequest
        monkeypatch.setattr(
            service_module,
            "_PreparedRequest",
            lambda *args, **kw: builds.append(args[0]) or real(*args, **kw),
        )
        with make_service() as svc:
            svc.register_graph("g", k4)
            responses = [svc.query("g", "P1") for _ in range(5)]
            assert svc.match_delta("g", "P1", remove=[(0, 1)]).incremental
            assert svc.query("g", "P1").result_cache_hit  # the delta's count
        assert builds == ["g"]
        assert [r.result_cache_hit for r in responses] == [False, True, True, True, True]
        assert len({r.request_id for r in responses}) == 5

    def test_every_shape_field_keys_apart(self, k4):
        svc = make_service()
        svc.register_graph("g", k4)
        base = dict(graph_id="g", query="P1")
        config = svc.config.match_config
        variants = [
            MatchRequest(**base),
            MatchRequest(**base, config=dataclasses.replace(config, chunk_size=4)),
            MatchRequest(**base, collect_matches=5),
            MatchRequest(**base, use_result_cache=False),
            MatchRequest(**base, engine="stmatch"),
        ]
        shapes = [svc._prepare(r) for r in variants]
        assert len({id(p) for p in shapes}) == len(variants)
        keys = [p.result_key(1) for p in shapes]
        assert keys[3] is None  # the result cache is neither read nor written
        cached = [k for k in keys if k is not None]
        assert len(set(cached)) == len(cached) == 4
        # An equal config that is another object is another shape, same key.
        twin = svc._prepare(MatchRequest(**base, config=dataclasses.replace(config)))
        assert twin is not shapes[0] and twin.result_key(1) == keys[0]
        with svc:
            assert [svc.submit(r).result(timeout=30.0).result_cache_hit
                    for r in variants] == [False] * len(variants)
            assert [svc.submit(r).result(timeout=30.0).result_cache_hit
                    for r in variants] == [True, True, True, False, True]

    def test_fresh_queries_never_grow_the_memo_past_its_bound(self, k4):
        svc = make_service()
        svc.register_graph("g", k4)
        p1 = get_pattern("P1")
        queries = [
            QueryGraph(p1.num_vertices, p1.edges()) for _ in range(PLAN_CACHE_SIZE + 40)
        ]
        for n, query in enumerate(queries, start=1):
            svc._prepare(MatchRequest(graph_id="g", query=query))
            assert len(svc._shapes) == min(n, PLAN_CACHE_SIZE)
        kept = [p.query for p in svc._shapes.values()]
        assert kept == queries[-PLAN_CACHE_SIZE:]  # the newest, oldest first

    def test_hits_racing_version_bumps_answer_their_own_version(self, k4):
        import sys

        expected = {1: match(k4, "P1").count}
        expected[0] = match(k4.apply_delta(DeltaBatch.make(remove=[(0, 1)])), "P1").count
        assert expected[0] != expected[1]
        request = MatchRequest(graph_id="g", query="P1")
        wrong, failures, done = [], [], threading.Event()
        with make_service() as svc:
            svc.register_graph("g", k4)

            def client():
                seen = 1  # versions only grow, so a client's answers must too
                try:
                    while not done.is_set():
                        r = svc.submit(request).result(timeout=30.0)
                        if (
                            r.count != expected[r.graph_version % 2]
                            or r.graph_version < seen
                        ):
                            wrong.append((seen, r.graph_version, r.count))
                        seen = r.graph_version
                except BaseException as exc:  # surfaced below, not lost
                    failures.append(exc)

            threads = [threading.Thread(target=client) for _ in range(2)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for i in range(40):
                    change = {"add": [(0, 1)]} if i % 2 else {"remove": [(0, 1)]}
                    svc.apply_edges("g", **change)
                    time.sleep(0.002)
            finally:
                done.set()
                for t in threads:
                    t.join(timeout=60.0)
                sys.setswitchinterval(interval)
            hits = svc.metrics.get("result_cache_hits")
            last = [svc.query("g", "P1") for _ in range(2)]
        assert failures == [] and wrong == []
        assert not any(t.is_alive() for t in threads) and hits > 0
        assert last[1].result_cache_hit
        assert [(r.graph_version, r.count) for r in last] == [(41, expected[1])] * 2

    def test_a_hit_response_is_the_callers_own(self, k4):
        with make_service() as svc:
            svc.register_graph("g", k4)
            request = MatchRequest(graph_id="g", query="P1")
            svc.query("g", "P1")
            first = svc.submit(request).result(timeout=0)
            first.error, first.graph_version, first.result_cache_hit = "x", 99, False
            first.total_ms = -1.0
            second = svc.submit(request).result(timeout=0)
        assert second is not first
        assert (second.error, second.graph_version, second.result_cache_hit) == (
            None, 1, True
        )
        assert second.total_ms >= 0.0 and second.request_id == first.request_id + 1


class TestDynamicDeltas:
    def test_apply_edges_rejects_self_loop(self, k4):
        with make_service() as svc:
            svc.register_graph("g", k4)
            with pytest.raises(DeltaError, match="self-loop"):
                svc.apply_edges("g", add=[(1, 1)])
            # The rejected batch must not have touched the graph.
            assert svc.graph_version("g") == 1
            assert svc.graph("g") is k4

    def test_apply_edges_rejects_duplicate_add(self, k4):
        with make_service() as svc:
            svc.register_graph("g", k4)
            with pytest.raises(DeltaError, match="duplicate"):
                svc.apply_edges("g", add=[(0, 4), (4, 0)])
            assert svc.graph_version("g") == 1

    def test_match_delta_incremental_with_warm_cache(self, k4, fast_config):
        with make_service() as svc:
            svc.register_graph("g", k4)
            svc.query("g", "P1")  # caches the base count for version 1
            resp = svc.match_delta("g", "P1", remove=[(0, 1)])
        assert resp.incremental
        assert resp.fallback_reason is None
        assert resp.graph_version == 2
        assert resp.count == match(svc.graph("g"), "P1", config=fast_config).count
        assert resp.count == resp.base_count + resp.gained - resp.lost
        assert svc.metrics.get("delta_requests") == 1
        assert svc.metrics.get("delta_incremental") == 1

    def test_match_delta_fingerprints_the_callers_config(self, k4, monkeypatch):
        from repro.serve import cache

        digests = []
        real = cache._digest
        monkeypatch.setattr(
            cache, "_digest", lambda p: digests.append(p) or real(p)
        )
        with make_service() as svc:
            svc.register_graph("g", k4)
            svc.query("g", "P1")
            del digests[:]
            # Each call mints its own traced copy of the config; the memo
            # sits on the caller's object, so nothing is digested again.
            assert svc.match_delta("g", "P1", add=[(0, 4)]).incremental
            assert svc.match_delta("g", "P1", add=[(1, 4)]).incremental
            assert digests == []

    def test_match_delta_cold_cache_falls_back(self, k4, fast_config):
        with make_service() as svc:
            svc.register_graph("g", k4)
            resp = svc.match_delta("g", "P1", add=[(0, 4)])
        assert not resp.incremental
        assert resp.fallback_reason == "no-cached-base"
        assert resp.count == match(svc.graph("g"), "P1", config=fast_config).count
        assert svc.metrics.get("delta_fallbacks") == 1

    def test_cold_fallback_runs_what_the_caller_passed(self, small_plc, fast_config):
        # A precompiled plan keeps its order through the full re-match.
        from repro.core.engine import make_engine
        from repro.dynamic import DeltaBatch, IncrementalMatcher
        from repro.query.ordering import anchored_matching_order
        from repro.query.plan import compile_plan

        query = get_pattern("P3")
        plan = compile_plan(
            query, order=anchored_matching_order(query, *query.edges()[-1])
        )
        batch = DeltaBatch.make(add=[(0, small_plc.num_vertices)])
        successor = small_plc.apply_delta(batch)
        planned = make_engine("tdfs", fast_config).run(successor, plan)
        greedy = make_engine("tdfs", fast_config).run(successor, query)
        assert planned.count == greedy.count
        assert planned.elapsed_cycles != greedy.elapsed_cycles
        with make_service() as svc:
            svc.register_graph("g", small_plc)
            resp = svc.match_delta("g", plan, add=batch.add)
        assert resp.fallback_reason == "no-cached-base"
        assert resp.base_count is None
        assert resp.count == planned.count
        assert resp.result.elapsed_cycles == planned.elapsed_cycles
        # The matcher owns that decision: no base, no anchored runs.
        out = IncrementalMatcher(fast_config).count_delta(
            small_plc, successor, batch, query, base_count=None
        )
        assert not out.incremental and out.fallback_reason == "no-cached-base"
        assert out.count == greedy.count

    def test_match_delta_non_tdfs_engine_falls_back(self, k4, fast_config):
        with make_service() as svc:
            svc.register_graph("g", k4)
            svc.query("g", "P1", engine="stmatch")
            resp = svc.match_delta("g", "P1", remove=[(0, 1)], engine="stmatch")
        assert not resp.incremental
        assert resp.fallback_reason == "engine-not-tdfs"
        assert resp.count == match(svc.graph("g"), "P1", config=fast_config).count

    def test_match_delta_result_cached_for_new_version(self, k4):
        with make_service() as svc:
            svc.register_graph("g", k4)
            svc.query("g", "P1")
            resp = svc.match_delta("g", "P1", remove=[(0, 1)])
            warm = svc.query("g", "P1")
        assert warm.result_cache_hit
        assert warm.count == resp.count
        assert warm.graph_version == resp.graph_version

    def test_match_delta_chains_across_versions(self, k4):
        # Each delta's synthesized result seeds the next delta's base, so a
        # whole stream stays on the incremental path after one warm query.
        with make_service() as svc:
            svc.register_graph("g", k4)
            svc.query("g", "P1")
            r1 = svc.match_delta("g", "P1", add=[(0, 4)])
            r2 = svc.match_delta("g", "P1", add=[(1, 4)])
            expected = match(
                svc.graph("g"), "P1", config=TDFSConfig(num_warps=8)
            ).count
        assert r1.incremental and r2.incremental
        assert r2.base_count == r1.count
        assert r2.count == expected
        assert svc.metrics.get("delta_incremental") == 2

    def test_match_delta_stream_conformance(self, fast_config):
        # Replay a shared fuzz delta stream through the service and check
        # every served count against a one-shot match of the live graph.
        seed, graph, query, stream = next(
            iter(delta_stream_cases(1, base=2380, batches=3, max_edges=4))
        )
        with make_service() as svc:
            svc.register_graph("g", graph)
            svc.query("g", query)
            for batch, successor in stream:
                resp = svc.match_delta(
                    "g", query, add=batch.add, remove=batch.remove
                )
                assert svc.graph("g") == successor
                expected = match(successor, query, config=fast_config).count
                assert resp.count == expected, (
                    f"seed={seed}: served {resp.count} != {expected} "
                    f"after {batch} (incremental={resp.incremental})"
                )


class TestDeadlines:
    def test_expired_deadline_is_typed_degraded(self, small_plc):
        with make_service() as svc:
            svc.register_graph("g", small_plc)
            resp = svc.query("g", "P3", deadline_ms=0.0, use_result_cache=False)
            assert resp.error == "DEADLINE"
            assert resp.degraded
            assert not resp.ok
            assert svc.metrics.get("deadline_expired") == 1
            # The service survives and keeps answering.
            assert svc.query("g", "P1").ok

    def test_generous_deadline_runs_normally(self, k4, fast_config):
        with make_service() as svc:
            svc.register_graph("g", k4)
            resp = svc.query("g", "P1", deadline_ms=60_000.0)
        assert resp.ok
        assert not resp.degraded
        assert resp.count == match(k4, "P1", config=fast_config).count

    def test_degraded_run_is_not_cached(self, small_plc, fast_config, monkeypatch):
        """Regression: a run the deadline ladder degraded (halved
        ``chunk_size``) was cached under the plain request's key, so a
        later request without a deadline was served the degraded run's
        cycles instead of what ``match()`` gives."""
        from repro.serve import workers

        tight = workers.deadline_policy
        # Every deadline is tight: the run is degraded however fast it is.
        monkeypatch.setattr(
            workers, "deadline_policy", lambda _left, ms: tight(0.0, ms)
        )
        expected = match(small_plc, "P1", config=fast_config)
        with make_service() as svc:
            svc.register_graph("g", small_plc)
            degraded = svc.query("g", "P1", deadline_ms=60_000.0)
            plain = svc.query("g", "P1")
        assert degraded.degraded and degraded.count == expected.count
        assert not plain.result_cache_hit
        assert plain.result.elapsed_cycles == expected.elapsed_cycles
        assert degraded.result.elapsed_cycles != expected.elapsed_cycles


class TestAdmissionQueue:
    """The queue holds an admitted entry until its settle releases it."""

    @staticmethod
    def entry(request_id: int = 1) -> QueueEntry:
        return QueueEntry(
            request=None, ticket=None, request_id=request_id, priority=0,
            batch_key="k", submitted_at=0.0,
        )

    def test_an_entry_is_pending_from_offer_to_settle(self):
        queue, entry = AdmissionQueue(), self.entry()
        dead, replacement = object(), object()
        queue.offer(entry)
        assert (queue.pending, queue.depth) == (1, 1)  # queued
        assert queue.take(dead) is entry
        assert (queue.pending, queue.depth) == (1, 0)  # taken
        assert queue.unsettled(dead) == [entry]
        assert queue.unsettled(replacement) == []
        queue.seal()
        queue.offer(entry, force=True)  # redelivery lands through the seal
        assert (queue.pending, queue.depth) == (1, 1)
        assert queue.unsettled(dead) == []
        assert queue.take_matching(replacement, "k", 4) == [entry]
        assert queue.unsettled() == [entry]
        assert entry.claim_settle()
        assert queue.unsettled() == []  # settled, still held until released
        assert queue.pending == 1
        queue.release(entry)
        assert queue.pending == 0

    def test_pending_never_undercounts_under_racing_workers(self):
        """Four worker threads (more than the cores CI has) take, redeliver
        and settle 300 entries with a tiny switch interval, while the main
        thread checks that the pending count never falls below the number
        of unsettled entries — a lost entry would break it."""
        import sys

        queue = AdmissionQueue(max_depth=300)
        entries = [self.entry(i) for i in range(300)]
        for e in entries:
            queue.offer(e)
        undercounts, done = [], threading.Event()

        def work():
            me = object()
            while not done.is_set():
                e = queue.take(me, timeout=0.01)
                if e is None:
                    continue
                if e.request_id % 3 == 0 and not e.redeliveries:
                    e.redeliveries += 1  # "died": redeliver it
                    queue.offer(e, force=True)
                elif e.claim_settle():
                    queue.release(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=work) for _ in range(4)]
        try:
            for w in workers:
                w.start()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                pending = queue.pending  # read first: unsettled only shrinks
                unsettled = sum(not e.settled for e in entries)
                if pending < unsettled:
                    undercounts.append((pending, unsettled))
                if not unsettled:
                    break
        finally:
            done.set()
            for w in workers:
                w.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert undercounts == []
        assert all(e.settled for e in entries)
        assert queue.pending == 0

    def test_release_forgets_an_entry_settled_while_queued(self):
        # A zombie worker wins the settle after its entry was redelivered.
        queue, entry = AdmissionQueue(), self.entry()
        queue.offer(entry)
        queue.take(object())
        queue.offer(entry, force=True)
        assert entry.claim_settle()
        queue.release(entry)
        assert (queue.pending, queue.depth) == (0, 0)
        assert queue.take(object(), timeout=0.0) is None

    def test_a_redelivery_that_races_its_settle_is_dropped(self):
        queue, entry = AdmissionQueue(), self.entry()
        zombie = object()
        queue.offer(entry)
        queue.take(zombie)
        assert queue.unsettled(zombie) == [entry]  # the watchdog's sweep
        assert entry.claim_settle()  # ... and the zombie settles first
        queue.offer(entry, force=True)  # the redelivery lands late
        queue.release(entry)
        assert (queue.pending, queue.depth) == (0, 0)

    def test_stopped_service_holds_nothing(self, k4, start_later):
        svc = make_service()
        svc.register_graph("g", k4)
        tickets = [
            svc.submit(MatchRequest(graph_id="g", query="P1")) for _ in range(3)
        ]
        assert svc._queue.pending == 3
        svc.stop()
        assert svc._queue.pending == 0
        assert all(t.done() for t in tickets)


class TestAdmissionControl:
    def test_shed_lowest_priority(self, k4, start_later):
        # Workers never started: the queue keeps what we put in it.
        svc = make_service(max_queue=2)
        svc.register_graph("g", k4)
        low = svc.submit(MatchRequest(graph_id="g", query="P1", priority=0))
        svc.submit(MatchRequest(graph_id="g", query="P1", priority=5))
        svc.submit(MatchRequest(graph_id="g", query="P1", priority=5))
        with pytest.raises(AdmissionRejected, match="shed under overload"):
            low.result(timeout=5.0)
        assert svc.metrics.get("shed") == 1
        svc.stop()

    def test_reject_when_priority_does_not_beat_floor(self, k4, start_later):
        svc = make_service(max_queue=1)
        svc.register_graph("g", k4)
        svc.submit(MatchRequest(graph_id="g", query="P1", priority=3))
        with pytest.raises(AdmissionRejected, match="does not beat"):
            svc.submit(MatchRequest(graph_id="g", query="P1", priority=3))
        assert svc.metrics.get("rejected") == 1
        svc.stop()


class TestConcurrency:
    def test_multi_thread_counts_match_single_shot(self, small_plc, fast_config):
        """Many client threads, 2 workers, no result cache: every response
        must still carry exactly the one-shot match() count."""
        patterns = ["P1", "P2", "P7"]
        expected = {
            p: match(small_plc, p, config=fast_config).count for p in patterns
        }
        responses = []
        errors = []
        with make_service(workers=2, enable_result_cache=False) as svc:
            svc.register_graph("g", small_plc)

            def client(i: int) -> None:
                try:
                    responses.append(svc.query("g", patterns[i % 3], timeout=120.0))
                except Exception as exc:  # surface in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(responses) == 12
        for r in responses:
            assert r.ok
            assert r.count == expected[r.query_name]
        assert svc.metrics.get("completed") == 12

    def test_queued_burst_runs_as_one_batch(self, small_plc, start_later):
        """Six same-key uncached requests queued before the pool starts are
        taken together: one batch of six, each with the one-shot count."""
        svc = make_service()
        svc.register_graph("g", small_plc)
        tickets = [
            svc.submit(MatchRequest(graph_id="g", query="P1", use_result_cache=False))
            for _ in range(6)
        ]
        start_later(svc)
        try:
            responses = [t.result(timeout=120.0) for t in tickets]
        finally:
            svc.stop()
        expected = match(small_plc, "P1", config=TDFSConfig(num_warps=8)).count
        assert [r.batch_size for r in responses] == [6] * 6
        assert [r.count for r in responses] == [expected] * 6
        assert svc.metrics.batch_size.count == 1

    def test_worker_takes_queued_entries_without_waiting(
        self, k4, monkeypatch, start_later
    ):
        """A worker that takes a request while same-key entries are queued
        takes them at once: its thread never sleeps."""
        from repro.serve.workers import Worker

        sleep, slept = time.sleep, []

        def spy(seconds):
            if isinstance(threading.current_thread(), Worker):
                slept.append(seconds)
            sleep(seconds)

        monkeypatch.setattr(time, "sleep", spy)
        svc = make_service()
        svc.register_graph("g", k4)
        tickets = [
            svc.submit(MatchRequest(graph_id="g", query="P1", use_result_cache=False))
            for _ in range(3)
        ]
        start_later(svc)
        try:
            sizes = [t.result(timeout=60.0).batch_size for t in tickets]
        finally:
            svc.stop()
        assert sizes == [3] * 3
        assert slept == []

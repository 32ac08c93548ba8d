"""End-to-end tests for the serving layer (:mod:`repro.serve`)."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro import TDFSConfig, available_engines, get_pattern, match
from repro.dynamic import DeltaError
from repro.errors import ReproError, UnsupportedError
from repro.gpusim.costmodel import DEFAULT_COST_MODEL
from repro.obs.ops import ops_tracer
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
)
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
            assert svc.plan_cache.stats().invalidations == 0

    def test_unsupported_engine_combo_is_typed(self, labeled_plc):
        # PBE cannot run labeled queries -> "N/A" response, not a crash.
        with make_service() as svc:
            svc.register_graph("g", labeled_plc)
            resp = svc.query("g", "P12", engine="pbe")
        assert resp.error == "N/A"
        assert not resp.ok

    def test_stop_rejects_queued_and_new(self, k4):
        svc = make_service(autostart=False)
        svc.register_graph("g", k4)
        ticket = svc.submit(MatchRequest(graph_id="g", query="P1"))
        svc.stop()
        with pytest.raises(AdmissionRejected):
            ticket.result(timeout=5.0)
        with pytest.raises(AdmissionRejected):
            svc.submit(MatchRequest(graph_id="g", query="P1"))

    def test_stop_rejections_are_on_the_books(self, k4):
        """Regression: ``stop()`` bumped ``rejected`` before winning the
        settle claim and recorded neither an SLO outcome nor a flight
        event, unlike a shed request with the same typed error."""
        svc = make_service(autostart=False)
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


class TestHitPath:
    """A result-cache hit skips the queue, not the contract: the same
    admission checks, span, counters and ticket behaviour as a miss."""

    @staticmethod
    def warm_supervised(graph):
        svc = make_service(supervisor=SupervisorConfig(breaker_jitter=0.0))
        svc.register_graph("g", graph)
        assert not svc.query("g", "P1").result_cache_hit
        return svc, MatchRequest(graph_id="g", query="P1")

    @staticmethod
    def signature(svc, request):
        from repro.query.patterns import get_pattern

        return ("g", plan_fingerprint(get_pattern(request.query)))

    def test_hit_is_rejected_like_a_miss(self, small_plc):
        svc, hit = self.warm_supervised(small_plc)
        miss = MatchRequest(graph_id="g", query="P1", use_result_cache=False)
        with svc:
            sig = self.signature(svc, hit)
            poisoned = (*sig, "tdfs", config_fingerprint(svc.config.match_config))
            svc.supervisor.quarantine.poison(poisoned, "boom", request_id=1)
            for n, request in enumerate((hit, miss), start=1):
                with pytest.raises(PoisonedRequestError):
                    svc.submit(request)
                assert svc.metrics.get("poisoned_rejected") == n
            svc.supervisor.quarantine.release(poisoned)

            for _ in range(svc.supervisor.config.breaker_threshold):
                svc.supervisor.breaker.record_failure(sig)
            for n, request in enumerate((hit, miss), start=1):
                with pytest.raises(CircuitOpenError):
                    svc.submit(request)
                assert svc.metrics.get("breaker_rejected") == n
            assert svc.metrics.get("rejected") == 4
            assert svc.metrics.get("result_cache_hits") == 0

    def test_hit_closes_a_half_open_breaker(self, small_plc):
        svc, request = self.warm_supervised(small_plc)
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

    def test_unsettled_ticket_waits_and_times_out(self, k4):
        from repro.serve import ResultTimeout

        svc = make_service(autostart=False)  # nobody drains the queue
        svc.register_graph("g", k4)
        ticket = svc.submit(MatchRequest(graph_id="g", query="P1"))
        assert not ticket.done()
        with pytest.raises(ResultTimeout):
            ticket.result(timeout=0.01)
        waiter = threading.Thread(target=ticket.result, kwargs={"timeout": 30.0})
        waiter.start()
        svc.start()
        waiter.join(timeout=30.0)
        assert not waiter.is_alive() and ticket.done()
        assert ticket.result(timeout=0).count == match(k4, "P1").count
        svc.stop()


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


class TestAdmissionControl:
    def test_shed_lowest_priority(self, k4):
        # Workers never started: the queue keeps what we put in it.
        svc = make_service(autostart=False, max_queue=2)
        svc.register_graph("g", k4)
        low = svc.submit(MatchRequest(graph_id="g", query="P1", priority=0))
        svc.submit(MatchRequest(graph_id="g", query="P1", priority=5))
        svc.submit(MatchRequest(graph_id="g", query="P1", priority=5))
        with pytest.raises(AdmissionRejected, match="shed under overload"):
            low.result(timeout=5.0)
        assert svc.metrics.get("shed") == 1
        svc.stop()

    def test_reject_when_priority_does_not_beat_floor(self, k4):
        svc = make_service(autostart=False, max_queue=1)
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

    def test_batching_shares_candidate_build(self, small_plc):
        """Same-graph burst forms batches > 1 under one worker."""
        with make_service(batch_window_ms=20.0) as svc:
            svc.register_graph("g", small_plc)
            tickets = [
                svc.submit(
                    MatchRequest(
                        graph_id="g", query="P1", use_result_cache=False
                    )
                )
                for _ in range(6)
            ]
            sizes = [t.result(timeout=120.0).batch_size for t in tickets]
        assert max(sizes) > 1

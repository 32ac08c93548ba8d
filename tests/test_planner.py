"""Unit and integration tests for the cost-based planner (:mod:`repro.planner`).

Covers the four planner layers (statistics, cardinality estimation, plan
search, runtime feedback), the engine/serve wiring, and the ordering
edge cases the planner leans on (single vertex, star, clique,
disconnected queries, cross-process fingerprint stability).
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro import TDFSConfig, compile_plan, get_pattern, match
from repro.core.engine import TDFSEngine, make_engine
from repro.core.result import MatchResult
from repro.errors import PlanError, ReproError, UnsupportedError
from repro.planner import (
    CardinalityEstimator,
    PlanFeedback,
    PlannerConfig,
    PlanPortfolio,
    compute_profile,
    plan_query,
    profile_graph,
    refine_estimates,
    sample_branch_factors,
)
from repro.query.ordering import choose_matching_order, validate_order
from repro.query.pattern import QueryGraph
from repro.serve import MatchRequest, MatchService, ServeConfig, plan_fingerprint
from repro.serve.cache import config_fingerprint

#: Small planner budget — keeps the full-suite runtime low while still
#: exercising the beam search and the sampling refiner.
FAST_PLANNER = PlannerConfig(beam_width=4, portfolio_size=3, samples=64, descents=4)


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #


class TestGraphProfile:
    def test_basic_moments(self, small_plc):
        p = compute_profile(small_plc)
        assert p.num_vertices == small_plc.num_vertices
        assert p.num_edges == small_plc.num_edges
        assert p.avg_degree == pytest.approx(
            2.0 * p.num_edges / p.num_vertices
        )
        # Size-biased mean >= plain mean, with equality only for regular
        # graphs — a power-law graph is decidedly not regular.
        assert p.sb_degree > p.avg_degree
        assert p.max_degree >= p.sb_degree
        assert 0.0 <= p.closure_rate <= 1.0
        assert 0.0 < p.edge_prob < 1.0

    def test_degree_survival_monotone(self, small_plc):
        p = compute_profile(small_plc)
        assert p.degree_survival(0) == 1.0
        prev = 1.0
        for d in range(1, p.max_degree + 2):
            cur = p.degree_survival(d)
            assert cur <= prev
            prev = cur
        assert p.degree_survival(p.max_degree + 1) == 0.0

    def test_unlabeled_defaults(self, small_plc):
        p = compute_profile(small_plc)
        assert not p.is_labeled
        assert p.label_freq == {0: 1.0}
        assert p.freq(0) == 1.0
        assert p.candidates_with(0, 0) == p.num_vertices

    def test_labeled_frequencies(self, labeled_plc):
        p = compute_profile(labeled_plc)
        assert p.is_labeled
        assert sum(p.label_freq.values()) == pytest.approx(1.0)
        total = sum(
            p.candidates_with(lab, 0) for lab in p.label_freq
        )
        assert total == pytest.approx(p.num_vertices)

    def test_deterministic_and_cached(self, small_plc):
        a = compute_profile(small_plc, seed=3)
        b = compute_profile(small_plc, seed=3)
        assert a.closure_rate == b.closure_rate
        # profile_graph caches per (seed, samples) on the graph instance.
        p1 = profile_graph(small_plc, seed=3)
        p2 = profile_graph(small_plc, seed=3)
        assert p1 is p2
        assert profile_graph(small_plc, seed=4) is not p1

    def test_row_shape(self, small_plc):
        row = compute_profile(small_plc).row()
        assert row[0] == small_plc.name
        assert len(row) == 7


# --------------------------------------------------------------------------- #
# Cardinality estimation
# --------------------------------------------------------------------------- #


class TestEstimator:
    def test_level_estimates_shape(self, small_plc):
        plan = compile_plan(get_pattern("P4"))
        est = CardinalityEstimator(profile_graph(small_plc))
        levels = est.level_estimates(plan)
        assert len(levels) == plan.num_levels
        assert all(lv.cardinality >= 0 for lv in levels)
        assert levels[0].cardinality > 0

    def test_estimate_tracks_truth_order_of_magnitude(self, small_plc):
        # P1 (triangle) on the clustered graph: the independence estimate
        # must land within ~a decade of the true count, not at 0 or 1e9.
        plan = compile_plan(get_pattern("P1"), enable_symmetry=False)
        est = CardinalityEstimator(profile_graph(small_plc)).level_estimates(plan)[-1].cardinality
        truth = match(small_plc, "P1", config=TDFSConfig(num_warps=8)).count * 6
        assert truth / 30 <= est <= truth * 30

    def test_sampling_deterministic(self, small_plc):
        plan = compile_plan(get_pattern("P4"))
        a = sample_branch_factors(small_plc, plan, descents=8, seed=5)
        b = sample_branch_factors(small_plc, plan, descents=8, seed=5)
        assert a == b

    def test_refine_overrides_observed_levels(self, small_plc):
        plan = compile_plan(get_pattern("P4"))
        est = CardinalityEstimator(profile_graph(small_plc))
        levels = est.level_estimates(plan)
        sampled = sample_branch_factors(small_plc, plan, descents=16, seed=0)
        refined = refine_estimates(levels, sampled)
        assert len(refined) == len(levels)
        # Level 0 is exact in the sampled pass, so it must be adopted.
        means, obs = sampled
        assert refined[0].cardinality == pytest.approx(means[0])


# --------------------------------------------------------------------------- #
# Plan search
# --------------------------------------------------------------------------- #


class TestPlanSearch:
    def test_portfolio_members_are_valid_orders(self, small_plc):
        q = get_pattern("P4")
        portfolio = plan_query(small_plc, q, FAST_PLANNER)
        assert 1 <= len(portfolio.choices) <= FAST_PLANNER.portfolio_size
        for choice in portfolio.choices:
            validate_order(q, list(choice.order))
            assert choice.est_cycles > 0
            assert choice.source in ("beam", "greedy")

    def test_ranked_by_estimated_cycles(self, small_plc):
        portfolio = plan_query(small_plc, get_pattern("P4"), FAST_PLANNER)
        costs = [c.est_cycles for c in portfolio.choices]
        assert costs == sorted(costs)

    def test_greedy_always_evaluated(self, small_plc):
        greedy = tuple(choose_matching_order(get_pattern("P1")))
        portfolio = plan_query(small_plc, get_pattern("P1"), FAST_PLANNER)
        # P1 is a triangle: any connected order works, and the portfolio
        # must contain the greedy order among its candidates (it can only
        # be absent if portfolio_size orders beat it — impossible for k=3
        # where all orders tie structurally, so check membership or that
        # every member costs no more than some candidate).
        choice = next((c for c in portfolio.choices if c.order == greedy), None)
        if choice is not None:
            assert choice.source == "greedy"
        assert portfolio.best.est_cycles <= max(
            c.est_cycles for c in portfolio.choices
        )

    def test_deterministic_across_calls(self, small_plc):
        a = plan_query(small_plc, get_pattern("P4"), FAST_PLANNER)
        b = plan_query(small_plc, get_pattern("P4"), FAST_PLANNER)
        assert [c.order for c in a.choices] == [c.order for c in b.choices]
        assert [c.est_cycles for c in a.choices] == [
            c.est_cycles for c in b.choices
        ]

    def test_parallelism_scales_cost_not_ranking(self, small_plc):
        q = get_pattern("P4")
        work = plan_query(small_plc, q, FAST_PLANNER, parallelism=1)
        wall = plan_query(small_plc, q, FAST_PLANNER, parallelism=64)
        assert [c.order for c in work.choices] == [c.order for c in wall.choices]
        for w, p in zip(work.choices, wall.choices):
            assert p.est_cycles == pytest.approx(w.est_cycles / 64)

    def test_all_members_count_identical(self, small_plc, fast_config):
        portfolio = plan_query(small_plc, get_pattern("P4"), FAST_PLANNER)
        engine = TDFSEngine(fast_config)
        counts = {
            engine.run(small_plc, choice.plan).count
            for choice in portfolio.choices
        }
        assert len(counts) == 1

    def test_single_vertex_raises_plan_error(self, small_plc):
        q = QueryGraph(1, [], name="dot")
        with pytest.raises(PlanError):
            plan_query(small_plc, q, FAST_PLANNER)

    def test_describe_mentions_every_member(self, small_plc):
        portfolio = plan_query(small_plc, get_pattern("P1"), FAST_PLANNER)
        text = portfolio.describe()
        for rank in range(1, len(portfolio.choices) + 1):
            assert f"#{rank}" in text
        assert "breakdown" in text

    def test_config_validation(self):
        with pytest.raises(ReproError, match="beam_width"):
            PlannerConfig(beam_width=0)
        with pytest.raises(ReproError, match="portfolio_size"):
            PlannerConfig(portfolio_size=0)
        with pytest.raises(ReproError, match="descents"):
            PlannerConfig(descents=-1)
        with pytest.raises(ReproError, match="samples"):
            PlannerConfig(samples=-1)


# --------------------------------------------------------------------------- #
# Engine wiring
# --------------------------------------------------------------------------- #


class TestEngineIntegration:
    def test_planner_off_is_bit_identical_to_legacy(self, small_plc):
        cfg = TDFSConfig(num_warps=8)  # planner=None
        engine = TDFSEngine(cfg)
        for name in ("P1", "P3", "P4"):
            q = get_pattern(name)
            assert engine.compile(q, small_plc) == compile_plan(q)

    def test_planner_on_preserves_counts(self, small_plc):
        off = TDFSConfig(num_warps=8)
        on = off.replace(planner=FAST_PLANNER)
        for name in ("P1", "P3", "P4"):
            legacy = match(small_plc, name, config=off).count
            planned = match(small_plc, name, config=on).count
            assert planned == legacy

    def test_egsm_portfolio_respects_engine_flags(self, small_plc):
        cfg = TDFSConfig(num_warps=8, planner=FAST_PLANNER)
        egsm = make_engine("egsm", cfg)
        portfolio = egsm.plan_portfolio(small_plc, get_pattern("P1"))
        # EGSM pins symmetry off — every portfolio member must honor it.
        assert all(not c.plan.symmetry_enabled for c in portfolio.choices)

    def test_plan_portfolio_requires_planner(self, small_plc):
        engine = TDFSEngine(TDFSConfig(num_warps=8))
        with pytest.raises(UnsupportedError):
            engine.plan_portfolio(small_plc, get_pattern("P1"))

    def test_config_rejects_bad_planner(self):
        with pytest.raises(ReproError, match="planner"):
            TDFSConfig(planner="greedy")  # type: ignore[arg-type]

    def test_planner_changes_config_fingerprint(self):
        base = TDFSConfig()
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(planner=FAST_PLANNER)
        )


# --------------------------------------------------------------------------- #
# Plan feedback (a planned plan-cache entry)
# --------------------------------------------------------------------------- #


class TestPlanFeedback:
    def _portfolio(self, small_plc):
        return plan_query(small_plc, get_pattern("P4"), FAST_PLANNER)

    def test_record_and_aggregate(self, small_plc):
        portfolio = self._portfolio(small_plc)
        entry = PlanFeedback(portfolio)
        best = portfolio.best
        entry.record(best, cycles=100.0)
        entry.record(best, cycles=200.0)
        obs = entry.observations[best.order]
        assert obs.runs == 2
        assert obs.avg_cycles == pytest.approx(150.0)
        assert portfolio.choices[1].order not in entry.observations
        assert len(entry.observations) == 1

    def test_preferred_unobserved_follows_estimates(self, small_plc):
        portfolio = self._portfolio(small_plc)
        assert PlanFeedback(portfolio).preferred() is portfolio.best

    def test_observed_cycles_promote(self, small_plc):
        portfolio = self._portfolio(small_plc)
        assert len(portfolio.choices) >= 2
        best, runner = portfolio.choices[0], portfolio.choices[1]
        entry = PlanFeedback(portfolio)
        # Observation: the estimated runner-up is actually much cheaper.
        entry.record(best, cycles=best.est_cycles * 10)
        entry.record(runner, cycles=1.0)
        assert entry.preferred() is runner

    def test_errors_demote(self, small_plc):
        portfolio = self._portfolio(small_plc)
        entry = PlanFeedback(portfolio)
        assert entry.record(portfolio.best, cycles=0.0, error=True)
        assert entry.preferred() is portfolio.choices[1]


# --------------------------------------------------------------------------- #
# Ordering edge cases (satellites)
# --------------------------------------------------------------------------- #


class TestOrderingEdgeCases:
    def test_single_vertex_order(self):
        q = QueryGraph(1, [], name="dot")
        assert choose_matching_order(q) == [0]

    def test_star_center_first(self):
        q = QueryGraph(5, [(2, 0), (2, 1), (2, 3), (2, 4)], name="star")
        order = choose_matching_order(q)
        assert order[0] == 2
        validate_order(q, order)

    def test_clique_order_is_identity(self):
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        q = QueryGraph(5, edges, name="k5")
        # All degrees tie; lowest-id tie-breaks give the identity order.
        assert choose_matching_order(q) == [0, 1, 2, 3, 4]

    def test_disconnected_query_names_unreachable(self):
        # QueryGraph validates connectivity at construction, so the broken
        # invariant is forced by mutating the adjacency afterwards — the
        # exact corruption a buggy caller could produce.
        q = QueryGraph(4, [(0, 1), (1, 2), (2, 3)], name="path4")
        q.adj[2].discard(3)
        q.adj[3].discard(2)
        with pytest.raises(PlanError) as exc:
            choose_matching_order(q)
        msg = str(exc.value)
        assert "disconnected" in msg
        assert "[3]" in msg  # names the unreachable vertex
        assert "path4" in msg

    def test_disconnected_many_unreachable(self):
        q = QueryGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], name="path5")
        for u, v in ((2, 3), (3, 4)):
            q.adj[u].discard(v)
            q.adj[v].discard(u)
        with pytest.raises(PlanError, match=r"\[3, 4\]"):
            choose_matching_order(q)


# --------------------------------------------------------------------------- #
# Fingerprint stability (satellite: cross-process cache keys)
# --------------------------------------------------------------------------- #


class TestFingerprintStability:
    _SNIPPET = (
        "from repro import compile_plan, get_pattern;"
        "from repro.serve import plan_fingerprint;"
        "q = get_pattern('P4');"
        "print(plan_fingerprint(q));"
        "print(plan_fingerprint(compile_plan(q)))"
    )

    def _run(self, hash_seed: str) -> list[str]:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.path.abspath("src")
        out = subprocess.run(
            [sys.executable, "-c", self._SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return out.stdout.split()

    def test_fingerprints_stable_across_hash_seeds(self):
        a = self._run("1")
        b = self._run("2")
        assert a == b
        assert a[0] == plan_fingerprint(get_pattern("P4"))
        assert a[1] == plan_fingerprint(compile_plan(get_pattern("P4")))


# --------------------------------------------------------------------------- #
# Serving-layer integration
# --------------------------------------------------------------------------- #


def planner_service(**overrides) -> MatchService:
    cfg = TDFSConfig(num_warps=8, planner=FAST_PLANNER)
    defaults = dict(workers=1, match_config=cfg)
    defaults.update(overrides)
    return MatchService(ServeConfig(**defaults))


def engine_runs(monkeypatch, results=()) -> list:
    """Record ``(engine, order)`` of every engine run; the first runs
    return ``results`` (a ``MatchResult`` each) instead of matching."""
    runs, canned = [], list(results)
    real = TDFSEngine.run

    def run(engine, graph, plan, **kwargs):
        runs.append((engine.name, plan.order))
        return canned.pop(0) if canned else real(engine, graph, plan, **kwargs)

    monkeypatch.setattr(TDFSEngine, "run", run)
    return runs


def canned(cycles: int, error=None) -> MatchResult:
    return MatchResult(
        engine="tdfs", graph_name="g", query_name="P4", count=0,
        elapsed_cycles=cycles, error=error,
    )


def planned_entries(svc: MatchService) -> list:
    return [e for _, e in svc.plan_cache.items() if isinstance(e, PlanFeedback)]


def uncached(svc: MatchService, engine: str = "tdfs"):
    return svc.submit(
        MatchRequest("g", "P4", engine=engine, use_result_cache=False)
    ).result(timeout=120)


class TestServePlanner:
    def test_counts_and_feedback_flow(self, small_plc, fast_config):
        with planner_service() as svc:
            svc.register_graph("g", small_plc)
            expected = match(small_plc, "P4", config=fast_config).count
            cold = svc.query("g", "P4")
            assert cold.count == expected
            assert svc.metrics.get("planner_feedback") == 1
            # One plan-cache entry holds the portfolio and its one run.
            (entry,) = planned_entries(svc)
            assert len(svc.plan_cache) == 1
            assert sum(o.runs for o in entry.observations.values()) == 1
            # Estimator error was published for the executed member.
            assert svc.metrics.plan_error.snapshot()["count"] == 1
            # Second request: plan cache hit, same count, more feedback
            # only if it actually executes (result cache answers it).
            warm = svc.query("g", "P4")
            assert warm.count == expected

    def test_version_bump_drops_planner_state(self, small_plc):
        with planner_service() as svc:
            svc.register_graph("g", small_plc)
            svc.query("g", "P4")
            (old,) = planned_entries(svc)
            svc.apply_edges("g", add=[(0, 1), (0, 2)])
            # The old version's entry is stranded by its key, not dropped,
            # and the first request at the new version starts from none of
            # its observations: a plan-cache miss whose entry holds only
            # its own run.
            after = svc.query("g", "P4")
            assert not after.plan_cache_hit
            new = [e for e in planned_entries(svc) if e is not old]
            assert len(new) == 1 and len(svc.plan_cache) == 2
            assert sum(o.runs + o.errors for o in new[0].observations.values()) == 1
            assert sum(o.runs for o in old.observations.values()) == 1

    def test_rerank_invalidates_cached_plan(self, small_plc, monkeypatch):
        # A clean run of the best member does not re-rank, and neither
        # does a single failure (demotion needs errors to outnumber runs);
        # a second failure does, and the very next request runs the
        # promoted member from the same plan-cache entry.
        runs = engine_runs(
            monkeypatch, [canned(100), canned(100, "OOM"), canned(100, "OOM")]
        )
        with planner_service() as svc:
            svc.register_graph("g", small_plc)
            uncached(svc)
            (entry,) = planned_entries(svc)
            choices = entry.portfolio.choices
            assert len(choices) >= 2
            uncached(svc)
            assert svc.metrics.get("plan_reranks") == 0
            uncached(svc)
            assert svc.metrics.get("plan_reranks") == 1
            nxt = uncached(svc)
            assert nxt.ok and nxt.plan_cache_hit
            assert [order for _, order in runs] == [choices[0].order] * 3 + [
                choices[1].order
            ]
            assert len(svc.plan_cache) == 1

    def test_observations_stay_with_their_engine(self, small_plc, monkeypatch):
        # STMatch's observed cycles must not rank T-DFS's orders: a T-DFS
        # request after only STMatch runs of the same query runs its own
        # portfolio's best member.
        runs = engine_runs(monkeypatch)
        cfg = TDFSConfig(num_warps=8, planner=FAST_PLANNER)
        best = make_engine("tdfs", cfg).plan_portfolio(small_plc, get_pattern("P4")).best
        with planner_service() as svc:
            svc.register_graph("g", small_plc)
            for _ in range(4):
                assert uncached(svc, "stmatch").ok
            assert uncached(svc, "tdfs").ok
        assert runs[-1] == ("tdfs", best.order)
        assert {engine for engine, _ in runs[:-1]} == {"stmatch"}

    def test_est_error_is_per_run(self, small_plc, monkeypatch):
        # Runs of 100 and 300 cycles against an estimate of 200 are off by
        # 1.0 and 1/3 each (the running mean, 200, would read 0.0).
        only = plan_query(small_plc, get_pattern("P4"), FAST_PLANNER).best
        portfolio = PlanPortfolio(
            "P4", small_plc.name, (replace(only, est_cycles=200.0),), None
        )
        monkeypatch.setattr(
            TDFSEngine, "plan_portfolio", lambda engine, graph, query: portfolio
        )
        engine_runs(monkeypatch, [canned(100), canned(300)])
        with planner_service() as svc:
            svc.register_graph("g", small_plc)
            uncached(svc)
            uncached(svc)
            snap = svc.metrics.plan_error.snapshot()
        assert snap["count"] == 2
        assert snap["mean"] == pytest.approx((1.0 + 1 / 3) / 2, abs=1e-4)

    def test_planner_off_service_untouched(self, small_plc):
        cfg = TDFSConfig(num_warps=8)
        with MatchService(
            ServeConfig(workers=1, match_config=cfg)
        ) as svc:
            svc.register_graph("g", small_plc)
            svc.query("g", "P1")
            assert svc.metrics.get("planner_feedback") == 0
            assert planned_entries(svc) == []

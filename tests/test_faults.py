"""Chaos harness tests: deterministic fault injection + resilient recovery.

The acceptance bar (mirroring the issue): with a fixed fault seed injecting
a device OOM and a mid-run illegal access, both the single-GPU retry path
and the multi-GPU failover path must return the *same* match count as the
fault-free run, with ``RecoveryStats`` showing the survived faults — and
identical seeds must produce byte-identical survival reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunContext,
    StackMode,
    Strategy,
    TDFSConfig,
    load_dataset,
    match,
)
from repro.core.engine import TDFSEngine
from repro.core.multi_gpu import merge_results
from repro.errors import ReproError
from repro.core.result import MatchResult, RecoveryStats
from repro.faults import (
    POISON_VALUE,
    format_survival_report,
    pending_rows,
    reshard_groups,
)
from repro.query.patterns import get_pattern


@pytest.fixture(scope="module")
def graph():
    return load_dataset("dblp")


@pytest.fixture(scope="module")
def baseline(graph):
    return match(graph, "P1", config=TDFSConfig())


# --------------------------------------------------------------------------- #
# Plan / policy mechanics
# --------------------------------------------------------------------------- #


def test_stream_seed_is_process_stable_and_site_dependent():
    plan = FaultPlan(seed=42)
    a = plan.stream_seed("gpu0", 1, "alloc")
    assert a == FaultPlan(seed=42).stream_seed("gpu0", 1, "alloc")
    assert a != plan.stream_seed("gpu0", 1, "resume")
    assert a != plan.stream_seed("gpu1", 1, "alloc")
    assert a != plan.stream_seed("gpu0", 2, "alloc")
    assert a != FaultPlan(seed=43).stream_seed("gpu0", 1, "alloc")


def test_retry_policy_ladder_and_backoff():
    policy = RetryPolicy(max_attempts=4, backoff_base_cycles=100)
    assert policy.rungs_for(1) == ()
    assert policy.rungs_for(2) == ("shrink-chunk",)
    assert policy.rungs_for(4) == (
        "shrink-chunk",
        "array-stacks",
        "cpu-fallback",
    )
    assert policy.backoff_cycles(1) == 100
    assert policy.backoff_cycles(3) == 400


def test_fault_spec_matching():
    spec = FaultSpec(FaultKind.OOM, gpu="gpu1", attempt=2)
    assert spec.matches("gpu1", 2)
    assert not spec.matches("gpu0", 2)
    assert not spec.matches("gpu1", 1)
    anyspec = FaultSpec(FaultKind.OOM, attempt=None)
    assert anyspec.matches("gpu7", 9)


def test_plan_is_armed():
    assert not FaultPlan().is_armed
    assert FaultPlan(oom_rate=0.1).is_armed
    assert FaultPlan(schedule=(FaultSpec(FaultKind.STALL),)).is_armed


# --------------------------------------------------------------------------- #
# Error surfacing (no retry): faults appear in MatchResult.error
# --------------------------------------------------------------------------- #

_FATAL_CASES = [
    (FaultKind.OOM, {"at_op": 0}, "OOM"),
    (FaultKind.KERNEL_LAUNCH, {"at_op": 0}, "ERR"),
    (FaultKind.ILLEGAL_ACCESS, {"at_op": 200}, "ERR"),
]


@pytest.mark.parametrize("kind,trigger,marker", _FATAL_CASES)
@pytest.mark.parametrize("num_gpus", [1, 2])
def test_injected_fault_surfaces_in_result_error(
    graph, kind, trigger, marker, num_gpus
):
    plan = FaultPlan(schedule=(FaultSpec(kind, attempt=None, **trigger),))
    cfg = TDFSConfig(num_gpus=num_gpus)
    result = match(graph, "P1", config=cfg, ctx=RunContext(fault_plan=plan))
    assert result.failed
    assert marker in result.error
    assert result.recovery.faults_by_kind.get(kind.value, 0) >= 1


def test_queue_corruption_detected_as_illegal_access(graph):
    plan = FaultPlan(schedule=(FaultSpec(FaultKind.QUEUE_CORRUPTION, at_op=0),))
    cfg = TDFSConfig(chunk_size=2, tau_cycles=50)
    result = match(graph, "P1", config=cfg, ctx=RunContext(fault_plan=plan))
    assert result.failed
    assert "corrupted Q_task slot" in result.error
    assert result.recovery.faults_by_kind.get("queue-corruption") == 1


# --------------------------------------------------------------------------- #
# Single-GPU resilient recovery
# --------------------------------------------------------------------------- #


def test_oom_then_illegal_access_recovers_exact_count(graph, baseline):
    """The issue's acceptance scenario: one OOM + one mid-run illegal
    access; the retried run must land on the fault-free count."""
    plan = FaultPlan(
        schedule=(
            FaultSpec(FaultKind.OOM, attempt=1, at_op=2),
            FaultSpec(FaultKind.ILLEGAL_ACCESS, attempt=2, at_op=400),
        )
    )
    ctx = RunContext(fault_plan=plan, retry=RetryPolicy())
    result = match(graph, "P1", ctx=ctx)
    assert not result.failed
    assert result.count == baseline.count
    assert result.recovery.attempts == 3
    assert result.recovery.faults_survived >= 2
    assert result.recovery.faults_by_kind == {"oom": 1, "illegal-access": 1}
    assert result.recovery.degradations == ["shrink-chunk", "array-stacks"]
    assert result.recovery.backoff_cycles > 0
    assert "[recovered:" in result.summary()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_chaos_preserves_count(graph, baseline, seed):
    ctx = RunContext(fault_plan=FaultPlan.seeded(seed), retry=RetryPolicy())
    result = match(graph, "P1", ctx=ctx)
    assert not result.failed
    assert result.count == baseline.count


@pytest.mark.parametrize(
    "strategy",
    [Strategy.HALF_STEAL, Strategy.NEW_KERNEL, Strategy.NONE],
)
def test_chaos_recovery_under_other_strategies(graph, strategy):
    base = TDFSConfig(strategy=strategy)
    fault_free = match(graph, "P1", config=base)
    ctx = RunContext(fault_plan=FaultPlan.seeded(1), retry=RetryPolicy())
    result = match(graph, "P1", config=base, ctx=ctx)
    assert not result.failed
    assert result.count == fault_free.count


def test_queue_corruption_recovered_via_journal(graph):
    base = TDFSConfig(chunk_size=2, tau_cycles=50)
    fault_free = match(graph, "P1", config=base)
    plan = FaultPlan(seed=7, queue_corruption_rate=0.3)
    ctx = RunContext(fault_plan=plan, retry=RetryPolicy())
    result = match(graph, "P1", config=base, ctx=ctx)
    assert not result.failed
    assert result.count == fault_free.count
    assert result.recovery.faults_by_kind.get("queue-corruption", 0) >= 1


def test_cpu_fallback_rung_finishes_the_job(graph, baseline):
    """Every attempt's device dies; the ladder's last rung must still
    complete the count on the host."""
    plan = FaultPlan(
        schedule=tuple(
            FaultSpec(FaultKind.OOM, attempt=a, at_op=2) for a in range(1, 4)
        )
    )
    ctx = RunContext(fault_plan=plan, retry=RetryPolicy(max_attempts=4))
    result = match(graph, "P1", ctx=ctx)
    assert not result.failed
    assert result.count == baseline.count
    assert "cpu-fallback" in result.recovery.degradations


def test_recovery_preserves_collected_matches(graph):
    base = TDFSConfig()
    engine = TDFSEngine(base)
    plan_q = engine._resolve_plan(get_pattern("P1"))
    clean = engine.run(graph, plan_q, collect_matches=10**9)
    chaotic = TDFSEngine(
        base, RunContext(fault_plan=FaultPlan.seeded(3), retry=RetryPolicy())
    ).run(graph, plan_q, collect_matches=10**9)
    assert not chaotic.failed
    assert chaotic.count == clean.count
    assert sorted(chaotic.matches) == sorted(clean.matches)


def test_nonfatal_faults_survive_in_place(graph, baseline):
    plan = FaultPlan(seed=5, stall_rate=0.5, cas_storm_rate=0.2)
    cfg = TDFSConfig(chunk_size=2, tau_cycles=50)
    result = match(graph, "P1", config=cfg, ctx=RunContext(fault_plan=plan))
    assert not result.failed
    assert result.count == baseline.count
    assert result.recovery.attempts == 1
    assert result.recovery.faults_injected >= 1
    assert result.recovery.faults_survived == result.recovery.faults_injected


def test_stall_stretches_virtual_time(graph):
    base = TDFSConfig()
    fault_free = match(graph, "P1", config=base)
    plan = FaultPlan(schedule=(FaultSpec(FaultKind.STALL, warp=0, factor=8.0),))
    result = match(graph, "P1", config=base, ctx=RunContext(fault_plan=plan))
    assert not result.failed
    assert result.count == fault_free.count
    assert result.elapsed_cycles > fault_free.elapsed_cycles


# --------------------------------------------------------------------------- #
# Determinism: identical seeds → byte-identical survival reports
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [0, 11])
def test_identical_seeds_identical_reports(graph, baseline, seed):
    plan = FaultPlan.seeded(seed)
    ctx = RunContext(fault_plan=plan, retry=RetryPolicy())
    reports = []
    for _ in range(2):
        result = match(graph, "P1", ctx=ctx)
        reports.append(
            format_survival_report(result, baseline=baseline, plan=plan)
        )
    assert reports[0] == reports[1]
    assert "verdict          : SURVIVED" in reports[0]


def test_different_seeds_differ_somewhere(graph, baseline):
    outcomes = set()
    for seed in range(6):
        plan = FaultPlan.seeded(seed)
        ctx = RunContext(fault_plan=plan, retry=RetryPolicy())
        result = match(graph, "P1", ctx=ctx)
        outcomes.add(
            (result.recovery.attempts, result.recovery.faults_injected)
        )
    assert len(outcomes) > 1


# --------------------------------------------------------------------------- #
# Multi-GPU failover
# --------------------------------------------------------------------------- #


def test_device_failover_preserves_count(graph):
    base = TDFSConfig(num_gpus=2)
    fault_free = match(graph, "P1", config=base)
    # gpu0 dies on every attempt; its remainder must migrate to gpu1.
    plan = FaultPlan(
        schedule=tuple(
            FaultSpec(FaultKind.OOM, gpu="gpu0", attempt=a, at_op=2)
            for a in range(1, 3)
        )
    )
    ctx = RunContext(
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=2, ladder=("shrink-chunk",)),
    )
    result = match(graph, "P1", config=base, ctx=ctx)
    assert not result.failed
    assert result.count == fault_free.count
    assert result.recovery.devices_failed_over == 1
    assert result.recovery.faults_survived >= 1


def test_failover_disabled_without_retry_policy(graph):
    plan = FaultPlan(
        schedule=(FaultSpec(FaultKind.OOM, gpu="gpu0", attempt=None, at_op=2),)
    )
    cfg = TDFSConfig(num_gpus=2)
    result = match(graph, "P1", config=cfg, ctx=RunContext(fault_plan=plan))
    assert result.failed
    assert "OOM" in result.error


# --------------------------------------------------------------------------- #
# Recovery helpers
# --------------------------------------------------------------------------- #


def test_reshard_groups_round_robin():
    rows = np.arange(10, dtype=np.int64).reshape(5, 2)
    shards = reshard_groups([(rows, 2)], 2)
    assert len(shards) == 2
    assert np.array_equal(shards[0][0][0], rows[0::2])
    assert np.array_equal(shards[1][0][0], rows[1::2])
    assert pending_rows([(rows, 2)]) == 5
    assert pending_rows(None) == 0
    assert pending_rows([]) == 0


def test_reshard_groups_rejects_nonpositive_shards():
    """Regression: num_shards <= 0 used to return [] silently, dropping
    every pending row of a recovery snapshot."""
    rows = np.arange(6, dtype=np.int64).reshape(3, 2)
    with pytest.raises(ReproError, match="num_shards must be >= 1"):
        reshard_groups([(rows, 2)], 0)
    with pytest.raises(ReproError, match="3 pending rows"):
        reshard_groups([(rows, 2)], -1)


def test_reshard_groups_drops_empty_shards():
    """Regression: more shards than rows used to emit empty shard lists,
    which downstream callers would dispatch as no-op device attempts."""
    rows = np.arange(4, dtype=np.int64).reshape(2, 2)
    shards = reshard_groups([(rows, 2)], 5)
    assert len(shards) == 2
    assert all(shard for shard in shards)
    assert sum(pending_rows(s) for s in shards) == 2
    # Preserved rows, positionally aligned with the round-robin rule.
    assert np.array_equal(shards[0][0][0], rows[0::5])
    assert np.array_equal(shards[1][0][0], rows[1::5])


def test_reshard_groups_empty_input():
    assert reshard_groups([], 3) == []


def test_resuming_every_initial_task_is_the_run_itself(graph):
    """One currency of work: the whole initial-task space handed back as a
    recovered group goes down the same fetch path as a fresh run — same
    count, same virtual cycles, same spans (the recovered-rows path used to
    record no ``match`` spans)."""
    from repro.obs import Observability

    query = get_pattern("P3")  # times out on dblp, so "steal" spans exist too
    seen = []
    for resume in (False, True):
        obs = Observability(tracing=True)
        engine = TDFSEngine(ctx=RunContext(obs=obs))
        if resume:
            r = engine.run_resume(graph, query, [(graph.directed_edge_array(), 2)])
        else:
            r = engine.run(graph, query)
        seen.append(
            (
                r.count,
                r.elapsed_cycles,
                r.busy_cycles,
                r.idle_cycles,
                r.chunks_fetched,
                dict(obs.tracer.counts),
            )
        )
    assert seen[0] == seen[1]
    assert seen[0][-1]["match"] > 0 and seen[0][-1]["steal"] > 0


def test_cpu_resume_groups_equals_full_count(graph):
    from repro.baselines.cpu import cpu_count

    engine = TDFSEngine(TDFSConfig())
    plan_q = engine._resolve_plan(get_pattern("P1"))
    full = cpu_count(graph, plan_q)
    edges = graph.directed_edge_array()
    resumed = cpu_count(graph, plan_q, resume_groups=[(edges, 2)])
    assert resumed == full


# --------------------------------------------------------------------------- #
# Satellite fixes: merge_results error aggregation + collect clamp
# --------------------------------------------------------------------------- #


def _mk(count=0, error=None, matches=None):
    r = MatchResult(
        engine="tdfs",
        graph_name="g",
        query_name="q",
        count=count,
        elapsed_cycles=1,
    )
    r.error = error
    r.matches = matches
    return r


def test_merge_results_single_error_unchanged():
    merged = merge_results([_mk(error="OOM"), _mk(count=3)], 2)
    assert merged.error == "OOM"


def test_merge_results_aggregates_all_errors():
    merged = merge_results(
        [_mk(error="OOM"), _mk(count=1), _mk(error="ERR (boom)")], 3
    )
    assert merged.error == "gpu0: OOM | gpu2: ERR (boom)"


def test_merge_results_folds_recovery_stats():
    a, b = _mk(count=1), _mk(count=2)
    a.recovery = RecoveryStats(attempts=2, faults_injected=3, faults_survived=3)
    b.recovery = RecoveryStats(attempts=1, faults_injected=1, faults_survived=1)
    merged = merge_results([a, b], 2)
    assert merged.recovery.attempts == 2
    assert merged.recovery.faults_injected == 4
    assert merged.recovery.faults_survived == 4


def test_multi_gpu_collect_clamps_at_limit(graph):
    limit = 5
    engine = TDFSEngine(TDFSConfig(num_gpus=2))
    plan_q = engine._resolve_plan(get_pattern("P1"))
    result = engine.run(graph, plan_q, collect_matches=limit)
    assert result.matches is not None
    assert len(result.matches) == limit


# --------------------------------------------------------------------------- #
# CLI + serialization
# --------------------------------------------------------------------------- #


def test_cli_chaos_smoke(capsys):
    from repro.cli import main

    code = main(["chaos", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "=== chaos survival report ===" in out
    assert "verdict          : SURVIVED" in out


def test_recovery_stats_in_to_dict(graph, baseline):
    ctx = RunContext(fault_plan=FaultPlan.seeded(0), retry=RetryPolicy())
    result = match(graph, "P1", ctx=ctx)
    d = result.to_dict()
    assert d["recovery"]["attempts"] == result.recovery.attempts
    assert d["recovery"]["faults_injected"] == result.recovery.faults_injected
    assert d["count"] == baseline.count


def test_poison_value_is_out_of_range(graph):
    assert POISON_VALUE > graph.num_vertices

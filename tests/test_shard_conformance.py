"""Shard conformance: multi-process execution must change *nothing*.

The exactness contract of :mod:`repro.shard` has two independent halves,
and this suite pins both over the shared seeded case space
(:mod:`tests.fuzz`, ``REPRO_DIFF_SEED``-sliced like every conformance
suite here):

* **Partition invariance** — the match count is identical to an
  unsharded single-process run for every shard count N (initial tasks
  root independent subtrees, so any partition enumerates every match
  exactly once).
* **Process invariance** — running a shard plan over a
  ``ProcessPoolExecutor`` is bit-equal, on *every* aggregate field
  (count, virtual cycles, busy/idle split, timeout/steal counters,
  queue and memory stats), to executing the identical shard plan
  sequentially inside one process.  Per-shard schedules are
  deterministic simulations, so process boundaries cannot perturb them.

For N=1 the two halves compose into full bit-identity with the plain
unsharded engine run.  For N>1 the per-shard schedules legitimately
differ from the unsharded schedule (each shard runs its own simulated
device), which is exactly why the process-vs-inline comparison — not a
vs-unsharded comparison — is the cycle-accounting conformance probe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Observability, RunContext, TDFSConfig, match
from repro.core.engine import make_engine
from repro.errors import ReproError, UnsupportedError
from repro.query.patterns import get_pattern
from repro.shard import (
    SHARD_STRATEGIES,
    ShardCoordinator,
    ShardPlanner,
)
from tests.fuzz import CONFIG_VARIANTS, TIGHT_QUEUE, assert_views_fold, fuzz_cases

#: Aggregate fields a process-mode run must reproduce bit-for-bit.
CONFORMANCE_FIELDS = (
    "count",
    "elapsed_cycles",
    "busy_cycles",
    "idle_cycles",
    "intersections",
    "reuse_hits",
    "timeouts",
    "steals",
    "overflowed",
)

SHARD_COUNTS = (1, 2, 3, 7)


def coordinator(
    config: TDFSConfig,
    num_shards=None,
    strategy=None,
    fault_shards=(),
    ctx=None,
    **kwargs,
) -> ShardCoordinator:
    """A coordinator over ``config`` with the shard count / strategy mapped
    onto the config and the killed shards onto the context (their homes)."""
    if num_shards is not None:
        config = config.replace(shards=num_shards)
    if strategy is not None:
        config = config.replace(shard_strategy=strategy)
    ctx = ctx or RunContext(shard_faults=tuple(sorted(fault_shards)))
    return ShardCoordinator(make_engine("tdfs", config, ctx), **kwargs)


def assert_bit_equal(a, b, label: str) -> None:
    for f in CONFORMANCE_FIELDS:
        assert getattr(a, f) == getattr(b, f), (
            f"{label}: diverge on {f}: {getattr(a, f)} != {getattr(b, f)}"
        )
    assert (a.queue.enqueued, a.queue.dequeued, a.queue.peak_tasks) == (
        b.queue.enqueued,
        b.queue.dequeued,
        b.queue.peak_tasks,
    ), f"{label}: queue stats diverge"
    assert a.memory.stack_bytes == b.memory.stack_bytes, label
    assert a.recovery.tasks_reexecuted == b.recovery.tasks_reexecuted, label


class TestCountInvariance:
    """Counts must survive any partition, for every config regime."""

    @pytest.mark.parametrize("variant", ["fast", "steal", "no-reuse"])
    def test_unlabeled_sweep(self, variant):
        config = CONFIG_VARIANTS[variant]
        for seed, graph, query in fuzz_cases(3, base=1100):
            base = match(graph, query, config=config)
            for n in SHARD_COUNTS:
                r = coordinator(config, num_shards=n, mode="inline").run(
                    graph, query
                )
                assert r.count == base.count, (
                    f"seed {seed} [{variant}] N={n}: "
                    f"{r.count} != {base.count}"
                )
                assert r.shards == n

    def test_labeled_sweep(self):
        for seed, graph, query in fuzz_cases(3, base=1600, num_labels=4):
            base = match(graph, query, config=CONFIG_VARIANTS["fast"])
            for n in SHARD_COUNTS:
                r = coordinator(
                    CONFIG_VARIANTS["fast"], num_shards=n, mode="inline"
                ).run(graph, query)
                assert r.count == base.count, f"seed {seed} N={n}"

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_strategy_invariance(self, strategy):
        for seed, graph, query in fuzz_cases(2, base=1150):
            base = match(graph, query, config=CONFIG_VARIANTS["fast"])
            r = coordinator(
                CONFIG_VARIANTS["fast"],
                num_shards=4,
                strategy=strategy,
                mode="inline",
            ).run(graph, query)
            assert r.count == base.count, f"seed {seed} [{strategy}]"

    def test_config_shards_path_matches(self):
        """``TDFSConfig(shards=N)`` routes through the coordinator and
        preserves the count end to end (the user-facing wiring)."""
        for seed, graph, query in fuzz_cases(2, base=1180):
            base = match(graph, query, config=TDFSConfig(num_warps=8))
            r = match(
                graph, query, config=TDFSConfig(num_warps=8, shards=3)
            )
            assert r.count == base.count and r.shards == 3


class TestProcessInvariance:
    """Pool-dispatched runs are bit-equal to inline runs of the same plan."""

    @pytest.mark.parametrize(
        "variant", ["fast", "steal", "no-reuse", "scalar-kernel"]
    )
    def test_process_equals_inline(self, variant):
        config = CONFIG_VARIANTS[variant]
        seed, graph, query = next(iter(fuzz_cases(1, base=1200)))
        inline = coordinator(config, num_shards=3, mode="inline").run(
            graph, query
        )
        process = coordinator(config, num_shards=3, mode="process").run(
            graph, query
        )
        assert_bit_equal(inline, process, f"seed {seed} [{variant}] N=3")

    def test_process_equals_inline_labeled(self):
        seed, graph, query = next(
            iter(fuzz_cases(1, base=1650, num_labels=4))
        )
        cfg = CONFIG_VARIANTS["fast"]
        inline = coordinator(cfg, num_shards=7, mode="inline").run(graph, query)
        process = coordinator(cfg, num_shards=7, mode="process").run(
            graph, query
        )
        assert_bit_equal(inline, process, f"seed {seed} labeled N=7")

    def test_half_steal_process_equals_inline(self):
        seed, graph, query = next(iter(fuzz_cases(1, base=1250)))
        cfg = CONFIG_VARIANTS["half-steal"]
        inline = coordinator(cfg, num_shards=2, mode="inline").run(graph, query)
        process = coordinator(cfg, num_shards=2, mode="process").run(
            graph, query
        )
        assert_bit_equal(inline, process, f"seed {seed} half-steal N=2")


class TestSingleShardIdentity:
    """N=1 sharded composes both halves: full bit-identity with unsharded."""

    def test_n1_is_bit_identical_to_unsharded(self):
        for seed, graph, query in fuzz_cases(2, base=1300):
            base = match(graph, query, config=CONFIG_VARIANTS["fast"])
            for mode in ("inline", "process"):
                r = coordinator(
                    CONFIG_VARIANTS["fast"], num_shards=1, mode=mode
                ).run(graph, query)
                assert_bit_equal(base, r, f"seed {seed} N=1 {mode}")

    def test_steal_counters_identical_at_n1(self):
        """The ISSUE's sharpest probe: timeout/steal counters — which move
        with a single mischarged cycle — survive the shard path at N=1."""
        seed, graph, query = next(iter(fuzz_cases(1, base=1901)))
        base = match(graph, query, config=CONFIG_VARIANTS["steal"])
        r = coordinator(
            CONFIG_VARIANTS["steal"], num_shards=1, mode="process"
        ).run(graph, query)
        assert (r.timeouts, r.steals) == (base.timeouts, base.steals)
        assert r.elapsed_cycles == base.elapsed_cycles


class TestOneSetOfBooks:
    def test_every_view_is_the_fold_of_the_shards(self, straggler_graph):
        """``shards=2`` merges through the same routine as devices: every
        typed view of the merged result is the fold of the per-shard runs
        (the hand-written merge lost the queue failures and five more)."""
        config = TIGHT_QUEUE.replace(shards=2)
        coord = coordinator(config, mode="inline")
        plan = coord.engine.compile(get_pattern("P3"))
        merged = coord.run(straggler_graph, plan)
        single = make_engine("tdfs", coord.child_config)
        parts = [  # a shard fetches its share as one edge array (_run_shard)
            single._run_single(
                straggler_graph,
                plan,
                [(np.concatenate([rows for rows, _ in groups]), 2)],
                f"shard{i}",
            )
            for i, groups in enumerate(coord.planner.plan(straggler_graph).shards)
        ]
        assert merged.queue.enqueue_failures > 0 < merged.queue.dequeue_failures
        assert_views_fold(merged, parts)
        assert merged.metrics["shard.process_failures"] == 0


class TestShardFaultRecovery:
    """A dead shard process is re-executed, never lost or double-counted."""

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_killed_shard_recovers_exact_count(self, mode):
        seed, graph, query = next(iter(fuzz_cases(1, base=1400)))
        base = match(graph, query, config=CONFIG_VARIANTS["fast"])
        r = coordinator(
            CONFIG_VARIANTS["fast"],
            num_shards=3,
            mode=mode,
            fault_shards=frozenset({1}),
        ).run(graph, query)
        assert r.count == base.count
        assert r.recovery.devices_failed_over == 1
        assert r.recovery.faults_survived == 1
        assert r.recovery.tasks_reexecuted > 0
        assert r.metrics["shard.process_failures"] == 1

    def test_context_crosses_the_process_boundary_in_one_place(self):
        """A context full of things that cannot (a registry with locks, a
        lambda hook) or must not (the kill list) reach a shard child: the
        process run — through the engine, as a caller reaches it — returns
        the inline count and the shard-level story lands in the caller's
        registry."""
        seed, graph, query = next(iter(fuzz_cases(1, base=1400)))
        config = CONFIG_VARIANTS["fast"].replace(shards=2)
        obs = Observability()
        ctx = RunContext(
            obs=obs,
            checkpoint_every_events=10,
            checkpoint_hook=lambda job, now: None,
            shard_faults=(0,),
        )
        inline = coordinator(config, mode="inline", ctx=ctx).run(graph, query)
        assert obs.flat() == {}  # only a finished top-level run is folded
        process = make_engine("tdfs", config, ctx).run(graph, query)
        published = obs.flat()
        assert_bit_equal(inline, process, "ctx-boundary")
        assert process.count == match(graph, query, config=config).count
        assert published["shard.process_failures"] == 1
        assert published["shard.rows_reexecuted"] > 0
        assert published["engine.matches"] == process.count

    def test_all_shards_killed_still_exact(self):
        seed, graph, query = next(iter(fuzz_cases(1, base=1450)))
        base = match(graph, query, config=CONFIG_VARIANTS["fast"])
        r = coordinator(
            CONFIG_VARIANTS["fast"],
            num_shards=2,
            mode="inline",
            fault_shards=frozenset({0, 1}),
        ).run(graph, query)
        assert r.count == base.count
        assert r.recovery.devices_failed_over == 2


class TestShardPlanner:
    """Partition properties of both strategies."""

    def _rows(self, plan):
        out = []
        for shard in plan.shards:
            for rows, width in shard:
                assert width == 2
                out.extend(map(tuple, rows.tolist()))
        return out

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_partition_is_exact(self, strategy, small_plc):
        edges = small_plc.directed_edge_array()
        plan = ShardPlanner(4, strategy).plan(small_plc)
        got = self._rows(plan)
        assert sorted(got) == sorted(map(tuple, edges.tolist()))
        assert len(got) == len(edges)  # disjoint: no row duplicated

    def test_hash_is_deterministic(self, small_plc):
        a = ShardPlanner(5, "hash").plan(small_plc)
        b = ShardPlanner(5, "hash").plan(small_plc)
        assert a.rows_per_shard() == b.rows_per_shard()
        assert [
            [rows.tolist() for rows, _ in s] for s in a.shards
        ] == [[rows.tolist() for rows, _ in s] for s in b.shards]

    def test_degree_balances_better_than_worst_case(self, skewed_graph):
        plan = ShardPlanner(4, "degree", split_factor=0).plan(skewed_graph)
        # Greedy heaviest-first is within 2x of perfect on any input.
        assert plan.imbalance() <= 2.0

    def test_presplit_engages_on_skew(self, skewed_graph):
        # One hub vertex concentrates weight; with a tight threshold the
        # oversized shard must be re-split through the reshard path.
        plan = ShardPlanner(4, "hash", split_factor=1.01).plan(skewed_graph)
        assert plan.presplit_shards >= 0  # well-formed either way
        assert sum(plan.rows_per_shard()) == len(
            skewed_graph.directed_edge_array()
        )

    def test_more_shards_than_rows(self, triangle):
        plan = ShardPlanner(7, "hash").plan(triangle)
        assert plan.total_rows == len(triangle.directed_edge_array())
        # Some shards are legitimately empty; coordinator runs them as
        # no-op device simulations.
        assert len(plan.shards) == 7

    def test_describe_mentions_strategy(self, small_plc):
        text = ShardPlanner(3, "degree").plan(small_plc).describe()
        assert "3 shards" in text and "degree" in text

    def test_planner_validation(self):
        with pytest.raises(ReproError, match="num_shards"):
            ShardPlanner(0)
        with pytest.raises(ReproError, match="unknown shard strategy"):
            ShardPlanner(2, "random")
        with pytest.raises(ReproError, match="split_factor"):
            ShardPlanner(2, split_factor=-1.0)


class TestConfigAndGates:
    def test_config_validation(self):
        with pytest.raises(ReproError, match="shards must be >= 1"):
            TDFSConfig(shards=0)
        with pytest.raises(ReproError, match="cannot both exceed 1"):
            TDFSConfig(shards=2, num_gpus=2)
        with pytest.raises(ReproError, match="unknown shard strategy"):
            TDFSConfig(shard_strategy="modulo")

    def test_host_filter_engine_rejected(self):
        with pytest.raises(UnsupportedError, match="cannot be sharded"):
            ShardCoordinator(
                make_engine("stmatch", TDFSConfig(num_warps=8))
            )

    def test_bad_mode_rejected(self):
        with pytest.raises(ReproError, match="shard mode"):
            ShardCoordinator(
                make_engine("tdfs", TDFSConfig(num_warps=8)), mode="thread"
            )


class TestServeSharding:
    """Serving wiring: shard-aware cache keys + version-bump invalidation."""

    def test_config_fingerprint_includes_shard_fields(self):
        from repro.serve import config_fingerprint

        base = TDFSConfig(num_warps=8)
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(shards=2)
        )
        assert config_fingerprint(base.replace(shards=2)) != config_fingerprint(
            base.replace(shards=2, shard_strategy="degree")
        )

    def test_serve_config_applies_shards(self):
        """``match_config.shards`` is the one home: no second knob on
        ``ServeConfig`` can contradict it."""
        from repro.serve import ServeConfig

        cfg = ServeConfig(
            workers=1, match_config=TDFSConfig(num_warps=8, shards=2)
        )
        assert cfg.match_config.shards == 2
        with pytest.raises(TypeError):
            ServeConfig(shards=2)

    def test_sharded_service_counts_and_cache(self, small_plc):
        from repro.serve import MatchRequest, MatchService, ServeConfig

        expected = match(
            small_plc, "P1", config=TDFSConfig(num_warps=8)
        ).count
        with MatchService(
            ServeConfig(
                workers=1, match_config=TDFSConfig(num_warps=8, shards=2)
            )
        ) as svc:
            svc.register_graph("g", small_plc)
            first = svc.query("g", "P1", timeout=120.0)
            assert first.ok and first.count == expected
            assert first.result.shards == 2
            repeat = svc.query("g", "P1", timeout=120.0)
            assert repeat.result_cache_hit and repeat.count == expected
            # A graph update bumps the version: the old sharded result
            # must not be served against the new graph.
            svc.update_graph("g", small_plc)
            after = svc.query("g", "P1", timeout=120.0)
            assert not after.result_cache_hit
            assert after.count == expected


class TestCLISharding:
    def test_run_shards_smoke(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "run",
                "--dataset", "dblp",
                "--pattern", "P1",
                "--shards", "2",
                "--warps", "8",
                "-v",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "shards" in out and "matches" in out

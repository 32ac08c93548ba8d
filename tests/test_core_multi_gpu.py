"""Tests for multi-GPU round-robin scale-out (paper Fig. 12)."""

import pytest

from repro import Observability, RunContext, TDFSConfig, match
from repro.baselines.cpu import cpu_count
from repro.core.engine import TDFSEngine
from repro.core.multi_gpu import merge_results
from repro.core.result import MatchResult
from repro.query.patterns import get_pattern
from repro.query.plan import compile_plan
from tests.fuzz import TIGHT_QUEUE, assert_views_fold


def run_gpus(graph, pattern, n):
    cfg = TDFSConfig(num_warps=8, num_gpus=n)
    return TDFSEngine(cfg).run(graph, get_pattern(pattern))


class TestMultiGPU:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_counts_independent_of_gpu_count(self, small_plc, n):
        plan = compile_plan(get_pattern("P3"))
        expect = cpu_count(small_plc, plan)
        assert run_gpus(small_plc, "P3", n).count == expect

    def test_speedup_with_more_gpus(self, small_plc):
        one = run_gpus(small_plc, "P3", 1)
        four = run_gpus(small_plc, "P3", 4)
        assert four.elapsed_cycles < one.elapsed_cycles
        # Round-robin should scale well (paper: "ideal speedup"); allow
        # generous slack for the small test graph.
        speedup = one.elapsed_cycles / four.elapsed_cycles
        assert speedup > 1.8

    def test_num_gpus_recorded(self, small_plc):
        assert run_gpus(small_plc, "P1", 2).num_gpus == 2

    def test_labeled_multi_gpu(self, labeled_plc):
        cfg = TDFSConfig(num_warps=8, num_gpus=2)
        plan = compile_plan(get_pattern("P12"))
        expect = cpu_count(labeled_plc, plan)
        assert TDFSEngine(cfg).run(labeled_plc, plan).count == expect


class TestOneSetOfBooks:
    """A merged result's statistics are the fold of its devices' — every
    typed view, not the subset a hand-written merge remembered (it dropped
    ``queue.*_failures``, ``memory.pages_allocated`` / ``arena_bytes`` /
    ``queue_bytes`` / ``graph_bytes`` and ``matches_per_warp_max``)."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_view_is_the_fold_of_the_devices(self, straggler_graph, n):
        plan = compile_plan(get_pattern("P3"))
        merged = TDFSEngine(TIGHT_QUEUE.replace(num_gpus=n)).run(
            straggler_graph, plan
        )
        edges = straggler_graph.directed_edge_array()
        single = TDFSEngine(TIGHT_QUEUE)
        parts = [
            single._run_single(straggler_graph, plan, [(edges[g::n], 2)], f"gpu{g}")
            for g in range(n)
        ]
        assert merged.queue.enqueue_failures > 0 < merged.queue.dequeue_failures
        assert merged.memory.pages_allocated > 0
        assert_views_fold(merged, parts)

    def test_metrics_are_this_run_alone_under_a_shared_registry(self, small_plc):
        obs = Observability()
        engine = TDFSEngine(TDFSConfig(num_warps=8, num_gpus=2), RunContext(obs=obs))
        first = engine.run(small_plc, get_pattern("P3"))
        second = engine.run(small_plc, get_pattern("P3"))
        assert second.metrics == first.metrics
        assert second.metrics["engine.matches"] == second.count
        flat = obs.flat()
        assert flat["engine.matches"] == 2 * second.count
        assert flat["sim.events"] == 2 * second.metrics["sim.events"]
        assert flat["queue.occupancy.peak"] == second.queue.peak_tasks


class TestHostPrefilteredMultiGPU:
    """Regression: STMatch's host prefilter must filter the rows a device
    was dealt — it used to filter every directed edge on every device, so
    ``num_gpus=n`` counted n times."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_unlabeled_matches_cpu(self, small_plc, n):
        want = match(small_plc, "P2", engine="cpu").count
        cfg = TDFSConfig(num_warps=8, num_gpus=n)
        got = match(small_plc, "P2", engine="stmatch", config=cfg)
        assert want > 0 and got.count == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_labeled_matches_cpu(self, labeled_plc, n):
        want = match(labeled_plc, "P12", engine="cpu").count
        cfg = TDFSConfig(num_warps=8, num_gpus=n)
        got = match(labeled_plc, "P12", engine="stmatch", config=cfg)
        assert want > 0 and got.count == want

    def test_host_work_is_split_not_repeated(self, small_plc):
        one, two = (
            match(
                small_plc, "P2", engine="stmatch",
                config=TDFSConfig(num_warps=8, num_gpus=n),
            )
            for n in (1, 2)
        )
        per_edge = TDFSConfig().cost.cpu_edge_filter
        assert one.host_preprocess_cycles == small_plc.num_directed_edges * per_edge
        assert two.host_preprocess_cycles == one.host_preprocess_cycles


class TestMergeResults:
    def _mk(self, count, elapsed, error=None):
        r = MatchResult(
            engine="tdfs",
            graph_name="g",
            query_name="q",
            count=count,
            elapsed_cycles=elapsed,
        )
        r.error = error
        return r

    def test_counts_sum_elapsed_max(self):
        merged = merge_results([self._mk(5, 100), self._mk(7, 250)], 2)
        assert merged.count == 12
        assert merged.elapsed_cycles == 250
        assert merged.num_gpus == 2

    def test_error_propagates(self):
        merged = merge_results([self._mk(5, 100), self._mk(0, 10, "OOM")], 2)
        assert merged.error == "OOM"

    def test_overflow_propagates(self):
        a, b = self._mk(1, 1), self._mk(1, 1)
        b.overflowed = True
        assert merge_results([a, b], 2).overflowed

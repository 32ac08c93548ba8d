"""Edge-case tests for engines: tiny inputs, failure paths, accounting."""

import pytest

from repro import StackMode, Strategy, TDFSConfig, from_edges, match
from repro.baselines.egsm import ChildKernelJob
from repro.core.engine import TDFSEngine
from repro.errors import UnsupportedError
from repro.query.pattern import QueryGraph
from repro.query.patterns import get_pattern
from repro.query.plan import compile_plan

FAST = TDFSConfig(num_warps=8)


class TestTinyInputs:
    def test_single_edge_graph(self):
        g = from_edges([(0, 1)])
        edge_query = QueryGraph(2, [(0, 1)], name="edge")
        result = TDFSEngine(FAST).run(g, edge_query)
        # One undirected edge = one instance (symmetry breaking halves the
        # two directed embeddings).
        assert result.count == 1

    def test_edge_query_on_triangle(self, triangle):
        edge_query = QueryGraph(2, [(0, 1)], name="edge")
        assert TDFSEngine(FAST).run(triangle, edge_query).count == 3

    def test_triangle_query_three_vertices(self, triangle):
        tri = QueryGraph(3, [(0, 1), (1, 2), (2, 0)], name="tri")
        assert TDFSEngine(FAST).run(triangle, tri).count == 1

    def test_empty_graph(self):
        g = from_edges([], num_vertices=10)
        assert TDFSEngine(FAST).run(g, get_pattern("P1")).count == 0

    def test_pattern_larger_than_graph(self, triangle):
        assert TDFSEngine(FAST).run(triangle, get_pattern("P8")).count == 0

    def test_path_query_on_path(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)])
        path3 = QueryGraph(3, [(0, 1), (1, 2)], name="path3")
        # Paths 0-1-2 and 1-2-3, each counted once (|Aut| = 2).
        assert TDFSEngine(FAST).run(g, path3).count == 2

    def test_single_warp(self, small_plc):
        cfg = TDFSConfig(num_warps=1)
        plan = compile_plan(get_pattern("P1"))
        a = TDFSEngine(cfg).run(small_plc, plan)
        b = TDFSEngine(FAST).run(small_plc, plan)
        assert a.count == b.count

    def test_huge_chunk_size(self, small_plc):
        cfg = FAST.replace(chunk_size=10**6)
        plan = compile_plan(get_pattern("P1"))
        assert (
            TDFSEngine(cfg).run(small_plc, plan).count
            == TDFSEngine(FAST).run(small_plc, plan).count
        )


class TestFailurePaths:
    def test_graph_too_big_for_device(self, small_plc):
        cfg = FAST.replace(device_memory=64)
        result = TDFSEngine(cfg).run(small_plc, get_pattern("P1"))
        assert result.error == "OOM"

    def test_queue_does_not_fit(self, small_plc):
        cfg = FAST.replace(
            device_memory=small_plc.memory_bytes() + 1024,
            queue_capacity_tasks=10**6,
        )
        result = TDFSEngine(cfg).run(small_plc, get_pattern("P1"))
        assert result.error == "OOM"

    def test_failed_result_carries_names(self, small_plc):
        cfg = FAST.replace(device_memory=64)
        result = TDFSEngine(cfg).run(small_plc, get_pattern("P4"))
        assert result.graph_name == small_plc.name
        assert result.query_name == "P4"
        assert result.failed


class TestAccounting:
    def test_busy_plus_idle_positive(self, small_plc):
        result = TDFSEngine(FAST).run(small_plc, get_pattern("P3"))
        assert result.busy_cycles > 0
        assert result.busy_cycles + result.idle_cycles > 0

    def test_makespan_at_least_busiest_warp(self, small_plc):
        result = TDFSEngine(FAST).run(small_plc, get_pattern("P3"))
        # Makespan cannot be smaller than total work / warps.
        assert result.elapsed_cycles * FAST.num_warps >= result.busy_cycles

    def test_elapsed_deterministic(self, small_plc):
        plan = compile_plan(get_pattern("P3"))
        a = TDFSEngine(FAST).run(small_plc, plan)
        b = TDFSEngine(FAST).run(small_plc, plan)
        assert a.elapsed_cycles == b.elapsed_cycles

    def test_host_offset_included_in_makespan(self, small_plc):
        from repro.baselines.stmatch import STMatchEngine

        result = STMatchEngine(FAST).run(small_plc, get_pattern("P1"))
        assert result.elapsed_cycles > result.host_preprocess_cycles

    def test_arena_capped_by_device_memory(self, small_plc):
        cfg = FAST.replace(device_memory=512 * 1024, arena_pages=10**7)
        result = TDFSEngine(cfg).run(small_plc, get_pattern("P1"))
        assert not result.failed
        assert result.memory.arena_bytes < 512 * 1024

    def test_stack_modes_report_memory(self, small_plc):
        for mode in StackMode:
            cfg = FAST.replace(stack_mode=mode)
            result = TDFSEngine(cfg).run(small_plc, get_pattern("P3"))
            assert result.memory.stack_bytes > 0, mode


class TestStrategyEdgeCases:
    def test_half_steal_single_warp(self, small_plc):
        # With one warp there is nobody to steal from; must still finish.
        cfg = TDFSConfig(num_warps=1, strategy=Strategy.HALF_STEAL)
        plan = compile_plan(get_pattern("P3"), enable_reuse=True)
        result = TDFSEngine(cfg).run(small_plc, plan)
        assert result.steals == 0
        assert result.count > 0

    def test_new_kernel_threshold_one(self, small_plc, monkeypatch):
        # Pathological threshold: everything spawns kernels; still correct.
        monkeypatch.setattr(ChildKernelJob, "fanout", 1)
        cfg = FAST.replace(strategy=Strategy.NEW_KERNEL)
        plan = compile_plan(get_pattern("P1"))
        base = TDFSEngine(FAST).run(small_plc, plan)
        kern = TDFSEngine(cfg).run(small_plc, plan)
        if not kern.failed:  # kernel storms may legitimately OOM
            assert kern.count == base.count

    def test_tau_one_cycle(self, small_plc):
        cfg = FAST.replace(tau_cycles=1)
        plan = compile_plan(get_pattern("P3"))
        base = TDFSEngine(FAST).run(small_plc, plan)
        aggressive = TDFSEngine(cfg).run(small_plc, plan)
        assert aggressive.count == base.count
        assert aggressive.timeouts >= base.timeouts

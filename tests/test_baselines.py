"""Tests for the baseline engines: CPU, STMatch, EGSM, PBE."""

import pytest

from repro import TDFSConfig, load_dataset, match
from repro.baselines.cpu import CPUEngine, cpu_count
from repro.baselines.ctindex import CuckooTrieIndex
from repro.baselines.egsm import EGSMEngine
from repro.baselines.pbe import PBEEngine
from repro.baselines.stmatch import STMatchEngine, STMatchJob
from repro.core import config as config_module
from repro.core.engine import TDFSEngine
from repro.errors import UnsupportedError
from repro.query.patterns import get_pattern
from repro.query.plan import compile_plan

FAST = TDFSConfig(num_warps=8)


class TestCPUReference:
    def test_triangle_count(self, k4):
        tri = compile_plan(get_pattern("P2"))
        assert cpu_count(k4, tri) == 1

    def test_collect_embeddings(self, k4):
        plan = compile_plan(get_pattern("P1"))
        found = []
        n = cpu_count(k4, plan, collect=found)
        assert len(found) == n == 6
        # Every collected match is a set of 4 distinct vertices.
        assert all(len(set(m)) == 4 for m in found)

    def test_collect_is_in_ascending_dfs_order(self):
        # Large enough that a set's iteration order is not ascending.
        graph, plan = load_dataset("dblp"), compile_plan(get_pattern("P1"))
        found: list = []
        assert cpu_count(graph, plan, collect=found) == len(found) == 592
        assert found == sorted(found)
        first: list = []
        assert cpu_count(graph, plan, collect=first, collect_limit=50) == 592
        assert first == found[:50]

    def test_engine_wrapper(self, k4):
        result = CPUEngine().run(k4, get_pattern("P1"))
        assert result.engine == "cpu"
        assert result.count == 6

    def test_labeled_guard(self, small_plc):
        with pytest.raises(UnsupportedError):
            CPUEngine().run(small_plc, get_pattern("P12"))

    def test_reference_refuses_a_labeled_query_on_an_unlabeled_graph(
        self, small_plc
    ):
        plan = compile_plan(get_pattern("P12"))
        with pytest.raises(UnsupportedError):
            cpu_count(small_plc, plan)
        # The cpu-fallback rung's call: resume mode refuses too.
        edges = small_plc.directed_edge_array()
        with pytest.raises(UnsupportedError):
            cpu_count(small_plc, plan, resume_groups=[(edges, 2)])

    def test_fallback_rung_never_ignores_labels(self, small_plc):
        from repro.core.config import RunContext
        from repro.faults.plan import RUNG_CPU_FALLBACK, FaultPlan, RetryPolicy

        # Every device attempt dies at once, so only the fallback can count.
        ctx = RunContext(
            fault_plan=FaultPlan(seed=1, illegal_access_rate=1.0),
            retry=RetryPolicy(max_attempts=2, ladder=(RUNG_CPU_FALLBACK,)),
        )
        engine = TDFSEngine(FAST, ctx)
        labeled = small_plc.with_labels([v % 4 for v in range(small_plc.num_vertices)])
        result = engine.run(labeled, get_pattern("P12"))
        assert result.recovery.degradations == [RUNG_CPU_FALLBACK]
        assert result.count == cpu_count(labeled, compile_plan(get_pattern("P12")))
        edges = small_plc.directed_edge_array()
        with pytest.raises(UnsupportedError):
            engine.run_resume(small_plc, get_pattern("P12"), [(edges, 2)])


class TestSTMatch:
    def test_forced_identity(self):
        engine = STMatchEngine(FAST)
        from repro.core.config import StackMode, Strategy

        assert engine.config.strategy is Strategy.HALF_STEAL
        assert engine.config.stack_mode is StackMode.ARRAY_FIXED
        assert not engine.config.enable_reuse

    def test_job_pays_the_removal_pass(self, small_plc, monkeypatch):
        # STMatchJob charges the separate set-difference pass; the same run
        # without it finds the same matches in fewer cycles.
        paid = STMatchEngine(FAST).run(small_plc, get_pattern("P3"))
        monkeypatch.setattr(STMatchJob, "stmatch_removal", False)
        unpaid = STMatchEngine(FAST).run(small_plc, get_pattern("P3"))
        assert paid.count == unpaid.count
        assert paid.elapsed_cycles > unpaid.elapsed_cycles

    def test_correct_when_capacity_suffices(self, small_plc):
        plan = compile_plan(get_pattern("P3"), enable_reuse=False)
        expect = cpu_count(small_plc, plan)
        result = STMatchEngine(FAST).run(small_plc, get_pattern("P3"))
        assert result.count == expect
        assert not result.overflowed

    def test_wrong_on_skewed_graph(self, skewed_graph, monkeypatch):
        # The paper's finding: fixed 4096-slot levels silently truncate.
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        plan = compile_plan(get_pattern("P3"))
        expect = cpu_count(skewed_graph, plan)
        result = STMatchEngine(FAST).run(skewed_graph, get_pattern("P3"))
        assert result.overflowed
        assert result.count != expect

    def test_dmax_variant_restores_correctness(self, skewed_graph, monkeypatch):
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        plan = compile_plan(get_pattern("P3"))
        expect = cpu_count(skewed_graph, plan)
        engine = STMatchEngine(FAST).with_dmax_stacks()
        result = engine.run(skewed_graph, get_pattern("P3"))
        assert result.count == expect
        assert not result.overflowed

    def test_host_preprocessing_charged(self, small_plc):
        result = STMatchEngine(FAST).run(small_plc, get_pattern("P1"))
        assert result.host_preprocess_cycles > 0
        assert result.elapsed_cycles >= result.host_preprocess_cycles

    def test_slower_than_tdfs(self, small_plc):
        st = STMatchEngine(FAST).run(small_plc, get_pattern("P3"))
        td = TDFSEngine(FAST).run(small_plc, get_pattern("P3"))
        assert st.elapsed_cycles > td.elapsed_cycles


class TestEGSM:
    def test_no_symmetry_counts_embeddings(self, small_plc):
        plan = compile_plan(get_pattern("P1"))
        inst = cpu_count(small_plc, plan)
        result = EGSMEngine(FAST).run(small_plc, get_pattern("P1"))
        assert result.count == inst * plan.aut_size
        assert result.count_instances == inst

    def test_labeled_counts_match(self, labeled_plc):
        plan_nosym = compile_plan(get_pattern("P12"), enable_symmetry=False)
        expect = cpu_count(labeled_plc, plan_nosym)
        result = EGSMEngine(FAST).run(labeled_plc, get_pattern("P12"))
        assert result.count == expect

    def test_ct_index_oom(self, small_plc):
        cfg = FAST.replace(device_memory=small_plc.memory_bytes() + 2048)
        result = EGSMEngine(cfg).run(small_plc, get_pattern("P3"))
        assert result.error == "OOM"

    def test_index_memory_shrinks_with_labels(self, small_plc):
        from repro.graph.builder import relabel_random

        plan4 = compile_plan(
            get_pattern("P12"), enable_symmetry=False
        )
        g4 = relabel_random(small_plc, 4, seed=1)
        g16 = relabel_random(small_plc, 16, seed=1)
        idx4 = CuckooTrieIndex(g4, plan4)
        idx16 = CuckooTrieIndex(g16, plan4)
        assert idx16.memory_bytes() < idx4.memory_bytes()

    def test_label_pruned_adjacency(self, labeled_plc):
        plan = compile_plan(get_pattern("P12"), enable_symmetry=False)
        idx = CuckooTrieIndex(labeled_plc, plan)
        v = int(labeled_plc.degrees.argmax())
        full = labeled_plc.neighbors(v)
        pruned = idx.neighbors_with_label(v, 0)
        assert pruned.size <= full.size
        assert all(labeled_plc.label(int(x)) == 0 for x in pruned)

    def test_memory_multiplier_applied(self):
        # 3 trie levels x non-coalesced access penalty (see egsm.py).
        assert EGSMEngine(FAST).config.cost.memory_multiplier > 1.0


class TestPBE:
    def test_counts_match_reference(self, small_plc):
        plan = compile_plan(get_pattern("P3"))
        expect = cpu_count(small_plc, plan)
        result = PBEEngine(FAST).run(small_plc, get_pattern("P3"))
        assert result.count == expect

    def test_unlabeled_only(self, labeled_plc):
        with pytest.raises(UnsupportedError):
            PBEEngine(FAST).run(labeled_plc, get_pattern("P12"))

    def test_perfect_balance(self, small_plc):
        result = PBEEngine(FAST).run(small_plc, get_pattern("P1"))
        assert result.load_imbalance == 1.0

    def test_batching_under_memory_pressure(self, small_plc):
        tight = FAST.replace(
            device_memory=small_plc.memory_bytes() + 16 * 1024
        )
        plan = compile_plan(get_pattern("P3"))
        expect = cpu_count(small_plc, plan)
        result = PBEEngine(tight).run(small_plc, get_pattern("P3"))
        assert result.count == expect  # pipelining preserves correctness
        assert result.chunks_fetched > PBEEngine(FAST).run(
            small_plc, get_pattern("P3")
        ).chunks_fetched

    def test_batching_costs_time(self, small_plc):
        tight = FAST.replace(device_memory=small_plc.memory_bytes() + 16 * 1024)
        slow = PBEEngine(tight).run(small_plc, get_pattern("P3"))
        fast = PBEEngine(FAST).run(small_plc, get_pattern("P3"))
        assert slow.elapsed_cycles > fast.elapsed_cycles


class TestCrossEngine:
    @pytest.mark.parametrize("pattern", ["P1", "P2", "P3", "P4"])
    def test_all_engines_agree(self, small_plc, pattern):
        plan = compile_plan(get_pattern(pattern))
        expect = cpu_count(small_plc, plan)
        td = match(small_plc, pattern, engine="tdfs", config=FAST)
        st = match(small_plc, pattern, engine="stmatch", config=FAST)
        eg = match(small_plc, pattern, engine="egsm", config=FAST)
        pb = match(small_plc, pattern, engine="pbe", config=FAST)
        assert td.count == expect
        assert pb.count == expect
        assert eg.count == expect * plan.aut_size
        if not st.overflowed:
            assert st.count == expect

"""Unit/integration tests for the T-DFS engine itself."""

import pytest

from repro import QueryGraph, RunContext, StackMode, Strategy, TDFSConfig, match
from repro.baselines.cpu import cpu_count
from repro.alloc import ouroboros
from repro.core import config as config_module
from repro.core import engine as engine_module
from repro.core.engine import TDFSEngine
from repro.errors import ReproError, UnsupportedError
from repro.planner.search import PlannerConfig
from repro.query.patterns import get_pattern
from repro.query.plan import compile_plan


class TestBasicRuns:
    def test_k4_diamonds(self, k4, fast_config):
        result = TDFSEngine(fast_config).run(k4, get_pattern("P1"))
        assert result.count == 6
        assert not result.failed

    def test_k4_clique(self, k4, fast_config):
        result = TDFSEngine(fast_config).run(k4, get_pattern("P2"))
        assert result.count == 1
        assert result.count_embeddings == 24

    def test_k6_known_counts(self, k6, fast_config):
        engine = TDFSEngine(fast_config)
        # C(6,5) five-cliques in K6.
        assert engine.run(k6, get_pattern("P7")).count == 6
        # Diamonds in K6: choose the shared edge (15) × choose apexes C(4,2).
        assert engine.run(k6, get_pattern("P1")).count == 90

    def test_no_match(self, triangle, fast_config):
        result = TDFSEngine(fast_config).run(triangle, get_pattern("P2"))
        assert result.count == 0

    def test_matches_cpu_reference(self, small_plc, fast_config):
        for name in ("P1", "P2", "P3", "P5"):
            plan = compile_plan(get_pattern(name))
            expect = cpu_count(small_plc, plan)
            got = TDFSEngine(fast_config).run(small_plc, plan)
            assert got.count == expect, name

    def test_elapsed_positive(self, small_plc, fast_config):
        result = TDFSEngine(fast_config).run(small_plc, get_pattern("P1"))
        assert result.elapsed_cycles > 0
        assert result.elapsed_ms > 0

    def test_labeled_query_needs_labeled_graph(self, small_plc, fast_config):
        with pytest.raises(UnsupportedError):
            TDFSEngine(fast_config).run(small_plc, get_pattern("P12"))

    def test_labeled_run(self, labeled_plc, fast_config):
        plan = compile_plan(get_pattern("P12"))
        expect = cpu_count(labeled_plc, plan)
        got = TDFSEngine(fast_config).run(labeled_plc, plan)
        assert got.count == expect

    def test_match_helper_accepts_pattern_name(self, k4):
        assert match(k4, "P1").count == 6

    def test_match_helper_rejects_unknown_engine(self, k4):
        with pytest.raises(UnsupportedError):
            match(k4, "P1", engine="gpuzilla")


class TestPlanMemo:
    """A bare ``match()`` compiles a query's greedy-order plan once per
    ``(enable_symmetry, enable_reuse)`` and keeps it on the query; a
    planner-on run still plans against its graph."""

    @staticmethod
    def _fresh(name):
        q = get_pattern(name)
        return QueryGraph(q.num_vertices, q.edges(), q.labels, name=q.name)

    @pytest.fixture()
    def compiles(self, monkeypatch):
        calls = []
        compile_ = engine_module.compile_plan

        def spy(query, *args, **kwargs):
            calls.append(kwargs)
            return compile_(query, *args, **kwargs)

        monkeypatch.setattr(engine_module, "compile_plan", spy)
        return calls

    def test_compiled_once_per_flags(self, small_plc, compiles):
        query = self._fresh("P7")
        first = match(small_plc, query)
        assert match(small_plc, query).count == first.count
        assert len(compiles) == 1
        off = TDFSConfig(enable_reuse=False)
        assert match(small_plc, query, config=off).count == first.count
        match(small_plc, query, config=off)
        assert len(compiles) == 2
        assert set(query._plans) == {(True, True), (True, False)}

    def test_planner_plans_per_graph(self, small_plc, compiles):
        query = self._fresh("P1")
        cfg = TDFSConfig(planner=PlannerConfig(beam_width=4, samples=64, descents=4))
        match(small_plc, query, config=cfg)
        assert not compiles and not hasattr(query, "_plans")

    @pytest.mark.parametrize("engine", ["tdfs", "stmatch", "egsm", "pbe", "cpu"])
    def test_engines_leave_the_plan_as_compiled(self, engine, small_plc):
        query = self._fresh("P3")
        plan = TDFSEngine(TDFSConfig()).compile(query)
        snapshot = (repr(plan), dict(plan._pos_of))
        match(small_plc, query, engine=engine)
        match(small_plc, plan, engine=engine)
        assert query._plans[True, True] is plan
        assert (repr(plan), dict(plan._pos_of)) == snapshot
        assert plan == compile_plan(query)


class TestStackModes:
    @pytest.mark.parametrize(
        "mode", [StackMode.PAGED, StackMode.ARRAY_DMAX, StackMode.ARRAY_FIXED]
    )
    def test_counts_equal_across_modes(self, small_plc, mode):
        # small_plc's candidate sets stay below the fixed capacity, so all
        # three modes must agree.
        cfg = TDFSConfig(num_warps=8, stack_mode=mode)
        plan = compile_plan(get_pattern("P3"))
        expect = cpu_count(small_plc, plan)
        assert TDFSEngine(cfg).run(small_plc, plan).count == expect

    def test_fixed_truncation_detected(self, skewed_graph, monkeypatch):
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        cfg = TDFSConfig(num_warps=8, stack_mode=StackMode.ARRAY_FIXED)
        plan = compile_plan(get_pattern("P3"))
        result = TDFSEngine(cfg).run(skewed_graph, plan)
        assert result.overflowed
        assert result.count < cpu_count(skewed_graph, plan)

    def test_full_page_table_raises(self, skewed_graph):
        # A paged level overflows only when its page table is full.
        cfg = TDFSConfig(num_warps=8, page_table_size=1)
        result = TDFSEngine(cfg).run(skewed_graph, get_pattern("P3"))
        assert result.error == "STACK_OVERFLOW"
        assert not result.overflowed

    def test_page_size_is_the_allocators_constant(self, skewed_graph, monkeypatch):
        plan = compile_plan(get_pattern("P3"))
        wide = TDFSEngine(TDFSConfig(num_warps=8)).run(skewed_graph, plan)
        monkeypatch.setattr(ouroboros, "DEFAULT_PAGE_BYTES", 16)
        narrow = TDFSEngine(TDFSConfig(num_warps=8)).run(skewed_graph, plan)
        assert narrow.count == wide.count
        assert narrow.memory.pages_allocated > wide.memory.pages_allocated

    def test_paged_uses_less_stack_memory(self, skewed_graph):
        plan = compile_plan(get_pattern("P3"))
        paged = TDFSEngine(TDFSConfig(num_warps=8)).run(skewed_graph, plan)
        arr = TDFSEngine(
            TDFSConfig(num_warps=8, stack_mode=StackMode.ARRAY_DMAX)
        ).run(skewed_graph, plan)
        assert paged.count == arr.count
        assert paged.memory.stack_bytes < arr.memory.stack_bytes
        assert paged.memory.pages_allocated > 0

    def test_paged_slower_than_array(self, skewed_graph):
        # Paper Tables VI/VIII: paging costs time for the memory savings.
        plan = compile_plan(get_pattern("P3"))
        paged = TDFSEngine(TDFSConfig(num_warps=8)).run(skewed_graph, plan)
        arr = TDFSEngine(
            TDFSConfig(num_warps=8, stack_mode=StackMode.ARRAY_DMAX)
        ).run(skewed_graph, plan)
        assert paged.elapsed_cycles > arr.elapsed_cycles


class TestOptimizationToggles:
    def test_reuse_does_not_change_counts(self, small_plc):
        plan_on = compile_plan(get_pattern("P1"), enable_reuse=True)
        plan_off = compile_plan(get_pattern("P1"), enable_reuse=False)
        a = TDFSEngine(TDFSConfig(num_warps=8)).run(small_plc, plan_on)
        b = TDFSEngine(
            TDFSConfig(num_warps=8, enable_reuse=False)
        ).run(small_plc, plan_off)
        assert a.count == b.count

    def test_reuse_saves_time(self, small_plc):
        # P1 diamond is the canonical reuse case (paper Fig. 7).
        a = TDFSEngine(TDFSConfig(num_warps=8)).run(small_plc, get_pattern("P1"))
        b = TDFSEngine(
            TDFSConfig(num_warps=8, enable_reuse=False)
        ).run(small_plc, get_pattern("P1"))
        assert a.elapsed_cycles <= b.elapsed_cycles

    def test_edge_filter_does_not_change_counts(self, small_plc):
        a = TDFSEngine(TDFSConfig(num_warps=8)).run(small_plc, get_pattern("P2"))
        b = TDFSEngine(
            TDFSConfig(num_warps=8, enable_edge_filter=False)
        ).run(small_plc, get_pattern("P2"))
        assert a.count == b.count

    def test_symmetry_invariant(self, small_plc):
        # embeddings == instances × |Aut| (the key correctness invariant).
        for name in ("P1", "P2", "P3"):
            plan_on = compile_plan(get_pattern(name), enable_symmetry=True)
            plan_off = compile_plan(get_pattern(name), enable_symmetry=False)
            inst = TDFSEngine(TDFSConfig(num_warps=8)).run(small_plc, plan_on)
            emb = TDFSEngine(
                TDFSConfig(num_warps=8, enable_symmetry=False)
            ).run(small_plc, plan_off)
            assert emb.count == inst.count * plan_on.aut_size, name


class TestConfigValidation:
    def test_rejects_zero_warps(self):
        with pytest.raises(ReproError):
            TDFSConfig(num_warps=0)

    def test_rejects_zero_chunk(self):
        with pytest.raises(ReproError):
            TDFSConfig(chunk_size=0)

    @pytest.mark.parametrize(
        "field, value",
        [("arena_pages", 0)],
    )
    def test_rejects_stack_sizes_a_run_cannot_use(self, field, value):
        # Each of these used to fail mid-run with an untyped error.
        with pytest.raises(ReproError, match=field):
            TDFSConfig(**{field: value})
        with pytest.raises(ReproError, match=field):
            TDFSConfig().replace(**{field: value})

    def test_run_context_validates_its_fields(self):
        with pytest.raises(ReproError, match="shard_faults"):
            RunContext(shard_faults=[-1])
        with pytest.raises(ReproError, match="checkpoint_every_events"):
            RunContext(checkpoint_every_events=-1)

    def test_tau_ms_roundtrip(self):
        cfg = TDFSConfig().with_tau_ms(0.5)
        assert cfg.tau_ms == pytest.approx(0.5)

    def test_tau_infinity_disables(self):
        cfg = TDFSConfig().with_tau_ms(float("inf"))
        assert cfg.strategy is Strategy.NONE

    def test_stats_populated(self, small_plc, fast_config):
        result = TDFSEngine(fast_config).run(small_plc, get_pattern("P3"))
        assert result.chunks_fetched > 0
        assert result.busy_cycles > 0
        assert result.memory.graph_bytes == small_plc.memory_bytes()
        assert result.memory.device_peak_bytes > 0

"""Misc unit tests: PBE batching, CT-index arithmetic, engine plumbing."""

import numpy as np
import pytest

from repro import TDFSConfig
from repro.baselines.ctindex import CuckooTrieIndex
from repro.baselines.egsm import EGSMEngine
from repro.baselines.pbe import PBEEngine, bfs_expand_level
from repro.baselines.stmatch import STMatchEngine, STMatchJob
from repro.core.config import StackMode, Strategy
from repro.core.engine import job_class
from repro.gpusim.costmodel import CostModel
from repro.graph.builder import from_edges, relabel_random
from repro.query.patterns import get_pattern
from repro.query.plan import compile_plan

COST = CostModel()
FAST = TDFSConfig(num_warps=8)


class TestBfsExpandLevel:
    def setup_method(self):
        self.graph = from_edges(
            [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
        )  # K4
        self.plan = compile_plan(get_pattern("P2"))  # K4 query

    def test_expand_grows_width(self):
        partials = self.graph.directed_edge_array().astype(np.int32)
        work, nxt, found = bfs_expand_level(
            self.graph, self.plan, partials, 2, COST
        )
        assert work > 0
        assert found == 0  # position 2 is not the leaf for k=4
        assert nxt.shape[1] == 3

    def test_leaf_level_counts(self):
        partials = self.graph.directed_edge_array().astype(np.int32)
        _, lvl3, _ = bfs_expand_level(self.graph, self.plan, partials, 2, COST)
        _, empty, found = bfs_expand_level(self.graph, self.plan, lvl3, 3, COST)
        assert empty.size == 0
        # Raw directed edges (unfiltered) would overcount; the symmetry
        # constraints embedded in filter_candidates keep it exact only for
        # properly filtered roots, so just require consistency:
        assert found >= 1

    def test_double_pass_doubles_work(self):
        partials = self.graph.directed_edge_array().astype(np.int32)
        w1, _, _ = bfs_expand_level(self.graph, self.plan, partials, 2, COST, False)
        w2, _, _ = bfs_expand_level(self.graph, self.plan, partials, 2, COST, True)
        assert w2 == 2 * w1


class TestPBEBatching:
    def test_plan_batches_counts_memory(self, small_plc):
        engine = PBEEngine(FAST)
        plan = compile_plan(get_pattern("P3"))
        partials = small_plc.directed_edge_array().astype(np.int32)
        one, overhead_one = engine._plan_batches(
            small_plc, plan, partials, 2, 10**9, COST
        )
        many, overhead_many = engine._plan_batches(
            small_plc, plan, partials, 2, 8192, COST
        )
        assert one == 1 and overhead_one == 0
        assert many > 1 and overhead_many > 0


class TestCTIndexArithmetic:
    def test_unlabeled_counts_all_edges(self, small_plc):
        plan = compile_plan(get_pattern("P1"), enable_symmetry=False)
        idx = CuckooTrieIndex(small_plc, plan)
        # Degree filters only: candidates bounded by total directed edges
        # per query edge.
        assert idx._edge_candidates <= small_plc.num_directed_edges * len(
            plan.query.edges()
        )
        assert idx.memory_bytes() == (
            idx._vertex_candidates + idx._edge_candidates
        ) * 12

    def test_labeled_prunes(self, small_plc):
        g = relabel_random(small_plc, 4, seed=5)
        plan = compile_plan(get_pattern("P12"), enable_symmetry=False)
        idx_l = CuckooTrieIndex(g, plan)
        plan_u = compile_plan(get_pattern("P1"), enable_symmetry=False)
        idx_u = CuckooTrieIndex(g, plan_u)
        assert idx_l._edge_candidates < idx_u._edge_candidates

    def test_build_cycles_positive(self, labeled_plc):
        plan = compile_plan(get_pattern("P12"), enable_symmetry=False)
        assert CuckooTrieIndex(labeled_plc, plan).build_cycles(COST) > 0

    def test_neighbors_with_label_sorted(self, labeled_plc):
        plan = compile_plan(get_pattern("P12"), enable_symmetry=False)
        idx = CuckooTrieIndex(labeled_plc, plan)
        for v in range(0, labeled_plc.num_vertices, 37):
            for lab in range(4):
                adj = idx.neighbors_with_label(v, lab)
                assert list(adj) == sorted(adj)


class TestEngineConfigIdentity:
    def test_egsm_forces_no_symmetry_plan(self, small_plc):
        engine = EGSMEngine(FAST)
        plan = compile_plan(get_pattern("P1"))  # symmetry ON
        resolved = engine._resolve_plan(plan)
        assert not resolved.symmetry_enabled

    def test_egsm_keeps_nosym_plan(self):
        engine = EGSMEngine(FAST)
        plan = compile_plan(get_pattern("P1"), enable_symmetry=False)
        assert engine._resolve_plan(plan) is plan

    def test_stmatch_dmax_variant_keeps_other_settings(self):
        engine = STMatchEngine(FAST.replace(chunk_size=4)).with_dmax_stacks()
        assert engine.config.stack_mode is StackMode.ARRAY_DMAX
        assert engine.config.chunk_size == 4
        assert type(engine) is STMatchEngine  # whose jobs pay the removal pass

    def test_only_stmatch_jobs_pay_the_removal_pass(self):
        assert STMatchJob.stmatch_removal
        assert not any(job_class(s).stmatch_removal for s in Strategy)

    def test_user_config_respected_where_allowed(self):
        engine = STMatchEngine(FAST.replace(num_warps=16))
        assert engine.config.num_warps == 16

"""Unit tests for intersection, candidate computation, and edge filtering."""

import numpy as np
import pytest

from repro.core.candidates import filter_candidates, leaf_count, raw_candidates
from repro.core.edge_filter import edge_mask, filter_chunk, host_prefilter
from repro.core.intersect import intersect_many, intersect_sorted
from repro.gpusim.costmodel import CostModel
from repro.query.patterns import get_pattern
from repro.query.plan import compile_plan

COST = CostModel()


def arr(*xs):
    return np.array(xs, dtype=np.int32)


class TestIntersectSorted:
    def test_basic(self):
        assert list(intersect_sorted(arr(1, 3, 5, 7), arr(3, 4, 5, 9))) == [3, 5]

    def test_disjoint(self):
        assert intersect_sorted(arr(1, 2), arr(3, 4)).size == 0

    def test_empty_operand(self):
        assert intersect_sorted(arr(), arr(1, 2)).size == 0

    def test_identical(self):
        assert list(intersect_sorted(arr(2, 4), arr(2, 4))) == [2, 4]

    def test_swaps_for_size(self):
        # result correct regardless of which operand is larger
        big = arr(*range(0, 100, 2))
        small = arr(4, 5, 6)
        assert list(intersect_sorted(big, small)) == [4, 6]
        assert list(intersect_sorted(small, big)) == [4, 6]

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = np.unique(rng.integers(0, 60, rng.integers(0, 30))).astype(np.int32)
            b = np.unique(rng.integers(0, 60, rng.integers(0, 30))).astype(np.int32)
            expect = np.intersect1d(a, b)
            assert np.array_equal(intersect_sorted(a, b), expect)


class TestIntersectMany:
    def test_single_list_is_copy(self):
        out, cycles, steps = intersect_many([arr(1, 2, 3)], COST)
        assert list(out) == [1, 2, 3]
        assert cycles == COST.copy_cost(3) and steps == 0

    def test_two_lists_stream_the_smaller(self):
        small, big = arr(2, 9), arr(1, 2, 3, 4)
        for lists in ([small, big], [big, small]):
            out, cycles, steps = intersect_many(lists, COST)
            assert list(out) == [2] and steps == 1
            assert cycles == COST.intersect_cost(2, 4)

    def test_three_way(self):
        out, cycles, steps = intersect_many(
            [arr(1, 2, 3, 4), arr(2, 3, 4), arr(3, 4, 9)], COST
        )
        assert list(out) == [3, 4] and steps == 2
        # Smallest first, then the partial result against the next list.
        assert cycles == COST.intersect_cost(3, 3) + COST.intersect_cost(2, 4)

    def test_short_circuit_on_empty(self):
        out, _, steps = intersect_many([arr(1), arr(2), arr(1)], COST)
        assert out.size == 0 and steps == 1

    def test_empty_input(self):
        out, cycles, steps = intersect_many([], COST)
        assert out.size == 0
        assert (cycles, steps) == (COST.step, 0)


class TestCandidates:
    def setup_method(self):
        from repro.graph.builder import from_edges

        # Two triangles sharing the edge (0, 1): diamond data graph.
        self.graph = from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        self.plan = compile_plan(get_pattern("P1"))

    def test_raw_intersects_backward(self):
        # Position 2 of P1's plan has two backward neighbors.
        pos = 2
        assert len(self.plan.backward[pos]) >= 2
        path = [0, 1, -1, -1]
        raw, cycles = raw_candidates(self.graph, self.plan, path, pos, None, COST)
        assert set(raw.tolist()) == {2, 3}
        assert cycles > 0

    def test_filter_injectivity(self):
        pos = 2
        path = [2, 1, -1, -1]
        raw = arr(0, 1, 2, 3)
        out, _ = filter_candidates(self.graph, self.plan, path, pos, raw, COST)
        assert 2 not in out.tolist()
        assert 1 not in out.tolist()

    def test_filter_symmetry_bound(self):
        pos = next(
            i for i, c in enumerate(self.plan.constraints) if c
        )
        path = [3, 2, 1, 0]
        raw = arr(0, 1, 2, 3)
        out, _ = filter_candidates(self.graph, self.plan, path, pos, raw, COST)
        bound = max(path[i] for i in self.plan.constraints[pos])
        assert all(v > bound for v in out.tolist())

    def test_filter_degree(self):
        from repro.graph.builder import from_edges

        g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])  # vertex 3 deg 1
        plan = compile_plan(get_pattern("P2"))  # K4 needs degree >= 3
        out, _ = filter_candidates(g, plan, [0, 1, -1, -1], 2, arr(2, 3), COST)
        assert 3 not in out.tolist()

    def test_filter_labels(self, labeled_plc):
        plan = compile_plan(get_pattern("P13"))  # labeled K4
        raw = np.arange(20, dtype=np.int32)
        out, _ = filter_candidates(labeled_plc, plan, [99, 98, -1, -1], 2, raw, COST)
        want = plan.labels[2]
        assert all(labeled_plc.label(int(v)) == want for v in out)

    def test_stmatch_removal_costs_more(self):
        raw = arr(0, 1, 2, 3)
        _, base = filter_candidates(
            self.graph, self.plan, [0, 1, -1, -1], 2, raw, COST, False
        )
        _, extra = filter_candidates(
            self.graph, self.plan, [0, 1, -1, -1], 2, raw, COST, True
        )
        assert extra > base

    def test_leaf_count_counts_valid(self):
        plan = self.plan
        # Leaf = last position; count over a raw set containing used vertices.
        path = [0, 1, 2, -1]
        raw = arr(0, 1, 2, 3)
        n, cycles = leaf_count(self.graph, plan, path, raw, COST)
        assert 0 <= n <= 4
        assert cycles > 0


class TestEdgeFilter:
    def setup_method(self):
        from repro.graph.builder import from_edges

        self.graph = from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
        )
        self.plan = compile_plan(get_pattern("P2"))  # K4: degree >= 3 needed

    def test_degree_pruning(self):
        edges = self.graph.directed_edge_array()
        mask = edge_mask(self.graph, self.plan, edges, prune_degree=True)
        kept = edges[mask]
        # vertex 4 (degree 1) can never match a K4 corner.
        assert not np.any(kept == 4)

    def test_symmetry_pruning(self):
        edges = self.graph.directed_edge_array()
        mask = edge_mask(self.graph, self.plan, edges, prune_degree=False)
        kept = edges[mask]
        if 0 in self.plan.constraints[1]:
            assert np.all(kept[:, 0] < kept[:, 1])

    def test_label_filter_is_always_on(self, labeled_plc):
        plan = compile_plan(get_pattern("P13"))
        edges = labeled_plc.directed_edge_array()
        mask = edge_mask(labeled_plc, plan, edges, prune_degree=False)
        kept = edges[mask]
        if len(kept):
            assert np.all(labeled_plc.labels[kept[:, 0]] == plan.labels[0])
            assert np.all(labeled_plc.labels[kept[:, 1]] == plan.labels[1])

    def test_filter_chunk_charges(self):
        edges = self.graph.directed_edge_array()[:8]
        kept, cycles = filter_chunk(self.graph, self.plan, edges, COST)
        assert cycles > 0
        assert len(kept) <= len(edges)

    def test_host_prefilter_serial_cost(self):
        edges = self.graph.directed_edge_array()
        kept, cycles = host_prefilter(self.graph, self.plan, edges, COST)
        assert cycles == self.graph.num_directed_edges * COST.cpu_edge_filter
        # Same survivors as the device-side mask.
        mask = edge_mask(self.graph, self.plan, edges, prune_degree=True)
        assert np.array_equal(kept, edges[mask])

"""Tests for the optional page-release policy (paper Section III)."""

import numpy as np
import pytest

from repro import TDFSConfig, match, get_pattern
from repro.alloc.ouroboros import OuroborosAllocator
from repro.alloc.pagetable import PagedLevel
from repro.gpusim.costmodel import CostModel

COST = CostModel()


def make_level(release: bool, pages: int = 64):
    alloc = OuroborosAllocator(num_pages=pages, page_bytes=64)
    return PagedLevel(alloc, table_size=16, release_pages=release), alloc


class TestReleaseRule:
    def test_rule_fires_on_big_shrink(self):
        # Grow to 8 pages, then refill using 1 (<= 8/4) → free 8/2 = 4.
        level, alloc = make_level(release=True)
        level.write(np.arange(8 * 16, dtype=np.int32), COST)
        assert alloc.in_use == 8
        level.write(np.arange(4, dtype=np.int32), COST)
        assert alloc.in_use == 4
        assert alloc.total_frees == 4

    def test_rule_quiet_on_small_shrink(self):
        # Using more than n/4 pages keeps everything.
        level, alloc = make_level(release=True)
        level.write(np.arange(8 * 16, dtype=np.int32), COST)
        level.write(np.arange(3 * 16, dtype=np.int32), COST)
        assert alloc.in_use == 8

    def test_rule_quiet_below_four_pages(self):
        level, alloc = make_level(release=True)
        level.write(np.arange(3 * 16, dtype=np.int32), COST)
        level.write(np.arange(2, dtype=np.int32), COST)
        assert alloc.in_use == 3

    def test_disabled_by_default(self):
        level, alloc = make_level(release=False)
        level.write(np.arange(8 * 16, dtype=np.int32), COST)
        level.write(np.arange(2, dtype=np.int32), COST)
        assert alloc.in_use == 8  # high watermark kept (paper default)

    def test_data_intact_after_release(self):
        level, alloc = make_level(release=True)
        level.write(np.arange(8 * 16, dtype=np.int32), COST)
        payload = np.array([7, 9, 11], dtype=np.int32)
        level.write(payload, COST)
        assert np.array_equal(level.values(), payload)

    def test_freed_pages_reusable(self):
        level, alloc = make_level(release=True, pages=8)
        level.write(np.arange(8 * 16, dtype=np.int32), COST)
        level.write(np.arange(2, dtype=np.int32), COST)  # frees 4
        # Another grow must succeed from the recycled pool.
        level.write(np.arange(8 * 16, dtype=np.int32), COST)
        assert alloc.in_use == 8


    def test_count_and_prefix_invariant_under_release(self):
        # Held pages are always entries [0, held): writes grow from index
        # 0, the release rule frees from the top down and never below what
        # the write uses — so the kept count is also the first free index.
        level, alloc = make_level(release=True)
        rng = np.random.default_rng(11)
        sizes = rng.integers(0, 16 * 16, size=200)
        sizes[::7] = 1  # plenty of big shrinks
        for n in sizes:
            frees = alloc.total_frees
            cycles = level.write(np.arange(n, dtype=np.int32), COST)
            table = level.table
            held = table.num_allocated()
            assert held == len(table.allocated_pages()) == alloc.in_use
            assert all(p >= 0 for p in table.entries[:held])
            assert all(p < 0 for p in table.entries[held:])
            assert held >= (int(n) + 15) // 16
            assert cycles >= (alloc.total_frees - frees) * 40
        assert alloc.total_frees > 0
        level.release_all()
        assert level.table.num_allocated() == alloc.in_use == 0


class TestEngineIntegration:
    def test_counts_unchanged(self, skewed_graph):
        base = match(skewed_graph, get_pattern("P3"),
                     config=TDFSConfig(num_warps=8))
        rel = match(skewed_graph, get_pattern("P3"),
                    config=TDFSConfig(num_warps=8, release_pages=True))
        assert base.count == rel.count

    def test_memory_not_higher_with_release(self, skewed_graph):
        base = match(skewed_graph, get_pattern("P3"),
                     config=TDFSConfig(num_warps=8))
        rel = match(skewed_graph, get_pattern("P3"),
                    config=TDFSConfig(num_warps=8, release_pages=True))
        assert rel.memory.stack_bytes <= base.memory.stack_bytes

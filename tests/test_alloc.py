"""Unit tests for the Ouroboros allocator, page tables and warp stacks."""

import numpy as np
import pytest

from repro.alloc.ouroboros import OuroborosAllocator
from repro.alloc.pagetable import NULL_PAGE, PagedLevel, PageTable
from repro.alloc.stack import (
    ArrayLevel,
    OverflowPolicy,
    WarpStack,
    array_level_factory,
    paged_level_factory,
)
from repro.errors import DeviceOOMError, StackLevelOverflowError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.memory import DeviceMemory

COST = CostModel()


class TestOuroboros:
    def test_alloc_free_cycle(self):
        alloc = OuroborosAllocator(num_pages=4, page_bytes=64)
        pages = [alloc.malloc_page() for _ in range(4)]
        assert len(set(pages)) == 4
        assert alloc.in_use == 4
        for p in pages:
            alloc.free_page(p)
        assert alloc.in_use == 0
        assert alloc.peak_in_use == 4

    def test_exhaustion_raises(self):
        alloc = OuroborosAllocator(num_pages=2, page_bytes=64)
        alloc.malloc_page()
        alloc.malloc_page()
        with pytest.raises(DeviceOOMError):
            alloc.malloc_page()

    def test_freed_pages_reused(self):
        alloc = OuroborosAllocator(num_pages=1, page_bytes=64)
        p = alloc.malloc_page()
        alloc.free_page(p)
        assert alloc.malloc_page() == p

    def test_arena_reserved_in_device_memory(self):
        mem = DeviceMemory(capacity=10_000)
        alloc = OuroborosAllocator(num_pages=10, page_bytes=64, memory=mem)
        assert mem.used == 640
        alloc.release_arena()
        assert mem.used == 0

    def test_arena_oom(self):
        mem = DeviceMemory(capacity=100)
        with pytest.raises(DeviceOOMError):
            OuroborosAllocator(num_pages=10, page_bytes=64, memory=mem)

    def test_page_ints(self):
        assert OuroborosAllocator(4, page_bytes=64).page_ints == 16

    def test_rejects_misaligned_page(self):
        with pytest.raises(ValueError):
            OuroborosAllocator(4, page_bytes=66)


class TestPageTable:
    def test_starts_null(self):
        t = PageTable(4)
        assert all(t.page_at(i) == NULL_PAGE for i in range(4))

    def test_set_get(self):
        t = PageTable(4)
        t.set_page(2, 77)
        assert t.page_at(2) == 77
        assert t.num_allocated() == 1

    def test_exhaustion(self):
        t = PageTable(2)
        with pytest.raises(StackLevelOverflowError):
            t.page_at(2)

    def test_count_tracks_out_of_order_set_page(self):
        # The count is kept by ``set_page`` itself, so direct use of the
        # table — holes, overwrites, clearing a null entry — stays right.
        t = PageTable(6)
        for idx, page in [(4, 9), (1, 3), (4, 11), (1, NULL_PAGE),
                          (1, NULL_PAGE), (0, 5), (4, NULL_PAGE), (5, 2)]:
            t.set_page(idx, page)
            assert t.num_allocated() == len(t.allocated_pages())
        assert t.num_allocated() == 2
        with pytest.raises(StackLevelOverflowError):
            t.set_page(6, 1)
        assert t.num_allocated() == 2


class TestPagedLevel:
    def make(self, pages=16):
        alloc = OuroborosAllocator(num_pages=pages, page_bytes=64)
        return PagedLevel(alloc, table_size=8), alloc

    def test_write_allocates_pages(self):
        level, alloc = self.make()
        cycles = level.write(np.arange(40, dtype=np.int32), COST)
        # 40 ints at 16 ints/page = 3 pages.
        assert alloc.in_use == 3
        assert cycles >= 3 * COST.page_alloc

    def test_values_roundtrip(self):
        level, _ = self.make()
        data = np.array([5, 9, 11], dtype=np.int32)
        level.write(data, COST)
        assert np.array_equal(level.values(), data)

    def test_pages_not_released_on_shrink(self):
        # Matches the paper: releasing pages is possible but not done.
        level, alloc = self.make()
        level.write(np.arange(40, dtype=np.int32), COST)
        level.write(np.arange(2, dtype=np.int32), COST)
        assert alloc.in_use == 3
        assert list(level.values()) == [0, 1]

    def test_growth_reuses_existing_pages(self):
        level, alloc = self.make()
        level.write(np.arange(16, dtype=np.int32), COST)
        first = alloc.total_allocs
        level.write(np.arange(16, dtype=np.int32), COST)
        assert alloc.total_allocs == first  # no new pages needed

    def test_overflow_via_page_table(self):
        level, _ = self.make(pages=64)
        # 8-entry table × 16 ints = 128 ids max.
        with pytest.raises(StackLevelOverflowError):
            level.write(np.arange(200, dtype=np.int32), COST)

    def test_memory_bytes_counts_pages_and_table(self):
        level, _ = self.make()
        level.write(np.arange(20, dtype=np.int32), COST)
        assert level.memory_bytes() == 2 * 64 + 8 * 4

    def test_release_all(self):
        level, alloc = self.make()
        level.write(np.arange(30, dtype=np.int32), COST)
        level.release_all()
        assert alloc.in_use == 0
        assert level.table.num_allocated() == 0
        assert level.table.allocated_pages() == []

    def test_count_equals_scan_after_every_write(self):
        level, alloc = self.make()
        rng = np.random.default_rng(3)
        for n in rng.integers(0, 128, size=40):
            before = alloc.total_allocs
            cycles = level.write(np.arange(n, dtype=np.int32), COST)
            table = level.table
            held = table.num_allocated()
            assert held == len(table.allocated_pages()) == alloc.in_use
            # Allocated pages form a prefix, in allocation order.
            assert table.entries[:held] == list(range(held))
            batches = (max(int(n), 1) + 31) // 32
            assert cycles == (alloc.total_allocs - before) * COST.page_alloc + (
                batches * (COST.write_batch + COST.page_check)
            )

    def test_overflow_allocates_up_to_the_table_then_raises(self):
        level, alloc = self.make(pages=64)
        level.write(np.arange(20, dtype=np.int32), COST)  # 2 pages held
        with pytest.raises(StackLevelOverflowError):
            level.write(np.arange(200, dtype=np.int32), COST)
        # The walk filled the whole table before the index past it raised.
        assert level.table.num_allocated() == alloc.in_use == 8
        assert level.table.entries == list(range(8))


class TestArrayLevel:
    def test_basic_write(self):
        level = ArrayLevel(capacity=10)
        level.write(np.array([1, 2, 3], dtype=np.int32), COST)
        assert list(level.values()) == [1, 2, 3]
        assert level.memory_bytes() == 40  # capacity, not occupancy

    def test_overflow_raises(self):
        level = ArrayLevel(capacity=2, policy=OverflowPolicy.RAISE)
        with pytest.raises(StackLevelOverflowError):
            level.write(np.arange(5, dtype=np.int32), COST)

    def test_overflow_truncates(self):
        # STMatch behaviour: silent truncation, wrong results downstream.
        level = ArrayLevel(capacity=2, policy=OverflowPolicy.TRUNCATE)
        level.write(np.arange(5, dtype=np.int32), COST)
        assert list(level.values()) == [0, 1]
        assert level.overflows == 1


class TestWarpStack:
    def test_level_mapping(self):
        stack = WarpStack(5, array_level_factory(8))
        # positions 2, 3, 4 are stored; 0 and 1 come from the task prefix.
        assert len(stack.levels) == 3
        assert stack.level(2) is stack.levels[0]
        assert stack.level(4) is stack.levels[2]

    def test_memory_sums_levels(self):
        stack = WarpStack(4, array_level_factory(10))
        assert stack.memory_bytes() == 2 * 40

    def test_overflow_count(self):
        stack = WarpStack(4, array_level_factory(2, OverflowPolicy.TRUNCATE))
        stack.level(2).write(np.arange(5, dtype=np.int32), COST)
        assert stack.overflow_count() == 1

    def test_paged_factory(self):
        alloc = OuroborosAllocator(num_pages=8, page_bytes=64)
        stack = WarpStack(4, paged_level_factory(alloc, table_size=4))
        stack.level(2).write(np.arange(10, dtype=np.int32), COST)
        assert alloc.in_use == 1

"""Page tables and paged stack levels (paper Fig. 6 and Algorithm 5).

Each stack level is logically a list of pages.  A *page table* is a small
fixed-size address array (``null``-initialized);
when a write crosses into a page that does not exist yet, the warp's leader
thread requests one from the allocator (Algorithm 5's ``__activemask`` /
leader-election dance — modeled as a per-new-page allocation charge).
"""

from __future__ import annotations

import numpy as np

from repro.errors import StackLevelOverflowError
from repro.alloc.ouroboros import OuroborosAllocator
from repro.gpusim.costmodel import CostModel, WARP_SIZE

#: Default page-table entries per stack level.  The paper uses 40 addresses
#: of 8 KB pages (320 KB max per level); scaled with the stand-in datasets
#: this becomes 24 addresses of 64 B pages (384 vertex ids per level, which
#: exceeds every stand-in's d_max).
DEFAULT_PAGE_TABLE_SIZE = 24

#: Sentinel for an unallocated page-table entry.
NULL_PAGE = -1


class PageTable:
    """Fixed-size address array mapping page index → allocated page id.

    The table counts its non-null entries as :meth:`set_page` changes them,
    so :meth:`num_allocated` is a field read.  A :class:`PagedLevel` only
    ever holds a *prefix* of the table (writes grow from index 0, releases
    free from the top down), which makes that count the first free index.
    """

    __slots__ = ("entries", "size", "_allocated")

    def __init__(self, size: int = DEFAULT_PAGE_TABLE_SIZE) -> None:
        self.size = int(size)
        self.entries = [NULL_PAGE] * self.size
        self._allocated = 0

    def page_at(self, idx: int) -> int:
        if idx >= self.size:
            raise StackLevelOverflowError(
                f"page table exhausted: index {idx} >= table size {self.size} "
                "(increase page_table_size, cf. paper's 4000-entry example)"
            )
        return self.entries[idx]

    def set_page(self, idx: int, page: int) -> None:
        if idx >= self.size:
            raise StackLevelOverflowError(
                f"page table exhausted: index {idx} >= table size {self.size}"
            )
        self._allocated += (page != NULL_PAGE) - (self.entries[idx] != NULL_PAGE)
        self.entries[idx] = page

    def allocated_pages(self) -> list[int]:
        return [p for p in self.entries if p != NULL_PAGE]

    def num_allocated(self) -> int:
        return self._allocated


class PagedLevel:
    """One stack level stored as a page table over allocator pages.

    Data lives in a NumPy array for simulation speed; the page table tracks
    which pages back which index ranges, so memory accounting and the
    Algorithm 5 access-cost model (page-existence check per batch, leader
    allocation for new pages) are faithful.

    By default pages are *not* released on overwrite, matching the paper
    ("we find this to be not necessary in our experiments"); a level keeps
    its high-watermark pages for the rest of the job.  The paper's optional
    release rule is available via ``release_pages=True``: "assume we have n
    pages in a stack level ... if it uses no more than n/4 pages, then we
    can free the last n/2 pages".
    """

    __slots__ = ("table", "allocator", "data", "length", "raw", "release_pages")

    def __init__(
        self,
        allocator: OuroborosAllocator,
        table_size: int = DEFAULT_PAGE_TABLE_SIZE,
        release_pages: bool = False,
    ) -> None:
        self.table = PageTable(table_size)
        self.allocator = allocator
        self.data: np.ndarray = np.empty(0, dtype=np.int32)
        self.length = 0
        self.raw: np.ndarray = self.data  # raw intersection kept for reuse
        self.release_pages = bool(release_pages)

    # ------------------------------------------------------------------ #

    def write(self, values: np.ndarray, cost: CostModel) -> int:
        """Replace the level contents; returns the cycle charge.

        Models Algorithm 5: the warp writes in 32-element batches, each
        paying a page-table lookup/existence check; crossing into a missing
        page triggers a leader-thread allocation.
        """
        n = int(values.size)
        cycles = self._ensure_pages(n, cost)
        batches = (max(n, 1) + WARP_SIZE - 1) // WARP_SIZE
        cycles += batches * (cost.write_batch + cost.page_check)
        self.data = values
        self.raw = values
        self.length = n
        if self.release_pages:
            cycles += self._maybe_release(n)
        return cycles

    def _maybe_release(self, n_elements: int) -> int:
        """Paper's optional rule: using <= n/4 of n held pages frees n/2."""
        held = self.table.num_allocated()
        page_ints = self.allocator.page_ints
        used = (n_elements + page_ints - 1) // page_ints
        if held < 4 or used > held // 4:
            return 0
        to_free = held // 2  # the top ones: ``used <= held // 4`` stay
        for idx in range(held - 1, held - to_free - 1, -1):
            self.allocator.free_page(self.table.page_at(idx))
            self.table.set_page(idx, NULL_PAGE)
        return to_free * 40  # free-list push per page

    def warm_batch_cycles(self, high: int, cost: CostModel):
        """Cycles per 32-element batch of a ``write()`` of up to ``high``
        elements that only replaces the contents — the pages exist and the
        release rule is off — or ``None`` when such a write may do more."""
        page_ints = self.allocator.page_ints
        if (
            self.release_pages
            or (high + page_ints - 1) // page_ints > self.table.num_allocated()
        ):
            return None
        return cost.write_batch + cost.page_check

    def plan_writes(self, sizes: np.ndarray, cost: CostModel):
        """Per-write cycles for a batch of ``write()`` calls, or ``None``.

        Exact emulation of running ``write(values_j)`` for each size in
        order: page allocations are charged on the write that first crosses
        each page boundary (without release, allocated pages only grow and
        always form a prefix).  Declines when the sequence is not purely
        cumulative: release enabled (frees interleave with writes), a write
        would exhaust the page table (must raise on that write), or the
        arena cannot cover the net new pages (must OOM on the right write).
        """
        if self.release_pages:
            return None
        page_ints = self.allocator.page_ints
        needed = (sizes + page_ints - 1) // page_ints
        held = self.table.num_allocated()
        high = int(needed.max()) if needed.size else 0
        if high > self.table.size or high - held > self.allocator.available:
            return None
        batches = (np.maximum(sizes, 1) + WARP_SIZE - 1) // WARP_SIZE
        run = np.maximum(np.maximum.accumulate(needed), held)
        new_pages = np.diff(np.concatenate(([held], run)))
        return new_pages * cost.page_alloc + batches * (
            cost.write_batch + cost.page_check
        )

    def commit_writes(self, high: int, values: np.ndarray) -> None:
        """Apply the end state of a planned write sequence.

        ``values`` is the contents of its last write and ``high`` the
        largest size written; pages grow to cover it (exactly what the
        per-write sequence would have allocated).
        """
        page_ints = self.allocator.page_ints
        needed = (high + page_ints - 1) // page_ints
        for idx in range(self.table.num_allocated(), needed):
            self.table.set_page(idx, self.allocator.malloc_page())
        self.data = values
        self.raw = values
        self.length = int(values.size)

    def read_cost(self, n: int, cost: CostModel) -> int:
        """Charge for reading ``n`` elements through the page table."""
        batches = (max(n, 1) + WARP_SIZE - 1) // WARP_SIZE
        return batches * (cost.load_batch + cost.page_check)

    def _ensure_pages(self, n_elements: int, cost: CostModel) -> int:
        """Allocate pages to hold ``n_elements``; returns alloc charges."""
        page_ints = self.allocator.page_ints
        needed = (n_elements + page_ints - 1) // page_ints
        held = self.table.num_allocated()
        if needed <= held:  # warm: the prefix already covers the write
            return 0
        cycles = 0
        for idx in range(held, needed):
            # ``page_at`` raises on the first index past the table, after
            # the pages below it were allocated — as a walk from 0 does.
            if self.table.page_at(idx) == NULL_PAGE:
                self.table.set_page(idx, self.allocator.malloc_page())
                cycles += cost.page_alloc
        return cycles

    # ------------------------------------------------------------------ #

    def values(self) -> np.ndarray:
        """Current level contents."""
        return self.data[: self.length]

    def memory_bytes(self) -> int:
        """Bytes held: allocated pages plus the page-table address array."""
        return (
            self.table.num_allocated() * self.allocator.page_bytes
            + self.table.size * 4  # 32-bit page ids at simulation scale
        )

    def release_all(self) -> None:
        """Return all pages to the allocator (job teardown)."""
        for idx in range(self.table.size):
            page = self.table.page_at(idx)
            if page != NULL_PAGE:
                self.allocator.free_page(page)
                self.table.set_page(idx, NULL_PAGE)

"""Ouroboros-style device page allocator.

The real system integrates Ouroboros (Winter et al., ICS'20): a large arena
is reserved in device memory up front, cut into fixed-size pages, and warps
``malloc``/``free`` pages on demand.  This port preserves the interface and
the accounting (arena reservation, pages in use, peak, exhaustion), plus a
free-list so released pages are reused (most recently freed first; pages
never handed out yet come from a counter, ascending from 0).

Page size defaults to 8 KB in the paper; the dataset stand-ins are scaled
down ~10³–10⁵×, so the simulated default is 64 B (16 vertex ids) — the
ratio of page size to typical candidate-set size is what drives the memory
results in Tables V and VII, and the scaled page keeps that ratio faithful.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DeviceOOMError
from repro.gpusim.memory import DeviceMemory

#: Simulated page size in bytes (16 ints); the paper's is 8 KB — see module
#: docstring for the scaling rationale.
DEFAULT_PAGE_BYTES = 64


class OuroborosAllocator:
    """Fixed-size page allocator over a pre-reserved device arena."""

    def __init__(
        self,
        num_pages: int,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        memory: Optional[DeviceMemory] = None,
    ) -> None:
        if num_pages < 1:
            raise ValueError("need at least one page")
        if page_bytes % 4 != 0:
            raise ValueError("page size must hold whole 4-byte vertex ids")
        self.num_pages = int(num_pages)
        self.page_bytes = int(page_bytes)
        self._memory = memory
        self._arena_handle: Optional[int] = None
        if memory is not None:
            # The arena is reserved once, at job start, like Ouroboros does.
            self._arena_handle = memory.allocate(
                self.num_pages * self.page_bytes, tag="ouroboros-arena"
            )
        #: Pages ``>= _next_fresh`` were never handed out; freed ones stack up
        #: in ``_freed`` and are reused before any fresh page.
        self._next_fresh = 0
        self._freed: list[int] = []
        self.in_use = 0
        self.peak_in_use = 0
        self.total_allocs = 0
        self.total_frees = 0

    @property
    def page_ints(self) -> int:
        """Vertex ids per page."""
        return self.page_bytes // 4

    @property
    def available(self) -> int:
        return self.num_pages - self._next_fresh + len(self._freed)

    def malloc_page(self) -> int:
        """Allocate one page; returns its page id.

        Raises :class:`DeviceOOMError` when the arena is exhausted.
        """
        if self._freed:
            page = self._freed.pop()
        elif self._next_fresh < self.num_pages:
            page = self._next_fresh
            self._next_fresh += 1
        else:
            raise DeviceOOMError(
                self.page_bytes, 0, what="ouroboros page (arena exhausted)"
            )
        self.in_use += 1
        self.total_allocs += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return page

    def free_page(self, page: int) -> None:
        """Return a page to the free list."""
        if not 0 <= page < self.num_pages:
            raise ValueError(f"invalid page id {page}")
        self._freed.append(page)
        self.in_use -= 1
        self.total_frees += 1

    def used_bytes(self) -> int:
        """Bytes of pages currently held by clients."""
        return self.in_use * self.page_bytes

    def peak_bytes(self) -> int:
        """Peak bytes of pages ever simultaneously held."""
        return self.peak_in_use * self.page_bytes

    def arena_bytes(self) -> int:
        """Total reserved arena size."""
        return self.num_pages * self.page_bytes

    def release_arena(self) -> None:
        """Release the arena reservation from device memory (job end)."""
        if self._memory is not None and self._arena_handle is not None:
            self._memory.release(self._arena_handle)
            self._arena_handle = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OuroborosAllocator(pages={self.num_pages}, "
            f"page_bytes={self.page_bytes}, in_use={self.in_use})"
        )

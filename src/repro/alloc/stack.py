"""Warp stacks: the explicit DFS recursion state (paper Fig. 3).

A warp's stack has one level per query vertex beyond the initial edge; each
level stores the candidate vertices for its position.  Two storage variants
reproduce the paper's comparison:

* :class:`PagedLevel` (in ``pagetable.py``) — T-DFS's dynamic design.
* :class:`ArrayLevel` — the fixed-capacity baseline.  With capacity
  ``d_max`` it is always correct but hugely over-allocated (Tables V, VII);
  with STMatch's hardcoded 4096 it silently truncates on skewed graphs and
  produces *wrong counts*, which the paper demonstrates on Pokec P3.
"""

from __future__ import annotations

import enum
from typing import Callable, Protocol

import numpy as np

from repro.errors import StackLevelOverflowError
from repro.alloc.ouroboros import OuroborosAllocator
from repro.alloc.pagetable import PagedLevel, DEFAULT_PAGE_TABLE_SIZE
from repro.gpusim.costmodel import CostModel, WARP_SIZE


class OverflowPolicy(enum.Enum):
    """What a fixed-capacity level does when candidates exceed capacity."""

    RAISE = "raise"
    TRUNCATE = "truncate"  # STMatch's behaviour: silent, wrong results


class Level(Protocol):
    """Interface shared by paged and array stack levels.

    ``warm_batch_cycles``/``plan_writes``/``commit_writes`` support the
    vectorized kernel backend's batched leaf expansion.  A ``write()`` of
    ``n`` elements takes ``ceil(max(n, 1) / 32)`` batches;
    ``warm_batch_cycles`` prices one batch when writes of up to ``high``
    elements have no effect but replacing the contents.  Otherwise planning
    returns the exact per-write cycle charges a sequence of ``write()``
    calls would produce (or ``None`` when the sequence has effects that must
    run write-by-write — overflow, page release, arena exhaustion).
    Committing applies the end state of a sequence in one step."""

    length: int
    raw: np.ndarray

    def write(self, values: np.ndarray, cost: CostModel) -> int: ...
    def read_cost(self, n: int, cost: CostModel) -> int: ...
    def values(self) -> np.ndarray: ...
    def memory_bytes(self) -> int: ...
    def warm_batch_cycles(self, high: int, cost: CostModel): ...
    def plan_writes(self, sizes: np.ndarray, cost: CostModel): ...
    def commit_writes(self, high: int, values: np.ndarray) -> None: ...


class ArrayLevel:
    """Fixed-capacity stack level (the array-based baseline)."""

    __slots__ = ("capacity", "policy", "data", "length", "raw", "overflows")

    def __init__(
        self, capacity: int, policy: OverflowPolicy = OverflowPolicy.RAISE
    ) -> None:
        if capacity < 1:
            raise ValueError("level capacity must be positive")
        self.capacity = int(capacity)
        self.policy = policy
        self.data: np.ndarray = np.empty(0, dtype=np.int32)
        self.length = 0
        self.raw: np.ndarray = self.data
        self.overflows = 0

    def write(self, values: np.ndarray, cost: CostModel) -> int:
        n = int(values.size)
        if n > self.capacity:
            self.overflows += 1
            if self.policy is OverflowPolicy.RAISE:
                raise StackLevelOverflowError(
                    f"candidate set of {n} exceeds level capacity "
                    f"{self.capacity}"
                )
            values = values[: self.capacity]
            n = self.capacity
        batches = (max(n, 1) + WARP_SIZE - 1) // WARP_SIZE
        self.data = values
        self.raw = values
        self.length = n
        return batches * cost.write_batch

    def read_cost(self, n: int, cost: CostModel) -> int:
        batches = (max(n, 1) + WARP_SIZE - 1) // WARP_SIZE
        return batches * cost.load_batch

    def warm_batch_cycles(self, high: int, cost: CostModel):
        """Cycles per 32-element write batch, or ``None`` when a write of
        ``high`` elements would overflow."""
        return None if high > self.capacity else cost.write_batch

    def plan_writes(self, sizes: np.ndarray, cost: CostModel):
        """Always ``None``: a sequence that is not warm overflows, and both
        the raise and the silent-truncation policies have per-write effects
        (exception / ``overflows`` bump + shortened data) that must run
        write-by-write."""
        return None

    def commit_writes(self, high: int, values: np.ndarray) -> None:
        """Apply the end state of a planned write sequence."""
        self.data = values
        self.raw = values
        self.length = int(values.size)

    def values(self) -> np.ndarray:
        return self.data[: self.length]

    def memory_bytes(self) -> int:
        """Preallocated footprint — capacity, not occupancy."""
        return self.capacity * 4


LevelFactory = Callable[[], Level]


def paged_level_factory(
    allocator: OuroborosAllocator,
    table_size: int = DEFAULT_PAGE_TABLE_SIZE,
    release_pages: bool = False,
) -> LevelFactory:
    """Factory producing :class:`PagedLevel` objects on a shared arena."""
    return lambda: PagedLevel(allocator, table_size, release_pages)


def array_level_factory(
    capacity: int, policy: OverflowPolicy = OverflowPolicy.RAISE
) -> LevelFactory:
    """Factory producing fixed-capacity :class:`ArrayLevel` objects."""
    return lambda: ArrayLevel(capacity, policy)


class WarpStack:
    """Per-warp DFS stack: one level per order position ≥ 2.

    Positions 0 and 1 are covered by the initial edge/task prefix, so a
    ``k``-vertex query needs ``k - 2`` stored levels.  ``level(p)`` maps an
    order position ``p`` (2-based .. k-1) to its storage.
    """

    __slots__ = ("levels", "num_positions", "total_overflows")

    def __init__(self, num_positions: int, factory: LevelFactory) -> None:
        if num_positions < 2:
            raise ValueError("queries have at least 2 positions")
        self.num_positions = int(num_positions)
        self.levels: list[Level] = [factory() for _ in range(num_positions - 2)]
        self.total_overflows = 0

    def level(self, position: int) -> Level:
        """Storage for order position ``position`` (0-based, must be >= 2)."""
        return self.levels[position - 2]

    def memory_bytes(self) -> int:
        """Total stack footprint of this warp."""
        return sum(level.memory_bytes() for level in self.levels)

    def overflow_count(self) -> int:
        """Number of truncation events on array levels (0 for paged)."""
        return sum(getattr(level, "overflows", 0) for level in self.levels)

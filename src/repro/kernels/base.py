"""Kernel backend protocol: how the warp matcher computes candidate sets.

A :class:`KernelBackend` owns the *data-parallel* part of frontier
expansion — intersections, filters and their cycle accounting — while the
warp matcher keeps the *scheduling* part (syncs, timeouts, stealing, stack
writes).  The split is what makes backends swappable without touching the
simulator: every backend must produce bit-identical candidate sets and
cycle charges; they may only differ in host wall-clock.  Backends keep no
state between calls, so one instance can serve any number of jobs.

Two implementations ship:

* :class:`~repro.kernels.scalar.ScalarBackend` — the reference per-candidate
  path (the matcher's original code path, unchanged).
* :class:`~repro.kernels.vectorized.VectorizedBackend` — one NumPy pass
  over CSR segment slices per window of initial rows, per cell of another
  block's survivors, or per sync window of leaf candidates; whichever it
  is, the result is one :class:`Block`.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.warp_matcher import MatchJob, RunState


@dataclass
class Block:
    """One order position resolved for a window of sibling slots.

    A slot is one partial match about to fill the position: a surviving
    width-2 row (:meth:`KernelBackend.prefix_block`, position 2), a
    survivor of another block's slot (:meth:`KernelBackend.child_block`,
    the position below it) or one pre-leaf candidate of a sync window
    (:meth:`KernelBackend.leaf_block`, position ``k - 1``).  The block
    holds, per slot, everything about the fill that is a pure function of
    (graph, plan, path, config flags) — what the scalar ``_raw`` and
    ``filter_candidates`` return.  The matcher replays it slot by slot
    through ``MatchJob._fill_level`` — real stack writes, real charges on
    the warp that owns the slot — so simulated time is what the scalar path
    produces.  Per-slot sequences are arrays or plain lists, whichever the
    block's consumer reads faster (lists where the survivors are kept: those
    slots are replayed one at a time).

    **Children.**  A block that kept its survivors can resolve the next
    position for them: the child's slots are the parent's ``filtered``
    entries in order, so the ``i``-th survivor of slot ``s`` is child slot
    ``filtered_offsets[s] + i`` (minus the first entry of the child's
    cell) and no lookup structure is needed.  The survivor slots are cut
    once into *cells* of bounded gathered volume; a cell's child is built
    on the first descent into it and kept here, on the parent.
    """

    count: int
    """Slots covered."""
    raw: np.ndarray
    """The raw sets (``_raw`` results) back to back — or, when
    ``raw_offsets`` is ``None``, the one set every slot shares."""
    raw_offsets: Optional[Sequence[int]]
    """Slot ``s`` owns ``raw[raw_offsets[s]:raw_offsets[s + 1]]``."""
    raw_sizes: np.ndarray
    """Per-slot raw set sizes (drives bulk stack-write planning)."""
    raw_cycles: Sequence[int]
    """Per-slot intersection + static-filter cycles (``_raw`` charge)."""
    filter_cycles: Sequence[int]
    """Per-slot ``filter_candidates`` charge."""
    survivors: Sequence[int]
    """Per-slot ``filter_candidates`` result sizes."""
    filtered: Optional[np.ndarray] = None
    """The ``filter_candidates`` results back to back; ``None`` when the
    consumer only counts them (leaf windows)."""
    filtered_offsets: Optional[Sequence[int]] = None
    """Slot ``s`` owns ``filtered[filtered_offsets[s]:filtered_offsets[s + 1]]``."""
    intersections: int = 0
    """Pairwise set intersections each slot performed."""
    reuse: int = 0
    """Reuse-plan seed reads each slot performed (0 or 1)."""
    rows: Optional[np.ndarray] = None
    """Prefix windows: the rows that passed the edge filter, in order (slot
    ``s`` is ``rows[s]``)."""
    kept_before: Optional[Sequence[int]] = None
    """Prefix windows: ``kept_before[i]`` counts the edge-filter survivors
    among offered rows ``[0, i)`` — the slot of row ``i`` if it survived."""
    position: int = 0
    """The order position the block resolves."""
    matched: Optional[list] = None
    """``matched[t]``: the vertex at order position ``t < position`` — one
    array entry per slot, or one ``int`` every slot shares."""
    parent: Optional[Callable[[], Optional["Block"]]] = None
    """Child blocks above the leaf: a weak reference to the block whose
    survivors the slots are (whoever descends holds the whole chain)."""
    parent_slots: Optional[np.ndarray] = None
    """Child blocks above the leaf: per slot, the ``parent`` slot it
    survived from."""
    cells: Optional[list] = None
    """Slot bounds of the cells the survivors are cut into (cell ``c`` is
    slots ``cells[c]:cells[c + 1]``); ``None`` until the first descent."""
    children: Optional[dict] = None
    """Cell index → its child block, or ``None`` for a cell that has none
    (declined shape, over the volume budget, too few survivors); a cell not
    built yet has no entry."""
    sums: Optional[tuple] = None
    """Leaf blocks: running totals of the per-slot charges, kept by the
    matcher's bulk replay (see ``MatchJob._slot_sums``)."""
    raw_keys: Optional[np.ndarray] = None
    """``slot * n + value`` over ``raw`` (sorted: ``raw`` is slot-major and
    every set is sorted), built when a descendant first probes the raw sets
    as reuse seeds."""

    @property
    def window(self) -> int:
        """Prefix windows: leading rows of the offer this block covers."""
        return len(self.kept_before) - 1

    def child_at(self, slot: int) -> Optional[tuple[Optional["Block"], int]]:
        """``(child, base)`` for the survivors of ``slot`` — the ``i``-th is
        the child's slot ``base + i`` — ``(None, 0)`` when their cell has no
        child, or ``None`` while the cell is not built (the backend's
        :meth:`KernelBackend.child_block` builds it)."""
        cells = self.cells
        if cells is None:
            return None
        cell = bisect_right(cells, slot) - 1
        try:
            child = self.children[cell]
        except KeyError:
            return None
        if child is None:
            return None, 0
        offsets = self.filtered_offsets
        return child, offsets[slot] - offsets[cells[cell]]

    def raw_set(self, slot: int) -> np.ndarray:
        """The raw set of ``slot`` (a view, or the shared set itself)."""
        offsets = self.raw_offsets
        if offsets is None:
            return self.raw
        return self.raw[offsets[slot] : offsets[slot + 1]]


class KernelBackend(abc.ABC):
    """Pluggable candidate-computation kernel for the warp matcher."""

    #: Registry/config name (``"scalar"``, ``"vectorized"``).
    name: str = "base"
    #: Whether the matcher should offer windows at all (sync-window leaf
    #: candidates, initial rows).
    batched: bool = False

    def block_threshold(
        self, job: "MatchJob", st: "RunState", position: int
    ) -> int:
        """Smallest batch :meth:`leaf_block` would accept for this item.

        ``0`` means the shape is unsupported (or the backend is not
        batched) and the matcher should not offer blocks at all.  The
        matcher caches this per item, so the check must depend only on
        state fixed for the item's lifetime (plan, reuse entry,
        ``st.valid_from``).
        """
        return 0

    def shape_holds(self, job: "MatchJob", position: int, valid_from: int) -> bool:
        """Whether a block built below a prefix window holds, at
        ``position``, what an item whose stack is valid from ``valid_from``
        computes there.

        Blocks are built under ``valid_from`` 2 (every level from 2 down is
        the item's own).  A three-vertex ``Q_task`` task never filled level
        2, so the reuse rule ``entry.source >= valid_from`` gives it another
        list shape — other charges, other counters — wherever the seed is
        position 2; the block may stand in only where the two shapes are one.
        """
        return False

    def leaf_block(
        self,
        job: "MatchJob",
        st: "RunState",
        position: int,
        candidates: np.ndarray,
    ) -> Optional[Block]:
        """Leaf position ``position`` (``k - 1``) for a window of pre-leaf
        ``candidates``: slot ``s`` is the path with ``st.path[position - 1]``
        set to ``candidates[s]``.

        Return ``None`` to decline (unsupported list shape, batch below
        :meth:`block_threshold`) — the matcher then falls back to the
        per-candidate scalar path, which is always charge-identical.
        """
        return None

    def child_block(
        self, job: "MatchJob", block: Block, slot: int
    ) -> tuple[Optional[Block], int]:
        """Position ``block.position + 1`` for the survivors of ``slot``.

        Builds the child for the whole *cell* of ``block``'s survivors that
        holds ``slot``'s, keeps it on ``block`` and returns
        ``block.child_at(slot)`` — so the matcher asks here once per cell
        and reads every other slot of it, from any warp, off the block.
        ``(None, 0)`` declines (unsupported list shape, a slot heavier than
        the volume budget): the descent then takes the per-item path.  Only
        asked for blocks under a prefix window, whose survivors were kept
        and whose level did not truncate.
        """
        return None, 0

    def prefix_block(
        self, job: "MatchJob", rows: np.ndarray
    ) -> Optional[Block]:
        """Position 2 for a leading window of width-2 work ``rows``.

        ``rows`` is the unclaimed remainder of the current work group; the
        backend picks how many of them it covers (at least one chunk).
        Return ``None`` to decline (label-pruned adjacency, too few rows) —
        the chunk then takes the scalar path and the next one asks again.
        """
        return None

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
  over CSR segment slices per window of leaf candidates or initial rows;
  either way the result is one :class:`Block`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.warp_matcher import MatchJob, RunState


@dataclass
class Block:
    """One order position resolved for a window of sibling slots.

    A slot is one partial match about to fill the position: a surviving
    width-2 row (:meth:`KernelBackend.prefix_block`, position 2) or one
    pre-leaf candidate (:meth:`KernelBackend.leaf_block`, position
    ``k - 1``).  The block holds, per slot, everything about the fill that
    is a pure function of (graph, plan, path, config flags) — what the
    scalar ``_raw`` and ``filter_candidates`` return.  The matcher replays
    it slot by slot through ``MatchJob._fill_level`` — real stack writes,
    real charges on the warp that owns the slot — so simulated time is what
    the scalar path produces.  Per-slot sequences are arrays or plain lists,
    whichever the producer's consumer reads faster.
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

    @property
    def window(self) -> int:
        """Prefix windows: leading rows of the offer this block covers."""
        return len(self.kept_before) - 1

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

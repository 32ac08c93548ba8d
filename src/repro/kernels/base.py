"""Kernel backend protocol: how the warp matcher computes candidate sets.

A :class:`KernelBackend` owns the *data-parallel* part of frontier
expansion — intersections, filters and their cycle accounting — while the
warp matcher keeps the *scheduling* part (syncs, timeouts, stealing, stack
writes).  The split is what makes backends swappable without touching the
simulator: every backend must produce bit-identical candidate sets and
cycle charges; they may only differ in host wall-clock.

Two implementations ship:

* :class:`~repro.kernels.scalar.ScalarBackend` — the reference per-candidate
  path (the matcher's original code path, unchanged).
* :class:`~repro.kernels.vectorized.VectorizedBackend` — block-level
  expansion: one NumPy pass per sync window of leaf candidates
  (:class:`LeafBlock`) and per window of initial rows (:class:`PrefixBlock`)
  over CSR segment slices.

Both optionally carry an :class:`~repro.kernels.cache.IntersectionCache`
shared across runs (``repro.serve`` shares one per service so timeout-steal
sub-tasks reuse intersections across requests).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Hashable, Optional, TYPE_CHECKING

import numpy as np

from repro.kernels.cache import IntersectionCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.warp_matcher import MatchJob, RunState


@dataclass
class LeafBlock:
    """One vectorized leaf expansion: per-candidate results of a batch.

    Produced by :meth:`KernelBackend.leaf_block` for the candidates of one
    sync window at the pre-leaf position; consumed by the matcher's thin
    per-candidate loop, which replays stack writes, timeout checks and
    cycle charges in exactly the scalar order.
    """

    candidates: np.ndarray
    """The batch (a slice of the pre-leaf ``filtered`` array)."""
    count: int
    """Number of candidates covered (== ``candidates.size``)."""
    pre_cycles: np.ndarray
    """Per-candidate intersection + static-filter cycles (``_raw`` charge)."""
    leaf_counts: np.ndarray
    """Per-candidate surviving leaf matches."""
    leaf_cycles: np.ndarray
    """Per-candidate leaf filter + emit cycles (``leaf_matches`` charge)."""
    sizes: Optional[np.ndarray] = None
    """Per-candidate raw set sizes (drives bulk stack-write planning)."""
    values: Optional[np.ndarray] = None
    """Concatenated raw leaf candidate sets (``None`` when fixed)."""
    offsets: Optional[np.ndarray] = None
    """``values`` segment bounds: candidate ``j`` owns ``values[o[j]:o[j+1]]``."""
    fixed_raw: Optional[np.ndarray] = None
    """The one raw set shared by every candidate (fixed-list case)."""
    intersections_per_cand: int = 0
    """Pairwise set intersections each candidate performed."""
    reuse_per_cand: int = 0
    """Reuse-plan seed reads each candidate performed (0 or 1)."""


@dataclass
class PrefixBlock:
    """Level-2 results for a window of consecutive width-2 work rows.

    Produced by :meth:`KernelBackend.prefix_block`: everything about a
    row's first stack level that is a pure function of (graph, plan, row,
    config flags).  The matcher replays it row by row — real stack writes,
    real charges on the warp that fetched the row — so simulated time is
    what the scalar path produces.  Rows that fail the edge filter own no
    slot; the survivors are numbered in row order, and per-slot offsets and
    cycles are plain lists (the replay indexes them once per row).
    """

    count: int
    """Window rows covered (a prefix of the rows offered)."""
    kept_before: list
    """``kept_before[i]``: edge-filter survivors among window rows ``[0, i)``
    — the slot of row ``i`` if it survived; ``count + 1`` entries."""
    rows: np.ndarray
    """The surviving rows, in order (slot ``s`` is ``rows[s]``)."""
    raw: np.ndarray
    """Concatenated raw sets at order position 2 (``_raw`` results)."""
    raw_offsets: list
    """Slot ``s`` owns ``raw[raw_offsets[s]:raw_offsets[s + 1]]``."""
    raw_cycles: list
    """Per-slot intersection + static-filter cycles (``_raw`` charge)."""
    filtered: np.ndarray
    """Concatenated ``filter_candidates(position=2)`` results."""
    filtered_offsets: list
    """Slot ``s`` owns ``filtered[filtered_offsets[s]:filtered_offsets[s + 1]]``."""
    filter_cycles: list
    """Per-slot ``filter_candidates`` charge."""
    intersections: int
    """Pairwise set intersections each slot performed (0 or 1)."""


class KernelBackend(abc.ABC):
    """Pluggable candidate-computation kernel for the warp matcher."""

    #: Registry/config name (``"scalar"``, ``"vectorized"``).
    name: str = "base"
    #: Whether the matcher should offer batches at all (sync-window leaf
    #: candidates, windows of initial rows).
    batched: bool = False

    def __init__(self, cache: Optional[IntersectionCache] = None) -> None:
        self.cache = cache
        self._epoch: Optional[int] = None
        self._graph_id: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #

    def begin_run(self, graph) -> None:
        """Bind the cache to ``graph`` for the coming run (idempotent)."""
        if self.cache is not None:
            self._epoch = self.cache.bind(graph)
            self._graph_id = id(graph)

    def cache_get(self, graph, key: Hashable) -> Optional[np.ndarray]:
        """Cached intersection for ``key`` on ``graph``, else ``None``."""
        if self.cache is None:
            return None
        if self._graph_id != id(graph):
            self.begin_run(graph)
        return self.cache.get(self._epoch, key)

    def cache_put(self, graph, key: Hashable, value: np.ndarray) -> None:
        if self.cache is None:
            return
        if self._graph_id != id(graph):
            self.begin_run(graph)
        self.cache.put(self._epoch, key, value)

    # ------------------------------------------------------------------ #
    # Batched expansion
    # ------------------------------------------------------------------ #

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
    ) -> Optional[LeafBlock]:
        """Vectorized leaf expansion of ``candidates`` at the pre-leaf level.

        ``position`` is the leaf order position (``k - 1``); the varying
        vertex is ``st.path[position - 1]``, swept over ``candidates``.
        Return ``None`` to decline (unsupported list shape, empty batch) —
        the matcher then falls back to the per-candidate scalar path, which
        is always charge-identical.
        """
        return None

    def prefix_block(
        self, job: "MatchJob", rows: np.ndarray
    ) -> Optional[PrefixBlock]:
        """Level-2 expansion of a leading window of width-2 work ``rows``.

        ``rows`` is the unclaimed remainder of the current work group; the
        backend picks how many of them it covers (at least one chunk).
        Return ``None`` to decline (an attached intersection cache,
        label-pruned adjacency, too few rows) — the chunk then takes the
        scalar path and the next one asks again.  Must not keep state on
        the backend: instances are shared across concurrently running jobs.
        """
        return None

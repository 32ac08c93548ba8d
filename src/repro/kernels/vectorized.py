"""Block-level frontier expansion: one NumPy pass per window of slots.

The matcher's hot path is the pre-leaf loop: for each candidate ``v`` it
intersects a *fixed* part (a reuse seed or the adjacency lists of already
matched vertices — constant across the whole frontier) with the *varying*
list ``N(v)``, filters, and counts leaves.  Per candidate that is four to
six small NumPy calls; this module computes the same quantities for an
entire sync window (≤ 64 candidates) in one segmented pass:

* the varying lists are materialized as one concatenated array via CSR
  slices (``np.repeat`` over ``row_ptr`` spans — no per-vertex calls),
* the fixed part is intersected against all segments with a single
  ``np.searchsorted``, and per-segment sizes come from ``np.bincount``,
* filters (label, degree, symmetry bound, injectivity) are boolean masks
  over the concatenation, with per-candidate bounds ``np.repeat``-ed in,
* cycle charges use vectorized ports of the :class:`CostModel` formulas
  that reproduce the scalar arithmetic bit-for-bit (same float expression,
  same truncation), so simulated time is *identical* to the scalar backend.

Supported list shapes: one varying list (optionally plus one fixed
list/seed), or all-fixed lists (the result is shared by every candidate and
computed once through the exact scalar routine).  Anything else — three or
more lists including a varying one, or label-pruned adjacency (EGSM's
CT-index) — declines the batch and falls back to the scalar path.

The same pass (:meth:`VectorizedBackend._segmented_block`) serves the
*other* end of an item: :meth:`VectorizedBackend.prefix_block` resolves the
edge filter, the position-2 raw set and its selection filter for a window
of consecutive initial rows, so the per-row work left in the matcher is a
stack write and a charge.  Both ends hand the matcher one
:class:`~repro.kernels.base.Block`.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.core.edge_filter import edge_mask
from repro.core.intersect import intersect_many
from repro.gpusim.costmodel import CostModel, WARP_SIZE
from repro.kernels.base import Block, KernelBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.warp_matcher import MatchJob, RunState


# --------------------------------------------------------------------------- #
# Vectorized cost-model ports (must truncate exactly like the scalar ones)
# --------------------------------------------------------------------------- #


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length()`` for positive ints (≤ 2^53)."""
    return np.frexp(np.maximum(values, 1).astype(np.float64))[1]


def intersect_cost_vec(cost: CostModel, size_a: np.ndarray, size_b) -> np.ndarray:
    """Element-wise :meth:`CostModel.intersect_cost` over size arrays.

    ``size_b`` may be one ``int`` shared by every element: the binary-search
    log term is then a scalar — same float expression, fewer array ops.
    """
    size_a = np.asarray(size_a, dtype=np.int64)
    batches = (size_a + WARP_SIZE - 1) // WARP_SIZE
    if isinstance(size_b, int):
        log_b = max(1, size_b.bit_length())
    else:
        log_b = np.maximum(_bit_length(np.asarray(size_b, dtype=np.int64)), 1)
    per_batch = (
        cost.load_batch * cost.memory_multiplier
        + cost.probe * log_b
        + cost.compact_batch
        + cost.write_batch
    )
    out = (batches.astype(np.float64) * per_batch).astype(np.int64)
    return np.where(size_a <= 0, cost.step, out)


def copy_cost_vec(cost: CostModel, sizes: np.ndarray) -> np.ndarray:
    """Element-wise :meth:`CostModel.copy_cost` over a size array."""
    sizes = np.asarray(sizes, dtype=np.int64)
    batches = (np.maximum(sizes, 1) + WARP_SIZE - 1) // WARP_SIZE
    per_batch = cost.load_batch * cost.memory_multiplier + cost.write_batch
    return (batches.astype(np.float64) * per_batch).astype(np.int64)


def filter_cost_vec(cost: CostModel, sizes: np.ndarray) -> np.ndarray:
    """Element-wise :meth:`CostModel.filter_cost` over a size array."""
    sizes = np.asarray(sizes, dtype=np.int64)
    batches = (np.maximum(sizes, 1) + WARP_SIZE - 1) // WARP_SIZE
    return batches * (cost.load_batch + cost.compact_batch)


def filter_cycles_vec(job: "MatchJob", position: int, raw_sizes) -> np.ndarray:
    """Element-wise ``filter_candidates`` charge for raw sets of
    ``raw_sizes`` at ``position`` (STMatch's separate removal pass is
    charged only on non-empty sets, like the scalar early return)."""
    cost = job.cost
    cycles = filter_cost_vec(cost, raw_sizes)
    if job.config.stmatch_removal:
        cycles = cycles + np.where(
            np.asarray(raw_sizes) > 0,
            intersect_cost_vec(cost, raw_sizes, max(1, position)),
            0,
        )
    return cycles


def _in_sorted(sorted_arr: np.ndarray, values) -> np.ndarray:
    """Boolean membership of ``values`` (array or scalar) in a sorted
    unique array; probes past its end clamp onto the last slot, which the
    equality then rejects."""
    if sorted_arr.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    return (
        sorted_arr.take(np.searchsorted(sorted_arr, values), mode="clip")
        == values
    )


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Segment bounds of a concatenation with per-segment ``counts``."""
    offs = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    return offs


def _gather_adjacency(graph, vertices: np.ndarray):
    """Adjacency lists of ``vertices`` (int64) as one concatenated array.

    Returns ``(cat, seg, degs)``: the CSR slices back to back, the index
    into ``vertices`` each element belongs to, and the per-vertex lengths
    (``np.repeat`` over ``row_ptr`` spans — no per-vertex calls).
    """
    row_ptr, col_idx = graph.row_ptr, graph.col_idx
    n = int(vertices.size)
    starts = row_ptr[vertices]
    degs = row_ptr[vertices + 1] - starts
    offs = _offsets(degs)
    total = int(offs[-1])
    if not total:
        return (
            np.empty(0, dtype=col_idx.dtype),
            np.empty(0, dtype=np.int64),
            degs,
        )
    gather = np.arange(total, dtype=np.int64) + np.repeat(
        starts - offs[:-1], degs
    )
    return col_idx[gather], np.repeat(np.arange(n, dtype=np.int64), degs), degs


def _static_filter_segments(
    job: "MatchJob",
    position: int,
    vals: np.ndarray,
    seg: np.ndarray,
    counts: np.ndarray,
    cycles: np.ndarray,
):
    """Segmented ``MatchJob._static_filter``: label / minimum-degree masks
    over concatenated sets, charged only where a mask applies to a
    non-empty set.  Returns the filtered ``(vals, seg, counts, cycles)``."""
    plan, graph = job.plan, job.graph
    labeled = plan.is_labeled and graph.is_labeled
    need_degree = plan.degrees[position] > 1
    if not (labeled or need_degree):
        return vals, seg, counts, cycles
    mask = None
    if labeled:
        mask = graph.labels[vals] == plan.labels[position]
    if need_degree:
        dmask = graph.degrees[vals] >= plan.degrees[position]
        mask = dmask if mask is None else mask & dmask
    seg = seg[mask]
    cycles = cycles + np.where(
        counts > 0, filter_cost_vec(job.cost, counts), 0
    )
    return vals[mask], seg, np.bincount(seg, minlength=counts.size), cycles


def _slot_bounds(matched: list, cons, n: int) -> Optional[np.ndarray]:
    """Per-slot symmetry lower bound of a window of ``n`` slots.

    ``matched[t]`` is the vertex at order position ``t`` — an ``int`` when
    every slot shares it, an ``(n,)`` array when it varies — and ``cons``
    the positions the filled one must exceed (``plan.constraints``); the
    bound is their element-wise maximum, ``None`` when unconstrained.
    """
    if not cons:
        return None
    bound = matched[cons[0]]
    for t in cons[1:]:
        bound = np.maximum(bound, matched[t])
    if isinstance(bound, np.ndarray):
        return bound
    return np.full(n, bound, dtype=np.int64)


def _edge_keys(job: "MatchJob") -> np.ndarray:
    """``u * n + v`` per directed edge, globally sorted (built once per
    job): ``x in N(u)`` is one ``searchsorted`` against it."""
    if job.edge_keys is None:
        graph = job.graph
        edges = graph.directed_edge_array()
        job.edge_keys = (
            edges[:, 0].astype(np.int64) * graph.num_vertices + edges[:, 1]
        )
    return job.edge_keys


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #

#: Adjacency elements one prefix block gathers: the window is cut where the
#: streamed (smaller) lists of its surviving rows add up to this, so a
#: block stays a few hundred KB whatever the degrees are.  (The replay
#: hands out views, so a block lives until the last warp that read a row
#: of it overwrites its level 2 — at most one old block per warp.)
PREFIX_VOLUME = 1 << 14

#: Rows examined when sizing a window — bounds the sizing pass itself on
#: low-degree graphs, where the volume cap alone would admit a whole group.
PREFIX_MAX_ROWS = 4096

#: Fewest offered rows worth a block: its few dozen NumPy calls cost what
#: the scalar path spends on about ten rows (measured on dblp/P1), so
#: smaller groups and group tails decline, like leaf batches under
#: ``MIN_BATCH``.
PREFIX_MIN_ROWS = 12


class VectorizedBackend(KernelBackend):
    """Segment-batched expansion over CSR slices."""

    name = "vectorized"
    batched = True

    #: Smallest varying batch worth a segmented pass: below this, the fixed
    #: per-block cost of the NumPy pipeline (~tens of small array ops)
    #: exceeds the scalar path's per-candidate cost, so declining — which
    #: is charge-identical by construction — is strictly faster.
    MIN_BATCH = 4

    def __init__(self, min_batch: Optional[int] = None) -> None:
        self.min_batch = self.MIN_BATCH if min_batch is None else int(min_batch)

    # ------------------------------------------------------------------ #
    # Leaf windows
    # ------------------------------------------------------------------ #

    def _leaf_shape(self, job: "MatchJob", st: "RunState", position: int):
        """The one shape decision for leaf windows at ``position``.

        Returns ``(threshold, varying, reuse, positions)``: the smallest
        batch accepted (0 = unsupported shape), whether the swept vertex's
        own adjacency list is among the intersected lists, whether the
        reuse seed is (0 or 1), and the order positions whose lists are.
        """
        plan = job.plan
        pos = position - 1  # the varying (pre-leaf) order position
        entry = plan.reuse[position]
        reuse = int(
            job.config.enable_reuse
            and entry.reuses
            and entry.source >= st.valid_from
        )
        positions = entry.remaining if reuse else plan.backward[position]
        varying = positions.count(pos)
        if not varying:
            # All-fixed: one shared intersection amortizes faster than the
            # varying pipeline, but the per-block fixed cost still wants a
            # few candidates to pay for itself.
            threshold = max(2, self.min_batch - 1)
        elif (
            varying > 1
            # Label-pruned adjacency (EGSM CT-index) varies per target
            # label and cannot be read as raw CSR slices.
            or not job.plain_adjacency
            # ≥ 3 lists including the varying one: the scalar path sorts
            # them by size per candidate — decline rather than emulate.
            or len(positions) - 1 + reuse > 1
        ):
            threshold = 0
        else:
            threshold = self.min_batch
        return threshold, varying, reuse, positions

    def block_threshold(
        self, job: "MatchJob", st: "RunState", position: int
    ) -> int:
        return self._leaf_shape(job, st, position)[0]

    def leaf_block(
        self,
        job: "MatchJob",
        st: "RunState",
        position: int,
        candidates: np.ndarray,
    ) -> Optional[Block]:
        threshold, varying, reuse, positions = self._leaf_shape(job, st, position)
        if not threshold or candidates.size < threshold:
            return None
        path = st.path
        lists = []
        if reuse:
            lists.append(st.stack.level(job.plan.reuse[position].source).raw)
        for j in positions:
            if j != position - 1:
                lists.append(job.adjacency(path[j], position))
        matched = path[: position - 1] + [candidates]
        if not varying:
            return self._shared_block(job, position, matched, lists, reuse)
        return self._segmented_block(
            job,
            position,
            matched,
            stream=candidates.astype(np.int64),
            shared=lists[0] if lists else None,
            reuse=reuse,
        )

    # ------------------------------------------------------------------ #
    # Level 2 of a window of initial rows
    # ------------------------------------------------------------------ #

    def prefix_block(
        self, job: "MatchJob", rows: np.ndarray
    ) -> Optional[Block]:
        if not job.plain_adjacency or len(rows) < PREFIX_MIN_ROWS:
            # Label-pruned adjacency (EGSM) is not a CSR slice; a handful
            # of rows is cheaper one by one.
            return None
        plan, graph = job.plan, job.graph
        degrees = graph.degrees
        backs = plan.backward[2]

        # Edge filter, then the window: as many leading rows as fit the
        # gather budget, never less than one chunk.
        head = rows[: max(PREFIX_MAX_ROWS, job.config.chunk_size)]
        keep = edge_mask(graph, plan, head, job.config.enable_edge_filter)
        streamed = degrees[head[:, backs[0]]]
        if len(backs) == 2:
            streamed = np.minimum(streamed, degrees[head[:, backs[1]]])
        volume = np.cumsum(np.where(keep, streamed, 0))
        count = int(np.searchsorted(volume, PREFIX_VOLUME, side="right"))
        count = min(max(count, job.config.chunk_size), len(head))
        keep = keep[:count]
        kept = head[:count][keep]

        stream = kept[:, backs[0]].astype(np.int64)
        partner = None
        if len(backs) == 2:
            # Stream the smaller list of each row; ties keep the first.
            partner = kept[:, backs[1]].astype(np.int64)
            swap = degrees[stream] > degrees[partner]
            stream, partner = (
                np.where(swap, partner, stream),
                np.where(swap, stream, partner),
            )
        block = self._segmented_block(
            job,
            2,
            [kept[:, 0], kept[:, 1]],
            stream=stream,
            partner=partner,
            keep_filtered=True,
        )
        block.rows = kept
        block.kept_before = _offsets(keep).tolist()
        # The row replay indexes these once per row: plain lists read faster.
        block.raw_offsets = block.raw_offsets.tolist()
        block.raw_cycles = block.raw_cycles.tolist()
        block.filtered_offsets = block.filtered_offsets.tolist()
        block.filter_cycles = block.filter_cycles.tolist()
        return block

    # ------------------------------------------------------------------ #
    # The segmented pass: one streamed adjacency list per slot
    # ------------------------------------------------------------------ #

    def _segmented_block(
        self,
        job: "MatchJob",
        position: int,
        matched: list,
        stream: np.ndarray,
        partner: Optional[np.ndarray] = None,
        shared: Optional[np.ndarray] = None,
        reuse: int = 0,
        keep_filtered: bool = False,
    ) -> Block:
        """``_raw`` + ``filter_candidates`` at ``position`` for every slot.

        Slot ``s`` streams ``N(stream[s])`` (int64 vertices) against at most
        one other list — ``N(partner[s])``, which the caller makes the
        longer of the two, or the one ``shared`` sorted set — and filters
        the result against ``matched`` (see :func:`_slot_bounds`).
        """
        graph, cost = job.graph, job.cost
        n = int(stream.size)
        cat, seg, degs = _gather_adjacency(graph, stream)
        if partner is None and shared is None:
            counts, cycles = degs, copy_cost_vec(cost, degs)
        else:
            if partner is not None:
                # ``x in N(partner)`` is "(partner, x) is a directed edge".
                hit = _in_sorted(
                    _edge_keys(job),
                    np.repeat(partner, degs) * graph.num_vertices + cat,
                )
                small, big = degs, graph.degrees[partner]
            else:
                hit = _in_sorted(shared, cat)
                small, big = degs, int(shared.size)
                if big < degs.max():
                    # The scalar path streams whichever list is smaller.
                    small, big = np.minimum(degs, big), np.maximum(degs, big)
            cat, seg = cat[hit], seg[hit]
            counts = np.bincount(seg, minlength=n)
            cycles = intersect_cost_vec(cost, small, big)
        raw, seg, raw_sizes, raw_cycles = _static_filter_segments(
            job, position, cat, seg, counts, cycles
        )

        # ``filter_candidates`` over the concatenated raw sets.  No
        # label/degree re-check: ``raw`` passed the static filter, and
        # adjacency members have degree >= 1 when the plan asks no more.
        bounds = _slot_bounds(matched, job.plan.constraints[position], n)
        mask = None if bounds is None else raw > np.repeat(bounds, raw_sizes)
        for u in matched:  # injectivity
            if isinstance(u, np.ndarray):
                u = np.repeat(u, raw_sizes)
            if mask is None:
                mask = raw != u
            else:
                mask &= raw != u
        survivors = np.bincount(seg[mask], minlength=n)
        block = Block(
            count=n,
            raw=raw,
            raw_offsets=_offsets(raw_sizes),
            raw_sizes=raw_sizes,
            raw_cycles=raw_cycles,
            filter_cycles=filter_cycles_vec(job, position, raw_sizes),
            survivors=survivors,
            intersections=int(partner is not None or shared is not None),
            reuse=reuse,
        )
        if keep_filtered:
            block.filtered = raw[mask]
            block.filtered_offsets = _offsets(survivors)
        return block

    # ------------------------------------------------------------------ #
    # All-fixed lists: one raw set shared by the whole window
    # ------------------------------------------------------------------ #

    def _shared_block(
        self,
        job: "MatchJob",
        position: int,
        matched: list,
        lists: list,
        reuse: int,
    ) -> Block:
        candidates = matched[-1]
        n = int(candidates.size)
        raw, cycles, intersections = intersect_many(lists, job.cost)
        raw, cycles = job._static_filter(raw, position, cycles)

        # The raw set is shared, so per-slot variation comes only from the
        # symmetry bound and the varying vertex itself — countable with
        # searchsorted, no per-slot materialization.  The scalar path's
        # label/degree re-check is vacuous here: the raw set already passed
        # ``_static_filter`` and every member of an adjacency list (or an
        # intersection of them) has degree >= 1.
        bounds = _slot_bounds(matched, job.plan.constraints[position], n)
        if bounds is None:
            counts = np.full(n, raw.size, dtype=np.int64)
        else:
            counts = (
                raw.size - np.searchsorted(raw, bounds, side="right")
            ).astype(np.int64)
        # Injectivity: drop already-matched vertices that would otherwise
        # count — the fixed prefix, then the varying vertex per slot.
        for u in matched[:-1]:
            if _in_sorted(raw, u):
                counts -= 1 if bounds is None else u > bounds
        member = _in_sorted(raw, candidates)
        counts -= member if bounds is None else member & (candidates > bounds)

        return Block(
            count=n,
            raw=raw,
            raw_offsets=None,
            raw_sizes=np.full(n, raw.size, dtype=np.int64),
            raw_cycles=np.full(n, cycles, dtype=np.int64),
            filter_cycles=np.full(
                n, filter_cycles_vec(job, position, raw.size), dtype=np.int64
            ),
            survivors=counts,
            intersections=intersections,
            reuse=reuse,
        )

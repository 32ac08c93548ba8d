"""Block-level frontier expansion: one NumPy pass per sync window.

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

The same machinery serves the *other* end of an item: :meth:`VectorizedBackend.
prefix_block` resolves the edge filter, the position-2 raw set and its
selection filter for a window of consecutive initial rows in one pass, so
the per-row work left in the matcher is a stack write and a charge.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.core.edge_filter import edge_mask
from repro.core.intersect import intersect_sorted
from repro.gpusim.costmodel import CostModel, WARP_SIZE
from repro.kernels.base import KernelBackend, LeafBlock, PrefixBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.warp_matcher import MatchJob, RunState


# --------------------------------------------------------------------------- #
# Vectorized cost-model ports (must truncate exactly like the scalar ones)
# --------------------------------------------------------------------------- #


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length()`` for positive ints (≤ 2^53)."""
    return np.frexp(np.maximum(values, 1).astype(np.float64))[1]


def intersect_cost_vec(
    cost: CostModel, size_a: np.ndarray, size_b: np.ndarray
) -> np.ndarray:
    """Element-wise :meth:`CostModel.intersect_cost` over size arrays."""
    size_a = np.asarray(size_a, dtype=np.int64)
    size_b = np.asarray(size_b, dtype=np.int64)
    batches = (size_a + WARP_SIZE - 1) // WARP_SIZE
    log_b = np.maximum(_bit_length(size_b), 1)
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


def _in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in a sorted unique array."""
    if sorted_arr.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    pos = np.searchsorted(sorted_arr, values)
    pos = np.minimum(pos, sorted_arr.size - 1)
    return sorted_arr[pos] == values


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
    """Segment-batched leaf expansion over CSR slices."""

    name = "vectorized"
    batched = True

    #: Smallest varying batch worth a segmented pass: below this, the fixed
    #: per-block cost of the NumPy pipeline (~tens of small array ops)
    #: exceeds the scalar path's per-candidate cost, so declining — which
    #: is charge-identical by construction — is strictly faster.
    MIN_BATCH = 4

    def __init__(self, cache=None, min_batch: Optional[int] = None) -> None:
        super().__init__(cache)
        self.min_batch = self.MIN_BATCH if min_batch is None else int(min_batch)

    def block_threshold(
        self, job: "MatchJob", st: "RunState", position: int
    ) -> int:
        """Shape check mirroring :meth:`leaf_block`'s declines, sans data."""
        plan = job.plan
        pos = position - 1
        entry = plan.reuse[position]
        if (
            job.config.enable_reuse
            and entry.reuses
            and entry.source >= st.valid_from
        ):
            positions = entry.remaining
            extra_fixed = 1  # the reuse seed
        else:
            positions = plan.backward[position]
            extra_fixed = 0
        var_count = positions.count(pos)
        if var_count > 1:
            return 0
        if var_count == 0:
            # One shared intersection amortizes faster than the varying
            # pipeline, but the per-block fixed cost still wants a few
            # candidates to pay for itself.
            return max(2, self.min_batch - 1)
        if not job.plain_adjacency:
            return 0
        if len(positions) - 1 + extra_fixed > 1:
            return 0
        return self.min_batch

    def leaf_block(
        self,
        job: "MatchJob",
        st: "RunState",
        position: int,
        candidates: np.ndarray,
    ) -> Optional[LeafBlock]:
        n = int(candidates.size)
        if n == 0:
            return None
        plan = job.plan
        cfg = job.config
        path = st.path
        pos = position - 1  # the varying (pre-leaf) order position
        entry = plan.reuse[position]
        reuse_active = (
            cfg.enable_reuse and entry.reuses and entry.source >= st.valid_from
        )
        if reuse_active:
            positions = entry.remaining
            fixed = [st.stack.level(entry.source).raw]
            reuse_per_cand = 1
        else:
            positions = plan.backward[position]
            fixed = []
            reuse_per_cand = 0
        var_count = positions.count(pos)
        if var_count > 1:
            return None
        if var_count == 0:
            # All-fixed: one shared intersection amortizes over the batch.
            if n < max(2, self.min_batch - 1):
                return None
            for j in positions:
                fixed.append(job.adjacency(path[j], position))
            return self._fixed_block(
                job, st, position, candidates, fixed, reuse_per_cand
            )
        if not job.plain_adjacency:
            # Label-pruned adjacency (EGSM CT-index) varies per target
            # label and cannot be read as raw CSR slices.
            return None
        if n < self.min_batch:
            return None
        if len(fixed) + len(positions) - 1 > 1:
            # ≥ 3 lists including the varying one: the scalar path sorts
            # them by size per candidate — decline rather than emulate.
            return None
        for j in positions:
            if j != pos:
                fixed.append(job.adjacency(path[j], position))
        return self._varying_block(
            job, st, position, candidates, fixed, reuse_per_cand
        )

    # ------------------------------------------------------------------ #
    # Level 2 of a window of initial rows
    # ------------------------------------------------------------------ #

    def prefix_block(
        self, job: "MatchJob", rows: np.ndarray
    ) -> Optional[PrefixBlock]:
        if (
            self.cache is not None
            or not job.plain_adjacency
            or len(rows) < PREFIX_MIN_ROWS
        ):
            # Cache hits change virtual time and depend on arrival order;
            # label-pruned adjacency (EGSM) is not a CSR slice; a handful
            # of rows is cheaper one by one.
            return None
        plan, graph, cost = job.plan, job.graph, job.cost
        degrees = graph.degrees
        backs = plan.backward[2]

        # (1) Edge filter, then the window: as many leading rows as fit the
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
        m = len(kept)

        # (2) Raw sets, as ``_intersect`` + ``_static_filter`` produce them.
        first = kept[:, backs[0]].astype(np.int64)
        if len(backs) == 1:
            cat, seg, counts = _gather_adjacency(graph, first)
            cycles = copy_cost_vec(cost, counts)
        else:
            second = kept[:, backs[1]].astype(np.int64)
            d1, d2 = degrees[first], degrees[second]
            swap = d1 > d2  # stream the smaller list; ties keep the first
            cat, seg, d_small = _gather_adjacency(
                graph, np.where(swap, second, first)
            )
            # ``x in N(big)`` is "(big, x) is a directed edge": one
            # searchsorted against the graph's globally sorted edge keys.
            if job.edge_keys is None:
                edges = graph.directed_edge_array()
                job.edge_keys = (
                    edges[:, 0].astype(np.int64) * graph.num_vertices
                    + edges[:, 1]
                )
            keys = job.edge_keys
            probe = (
                np.repeat(np.where(swap, first, second), d_small)
                * graph.num_vertices
                + cat
            )
            hit = keys.take(np.searchsorted(keys, probe), mode="clip") == probe
            cat, seg = cat[hit], seg[hit]
            counts = np.bincount(seg, minlength=m)
            cycles = intersect_cost_vec(cost, d_small, np.maximum(d1, d2))
        raw, seg, raw_counts, raw_cycles = _static_filter_segments(
            job, 2, cat, seg, counts, cycles
        )

        # (3) ``filter_candidates(position=2)`` on those raw sets.  No
        # label/degree re-check: ``raw`` passed the static filter, and
        # adjacency members have degree >= 1 when the plan asks no more.
        mask = (raw != np.repeat(kept[:, 0], raw_counts)) & (
            raw != np.repeat(kept[:, 1], raw_counts)
        )
        cons = plan.constraints[2]
        if cons:
            bound = kept[:, cons[0]] if len(cons) == 1 else kept.max(axis=1)
            mask &= raw > np.repeat(bound, raw_counts)
        return PrefixBlock(
            count=count,
            kept_before=_offsets(keep).tolist(),
            rows=kept,
            raw=raw,
            raw_offsets=_offsets(raw_counts).tolist(),
            raw_cycles=raw_cycles.tolist(),
            filtered=raw[mask],
            filtered_offsets=_offsets(
                np.bincount(seg[mask], minlength=m)
            ).tolist(),
            filter_cycles=self._leaf_cycle_base(job, 2, raw_counts).tolist(),
            intersections=len(backs) - 1,
        )

    # ------------------------------------------------------------------ #
    # All-fixed lists: one raw set shared by the whole window
    # ------------------------------------------------------------------ #

    def _fixed_block(
        self,
        job: "MatchJob",
        st: "RunState",
        position: int,
        candidates: np.ndarray,
        lists: list,
        reuse_per_cand: int,
    ) -> LeafBlock:
        cost = job.cost
        n = int(candidates.size)
        # Replicate the scalar ``_intersect`` exactly, once.
        intersections = 0
        if len(lists) == 1:
            raw = lists[0]
            cycles = cost.copy_cost(raw.size)
        elif len(lists) == 2:
            intersections = 1
            a, b = lists
            if a.size > b.size:
                a, b = b, a
            cycles = cost.intersect_cost(a.size, b.size)
            raw = intersect_sorted(a, b)
        else:
            lists.sort(key=lambda x: x.size)
            raw = lists[0]
            cycles = 0
            for other in lists[1:]:
                intersections += 1
                cycles += cost.intersect_cost(raw.size, other.size)
                raw = intersect_sorted(raw, other)
                if raw.size == 0:
                    break
        raw, cycles = job._static_filter(raw, position, cycles)
        pre_cycles = np.full(n, cycles, dtype=np.int64)

        # Leaf filter: the raw set is shared, so per-candidate variation
        # comes only from the symmetry bound and the varying vertex itself —
        # countable with searchsorted, no per-candidate materialization.
        # The scalar path's label/degree re-check is vacuous here: the raw
        # set already passed ``_static_filter`` and every member of an
        # adjacency list (or an intersection of them) has degree >= 1.
        plan, graph = job.plan, job.graph
        survivors = raw

        path = st.path
        pos = position - 1
        cons = plan.constraints[position]
        bounds: Optional[np.ndarray] = None
        if cons:
            fixed_bound = None
            for t in cons:
                if t != pos and (fixed_bound is None or path[t] > fixed_bound):
                    fixed_bound = path[t]
            if pos in cons:
                bounds = candidates.astype(np.int64)
                if fixed_bound is not None:
                    np.maximum(bounds, fixed_bound, out=bounds)
            else:
                bounds = np.full(n, fixed_bound, dtype=np.int64)
            counts = (
                survivors.size
                - np.searchsorted(survivors, bounds, side="right")
            ).astype(np.int64)
        else:
            counts = np.full(n, survivors.size, dtype=np.int64)
        # Injectivity: drop already-matched vertices that would otherwise
        # count — the fixed prefix, then the varying vertex per candidate.
        for t in range(position):
            if t == pos:
                continue
            u = path[t]
            if _in_sorted(survivors, np.int64(u)):
                if bounds is None:
                    counts -= 1
                else:
                    counts -= u > bounds
        var_member = _in_sorted(survivors, candidates)
        if bounds is None:
            counts -= var_member
        else:
            counts -= var_member & (candidates > bounds)

        leaf_cycles = self._leaf_cycle_base(job, position, np.int64(raw.size))
        leaf_cycles = np.full(n, leaf_cycles, dtype=np.int64)
        leaf_cycles += counts * cost.emit_match
        return LeafBlock(
            candidates=candidates,
            count=n,
            pre_cycles=pre_cycles,
            leaf_counts=counts,
            leaf_cycles=leaf_cycles,
            sizes=np.full(n, raw.size, dtype=np.int64),
            fixed_raw=raw,
            intersections_per_cand=intersections,
            reuse_per_cand=reuse_per_cand,
        )

    # ------------------------------------------------------------------ #
    # One varying list (optionally against one fixed list/seed)
    # ------------------------------------------------------------------ #

    def _varying_block(
        self,
        job: "MatchJob",
        st: "RunState",
        position: int,
        candidates: np.ndarray,
        fixed: list,
        reuse_per_cand: int,
    ) -> LeafBlock:
        cost = job.cost
        plan = job.plan
        n = int(candidates.size)

        cand64 = candidates.astype(np.int64)
        cat, seg, degs = _gather_adjacency(job.graph, cand64)

        intersections_per_cand = 0
        if fixed:
            base = fixed[0]
            intersections_per_cand = 1
            bs = int(base.size)
            if bs and cat.size:
                hit = base.take(
                    np.searchsorted(base, cat), mode="clip"
                ) == cat
                kept = cat[hit]
                kseg = seg[hit]
            else:
                kept = cat[:0]
                kseg = seg[:0]
            inter_counts = np.bincount(kseg, minlength=n)
            dmax = int(degs.max()) if n else 0
            if bs >= dmax:
                # The fixed list is the larger side for every candidate, so
                # the binary-search log term is one scalar — same float
                # expression as ``CostModel.intersect_cost``, fewer array
                # ops than the elementwise port.
                batches = (degs + WARP_SIZE - 1) // WARP_SIZE
                per_batch = (
                    cost.load_batch * cost.memory_multiplier
                    + cost.probe * max(1, bs.bit_length())
                    + cost.compact_batch
                    + cost.write_batch
                )
                pre_cycles = np.where(
                    degs <= 0,
                    cost.step,
                    (batches.astype(np.float64) * per_batch).astype(np.int64),
                )
            else:
                pre_cycles = intersect_cost_vec(
                    cost, np.minimum(degs, bs), np.maximum(degs, bs)
                )
        else:
            kept = cat
            kseg = seg
            inter_counts = degs
            pre_cycles = copy_cost_vec(cost, degs)

        raw_cat, raw_seg, raw_counts, pre_cycles = _static_filter_segments(
            job, position, kept, kseg, inter_counts, pre_cycles
        )
        raw_offs = _offsets(raw_counts)

        # Leaf selection filters over the concatenated raw sets.  No
        # label/degree re-check: ``raw_cat`` already passed the static
        # filter, and adjacency members always have degree >= 1 when the
        # plan requires no more.
        path = st.path
        pos = position - 1
        cons = plan.constraints[position]
        if cons:
            fixed_bound = None
            for t in cons:
                if t != pos and (fixed_bound is None or path[t] > fixed_bound):
                    fixed_bound = path[t]
            if pos in cons:
                bounds = cand64
                if fixed_bound is not None:
                    bounds = np.maximum(bounds, fixed_bound)
            else:
                bounds = np.full(n, fixed_bound, dtype=np.int64)
            lmask = raw_cat > np.repeat(bounds, raw_counts)
        else:
            lmask = np.ones(raw_cat.size, dtype=bool)
        for t in range(position):
            if t == pos:
                continue
            lmask &= raw_cat != path[t]
        lmask &= raw_cat != np.repeat(
            candidates.astype(raw_cat.dtype), raw_counts
        )
        leaf_counts = np.bincount(raw_seg[lmask], minlength=n)

        leaf_cycles = self._leaf_cycle_base(job, position, raw_counts)
        leaf_cycles = leaf_cycles + leaf_counts * cost.emit_match
        return LeafBlock(
            candidates=candidates,
            count=n,
            pre_cycles=pre_cycles,
            leaf_counts=leaf_counts,
            leaf_cycles=leaf_cycles,
            sizes=raw_counts,
            values=raw_cat,
            offsets=raw_offs,
            intersections_per_cand=intersections_per_cand,
            reuse_per_cand=reuse_per_cand,
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _leaf_cycle_base(job: "MatchJob", position: int, raw_sizes):
        """``filter_candidates`` charge(s) minus the per-match emit term."""
        cost = job.cost
        base = filter_cost_vec(cost, raw_sizes)
        if job.config.stmatch_removal:
            base = base + np.where(
                np.asarray(raw_sizes) > 0,
                intersect_cost_vec(
                    cost,
                    raw_sizes,
                    np.full_like(np.asarray(raw_sizes), max(1, position)),
                ),
                0,
            )
        return base

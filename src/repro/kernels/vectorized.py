"""Block-level frontier expansion: one NumPy pass per window of slots.

Filling a stack level for one partial match is four to forty small NumPy
calls — gather the adjacency lists (or a reuse seed), intersect, filter,
count — and most of their cost is the calls, not the work.  This module
computes the same quantities for a whole window of sibling partial matches
(*slots*) in one segmented pass:

* each slot's streamed list is materialized into one concatenated array
  (``np.repeat`` over ``row_ptr`` spans — no per-vertex calls),
* the other list of every slot is probed in one call: a partner vertex's
  adjacency list as bit ``partner * n + value`` of the graph's packed
  adjacency bitset (:meth:`~repro.graph.csr.CSRGraph.adjacency_bits`), a
  reuse seed with one ``np.searchsorted`` against its ancestor block's
  sorted ``slot * n + value`` keys; per-segment sizes come from
  ``np.bincount``,
* filters (label, degree, symmetry bound, injectivity) are boolean masks
  over the concatenation, with per-slot bounds ``np.repeat``-ed in,
* cycle charges use vectorized ports of the :class:`CostModel` formulas
  that reproduce the scalar arithmetic bit-for-bit (same float expression,
  same truncation), so simulated time is *identical* to the scalar backend.

The pass (:meth:`VectorizedBackend._segmented_block`) has three producers,
and all hand the matcher one :class:`~repro.kernels.base.Block`:

* :meth:`VectorizedBackend.prefix_block` — the edge filter, the position-2
  raw set and its selection filter for a window of consecutive initial rows;
* :meth:`VectorizedBackend.child_block` — the next position for a *cell* of
  another block's survivors, so below a prefix window every level is
  resolved once per window and the per-item work left in the matcher is a
  stack write and a charge;
* :meth:`VectorizedBackend.leaf_block` — the leaf for one sync window
  (≤ 64 candidates) of an item that has no block above it (unblocked
  rows, stolen halves, ``Q_task`` tasks that inherited none).

Supported list shapes, per slot: one streamed adjacency list, alone or
against one other list — a partner vertex's adjacency list or a reuse
seed — or the seed alone; and, for leaf windows only, all-fixed lists (the
result is shared by every candidate and computed once through the exact
scalar routine).  Anything else — three or more lists including a varying
one, label-pruned adjacency (EGSM's CT-index), or a partner list on a graph
too large for an adjacency bitset — declines and falls back to the scalar
path.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from functools import partial
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.core.edge_filter import edge_mask
from repro.core.intersect import intersect_many
from repro.gpusim.costmodel import CostModel, WARP_SIZE
from repro.kernels.base import Block, KernelBackend, _int64s

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
    if job.stmatch_removal:
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


def _gather_segments(values: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """Segments ``values[starts[s]:starts[s] + lens[s]]`` back to back.

    Returns ``(cat, seg, lens)``: the concatenation, the segment index each
    element belongs to, and the lengths (``np.repeat`` over the spans — no
    per-segment calls).
    """
    offs = _offsets(lens)
    total = int(offs[-1])
    if not total:
        return (
            np.empty(0, dtype=values.dtype),
            np.empty(0, dtype=np.int64),
            lens,
        )
    gather = np.arange(total, dtype=np.int64) + np.repeat(
        starts - offs[:-1], lens
    )
    seg = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    return values[gather], seg, lens


def _gather_adjacency(graph, vertices: np.ndarray):
    """Adjacency lists of ``vertices`` (int64) as CSR segments."""
    starts = graph.row_ptr[vertices]
    return _gather_segments(
        graph.col_idx, starts, graph.row_ptr[vertices + 1] - starts
    )


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


def _in_bits(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean: bit ``keys`` of the packed bitset ``bits`` is set."""
    return ((bits[keys >> 3] >> (keys & 7).astype(np.uint8)) & 1).view(bool)


def _raw_keys(block: Block, n: int) -> np.ndarray:
    """``slot * n + value`` over ``block.raw`` (built once per block):
    ``x in raw set of slot s`` is one ``searchsorted`` against it."""
    if block.raw_keys is None:
        slots = np.repeat(
            np.arange(block.count, dtype=np.int64), block.raw_sizes
        )
        block.raw_keys = slots * n + block.raw
    return block.raw_keys


def _ancestor(block: Block, slots: np.ndarray, position: int):
    """``(ancestor, its slots)`` at ``position`` for ``slots`` of ``block``."""
    while block.position > position:
        slots = block.parent_slots[slots]
        block = block.parent()
    return block, slots


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #

#: Elements one block gathers: a prefix window is cut where the streamed
#: (smaller) lists of its surviving rows add up to this, and so is a cell
#: of a block's survivors, so a block stays a few hundred KB whatever the
#: degrees are.  (Only the per-slot replay hands a level a view, so a
#: block lives until the last warp whose replay read a slot of it
#: overwrites that level — at most one old window per warp; a block only
#: folded is pinned by no level — and a window keeps the cells its warps
#: entered.)
PREFIX_VOLUME = 1 << 14

#: Rows examined when sizing a window — bounds the sizing pass itself on
#: low-degree graphs, where the volume cap alone would admit a whole group.
PREFIX_MAX_ROWS = 4096

#: Fewest offered rows worth a block: its few dozen NumPy calls cost what
#: the scalar path spends on about ten rows (measured on dblp/P1), so
#: smaller groups and group tails decline, like leaf batches under
#: ``MIN_BATCH`` — and so does a block with fewer survivors than this
#: asked for its children.
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

    # ------------------------------------------------------------------ #
    # The shape decision
    # ------------------------------------------------------------------ #

    def _shape(self, job: "MatchJob", position: int, valid_from: int):
        """The one shape decision for filling ``position`` below an item
        whose stack is valid from ``valid_from`` — memoised on the job (it
        depends on nothing else but the plan and two job flags).

        Returns ``(threshold, varying, reuse, positions, per_slot)``: the
        smallest leaf window accepted (0 = unsupported shape), whether the
        vertex at ``position - 1`` is among the intersected adjacency lists,
        whether the reuse seed is (0 or 1), the order positions whose lists
        are, and whether the shape is supported when *every* list varies per
        slot (a child cell): at most two lists, read as plain CSR slices.
        """
        key = (position, valid_from)
        shape = job.shapes.get(key)
        if shape is not None:
            return shape
        plan = job.plan
        pos = position - 1  # the varying (pre-leaf) order position
        entry = plan.reuse[position]
        reuse = int(
            job.config.enable_reuse
            and entry.reuses
            and entry.source >= valid_from
        )
        positions = entry.remaining if reuse else plan.backward[position]
        varying = positions.count(pos)
        # Label-pruned adjacency (EGSM CT-index) varies per target label
        # and cannot be read as raw CSR slices; with >= 3 lists the scalar
        # path sorts them by size per slot — decline rather than emulate.
        per_slot = job.plain_adjacency and len(positions) + reuse <= 2
        if not varying:
            # All-fixed: one shared intersection amortizes faster than the
            # varying pipeline, but the per-block fixed cost still wants a
            # few candidates to pay for itself.
            threshold = max(2, self.MIN_BATCH - 1)
        elif varying > 1 or not per_slot:
            threshold = 0
        else:
            threshold = self.MIN_BATCH
        shape = job.shapes[key] = (threshold, varying, reuse, positions, per_slot)
        return shape

    def block_threshold(
        self, job: "MatchJob", st: "RunState", position: int
    ) -> int:
        return self._shape(job, position, st.valid_from)[0]

    def shape_holds(self, job: "MatchJob", position: int, valid_from: int) -> bool:
        return self._shape(job, position, valid_from) == self._shape(job, position, 2)

    # ------------------------------------------------------------------ #
    # Leaf windows
    # ------------------------------------------------------------------ #

    def leaf_block(
        self,
        job: "MatchJob",
        st: "RunState",
        position: int,
        candidates: np.ndarray,
    ) -> Optional[Block]:
        threshold, varying, reuse, positions, _ = self._shape(
            job, position, st.valid_from
        )
        if not threshold or candidates.size < threshold:
            return None
        path = st.path
        lists = []
        if reuse:
            lists.append(st.levels[job.plan.reuse[position].source - 2].raw)
        for j in positions:
            if j != position - 1:
                lists.append(job.adjacency(path[j], position))
        matched = path[: position - 1] + [candidates]
        if not varying:
            return self._shared_block(job, position, matched, lists, reuse)
        # The fixed list is a seed with one segment, which every slot probes.
        return self._segmented_block(
            job,
            position,
            matched,
            _gather_adjacency(job.graph, candidates.astype(np.int64)),
            probe=(
                (partial(_in_sorted, lists[0]), None, int(lists[0].size))
                if lists
                else None
            ),
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
        backs = plan.backward[2]
        if len(backs) == 2 and graph.adjacency_bits() is None:
            return None  # a partner list, and no bitset to probe it in
        degrees = graph.degrees

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

        matched = [kept[:, 0], kept[:, 1]]
        stream, partner = self._adjacency_pair(graph, matched, backs)
        block = self._segmented_block(
            job,
            2,
            matched,
            _gather_adjacency(graph, stream),
            probe=self._partner_probe(job, partner),
            keep_filtered=True,
        )
        block.rows = kept
        block.kept_before = _int64s(_offsets(keep))
        return block

    @staticmethod
    def _adjacency_pair(graph, matched: list, positions):
        """Per-slot ``(stream, partner)`` vertices (int64) for the one or
        two adjacency lists at ``positions``: the smaller list of each slot
        is streamed, ties keep the first; ``partner`` is ``None`` for one."""
        stream = matched[positions[0]].astype(np.int64)
        if len(positions) == 1:
            return stream, None
        partner = matched[positions[1]].astype(np.int64)
        degrees = graph.degrees
        swap = degrees[stream] > degrees[partner]
        return np.where(swap, partner, stream), np.where(swap, stream, partner)

    @staticmethod
    def _partner_probe(job: "MatchJob", partner: Optional[np.ndarray]):
        """``x in N(partner)`` is bit ``partner * n + x`` of the graph's
        adjacency bitset (the producers decline where it has none)."""
        if partner is None:
            return None
        return (
            partial(_in_bits, job.graph.adjacency_bits()),
            partner,
            job.graph.degrees[partner],
        )

    # ------------------------------------------------------------------ #
    # The next level of a cell of a block's survivors
    # ------------------------------------------------------------------ #

    def child_block(
        self, job: "MatchJob", block: Block, slot: int
    ) -> tuple[Optional[Block], int]:
        cells = block.cells
        if cells is None:
            cells = self._cut_cells(job, block)
        cell = bisect_right(cells, slot) - 1
        if cell not in block.children:
            block.children[cell] = self._cell_block(
                job, block, cells[cell], cells[cell + 1]
            )
        return block.child_at(slot)

    def _survivors(self, job: "MatchJob", parent: Block, lo: int, hi: int):
        """The survivors of ``parent``'s slots ``lo:hi`` as the slots of the
        next position: ``(up, column, seed, seed_slots)`` — the parent slot
        each survived from; ``column(t)``, their path vertex at order
        position ``t``; and, when the reuse plan applies, the ancestor block
        that resolved its source position on these paths with the slot of it
        whose raw segment seeds each intersection (else ``None, None``).
        """
        position = parent.position + 1
        offsets = parent.filtered_offsets
        own = parent.filtered[offsets[lo] : offsets[hi]]
        up = np.repeat(
            np.arange(lo, hi, dtype=np.int64), parent.survivors[lo:hi]
        )

        def column(t: int) -> np.ndarray:
            return own if t == position - 1 else parent.matched[t][up]

        if not self._shape(job, position, 2)[2]:
            return up, column, None, None
        seed, seed_slots = _ancestor(parent, up, job.plan.reuse[position].source)
        return up, column, seed, seed_slots

    def _cut_cells(self, job: "MatchJob", parent: Block) -> list:
        """Cut ``parent``'s slots, once, into cells whose survivors gather
        at most ``PREFIX_VOLUME`` elements at the next position.

        A slot heavier than the budget on its own is a cell without a child
        (its subtree takes the per-item path, where sync-window leaf blocks
        do well on large sets); so is a block with too few survivors to be
        worth a pass, a declined shape, or a partner list on a graph without
        an adjacency bitset.
        """
        count = parent.count
        _, _, reuse, positions, per_slot = self._shape(job, parent.position + 1, 2)
        partner = not reuse and len(positions) == 2
        if (
            not per_slot
            or len(parent.filtered) < PREFIX_MIN_ROWS
            or partner and job.graph.adjacency_bits() is None
        ):
            parent.children = {0: None}
            parent.cells = [0, count]
            return parent.cells
        # What each survivor streams: the smaller adjacency list, or the
        # seed itself when nothing is left to intersect it with.
        _, column, seed, seed_slots = self._survivors(job, parent, 0, count)
        degrees = job.graph.degrees
        if not positions:
            lens = seed.raw_sizes[seed_slots]
        else:
            lens = degrees[column(positions[0])]
            if len(positions) == 2:
                lens = np.minimum(lens, degrees[column(positions[1])])
        # Greedy cut at slot boundaries: ``volume[s]`` is what the slots
        # before ``s`` gather.
        volume = _offsets(lens)[np.asarray(parent.filtered_offsets)]
        cells, children = [0], {}
        while cells[-1] < count:
            lo = cells[-1]
            hi = int(
                np.searchsorted(volume, volume[lo] + PREFIX_VOLUME, side="right")
            ) - 1
            if hi <= lo:  # one slot over the budget
                hi = lo + 1
                children[len(cells) - 1] = None
            cells.append(hi)
        parent.children = children
        parent.cells = cells
        return cells

    def _cell_block(
        self, job: "MatchJob", parent: Block, lo: int, hi: int
    ) -> Block:
        """The child of ``parent`` for the survivors of slots ``lo:hi``."""
        position = parent.position + 1
        positions = self._shape(job, position, 2)[3]
        up, column, seed, seed_slots = self._survivors(job, parent, lo, hi)
        matched = [column(t) for t in range(position)]
        if seed is None:
            stream, partner = self._adjacency_pair(job.graph, matched, positions)
            gathered = _gather_adjacency(job.graph, stream)
            probe = self._partner_probe(job, partner)
        else:
            sizes = seed.raw_sizes[seed_slots]
            if positions:
                gathered = _gather_adjacency(
                    job.graph, matched[positions[0]].astype(np.int64)
                )
                probe = (
                    partial(_in_sorted, _raw_keys(seed, job.graph.num_vertices)),
                    seed_slots,
                    sizes,
                )
            else:
                # Seed only: the raw set is a copy of the ancestor's segment.
                gathered = _gather_segments(
                    seed.raw, _offsets(seed.raw_sizes)[seed_slots], sizes
                )
                probe = None
        leaf = position == job.plan.num_levels - 1
        child = self._segmented_block(
            job,
            position,
            matched,
            gathered,
            probe=probe,
            reuse=int(seed is not None),
            # The leaf's survivors are only counted, unless they are wanted.
            keep_filtered=not leaf or bool(job.collect_limit),
        )
        if leaf:
            child.matched = None  # nothing descends from a leaf block
            if child.filtered is None:
                # A window keeps the leaf cells of all its warps, and leaf
                # slots outnumber all others: hold them in half the bytes.
                child.raw_offsets = child.raw_offsets.astype(np.int32)
                child.raw_sizes = child.raw_sizes.astype(np.int32)
                child.raw_cycles = child.raw_cycles.astype(np.int32)
                child.filter_cycles = child.filter_cycles.astype(np.int32)
                child.survivors = child.survivors.astype(np.int32)
        else:
            # Weak: the parent owns its children, never the reverse (a cycle
            # would keep whole windows alive until the collector runs).
            child.parent = weakref.ref(parent)
            child.parent_slots = up
        return child

    # ------------------------------------------------------------------ #
    # The segmented pass: one streamed list per slot
    # ------------------------------------------------------------------ #

    def _segmented_block(
        self,
        job: "MatchJob",
        position: int,
        matched: list,
        gathered: tuple,
        probe: Optional[tuple] = None,
        reuse: int = 0,
        keep_filtered: bool = False,
    ) -> Block:
        """``_raw`` + ``filter_candidates`` at ``position`` for every slot.

        ``gathered`` is each slot's streamed list as ``(cat, seg, lens)``
        segments (see :func:`_gather_segments`) — an adjacency list, or the
        reuse seed itself when nothing is left to intersect it with.  With a
        ``probe = (member, owners, sizes)`` the streamed list is intersected
        with one other list per slot: element ``x`` of slot ``s`` survives
        iff ``member(owners[s] * n + x)`` — a bit of the graph's adjacency
        bitset with the partner vertex as owner, or one of an ancestor
        block's sorted raw keys with the seed's slot as owner;
        ``owners=None`` is the one-segment case, ``member(x)`` over the one
        sorted set every slot shares.  ``sizes`` are the probed lists'
        lengths (an ``int`` when shared).
        The result is filtered against ``matched`` (see
        :func:`_slot_bounds`).
        """
        graph, cost = job.graph, job.cost
        cat, seg, lens = gathered
        n = int(lens.size)
        if probe is None:
            counts, cycles = lens, copy_cost_vec(cost, lens)
        else:
            member, owners, sizes = probe
            if owners is not None:
                hit = member(np.repeat(owners, lens) * graph.num_vertices + cat)
                # The scalar path streams whichever list is smaller.
                small, big = np.minimum(lens, sizes), np.maximum(lens, sizes)
            else:
                hit = member(cat)
                small, big = lens, sizes
                if n and big < lens.max():
                    small, big = np.minimum(lens, big), np.maximum(lens, big)
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
            intersections=int(probe is not None),
            reuse=reuse,
            position=position,
            matched=matched,
        )
        if keep_filtered:
            block.filtered = raw[mask]
            # These slots are replayed one at a time, each indexing the
            # per-slot sequences once: typed arrays read without NumPy.
            block.filtered_offsets = _int64s(_offsets(survivors))
            block.raw_offsets = _int64s(block.raw_offsets)
            block.raw_cycles = _int64s(block.raw_cycles)
            block.filter_cycles = _int64s(block.filter_cycles)
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
            position=position,
        )

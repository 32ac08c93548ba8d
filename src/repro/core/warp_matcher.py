"""Warp-level backtracking with load balancing (Algorithms 2 and 4).

A :class:`MatchJob` holds everything the warps of one device share — the
graph, the compiled plan, the work-group cursor, ``Q_task``, the busy
counter used for termination detection — and produces warp *bodies*:
generators the DES scheduler drives.

The job runs T-DFS load balancing: with a ``Q_task`` queue (``TIMEOUT``),
a task running longer than τ is decomposed into ≤3-vertex prefix tasks that
idle warps drain before fetching new chunks; without one (``NONE``, τ = ∞)
nothing is stolen.  The baselines' strategies (paper Fig. 11) subclass the
job next to their engines — :class:`~repro.baselines.stmatch.HalfStealJob`
and :class:`~repro.baselines.egsm.ChildKernelJob` — and
:func:`repro.core.engine.job_class` picks the class once per job.

Scheduling protocol: a warp must ``yield warp.sync()`` *before* every
shared-state interaction so the operation executes at its correct global
virtual time; between interactions it may do arbitrary local work while
charging cycles.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import cached_property
from typing import Generator, Optional

import numpy as np

from repro.core.candidates import filter_candidates
from repro.core.config import RunContext, StackMode, TDFSConfig
from repro.core.edge_filter import filter_chunk, filter_chunk_cycles
from repro.core.intersect import intersect_many
from repro.gpusim.costmodel import WARP_SIZE
from repro.gpusim.device import VirtualGPU, Warp
from repro.graph.csr import CSRGraph
from repro.kernels import Block, KernelBackend, resolve_backend
from repro.kernels.base import _int64s
from repro.obs.tracer import NULL_TRACER, Tracer, make_span
from repro.query.plan import MatchingPlan
from repro.alloc.stack import LevelFactory
from repro.taskqueue.ring import LockFreeTaskQueue
from repro.taskqueue.tasks import Task

#: Warp syncs (and half-steal lock checks) happen every this many tree nodes.
SYNC_INTERVAL = 64


def _running(values: np.ndarray) -> array:
    """Running totals of ``values`` from 0 — entry ``s`` sums ``[0, s)``
    — accumulated in int64 (leaf cells hold int32 arrays)."""
    return _int64s(np.concatenate(([0], np.cumsum(values, dtype=np.int64))))


class RunState:
    """Mutable per-warp DFS state — visible to ``HalfStealJob`` thieves.

    ``levels`` is the DFS stack proper: one level per order position from
    2 on (positions 0 and 1 come from the initial edge / task prefix), so
    position ``p`` is stored in ``levels[p - 2]``.  Beyond it, the state
    tracks everything a recovery snapshot needs to reconstruct the warp's
    unfinished work exactly (see :mod:`repro.faults.recovery`): the
    half-processed chunk (``chunk``/``chunk_pos``), any stolen or
    child-kernel candidate list (``aux_*``), and the prefix whose subtree
    is mid-expansion when an abort lands between yield points
    (``inflight``).
    """

    __slots__ = (
        "path",
        "filtered",
        "iters",
        "levels",
        "chunk",
        "chunk_pos",
        "t0",
        "busy_flag",
        "pending_stall",
        "valid_from",
        "item_prefix",
        "nodes",
        "aux_prefix",
        "aux_cands",
        "aux_pos",
        "inflight",
    )

    def __init__(self, num_levels: int, factory: LevelFactory) -> None:
        self.path = [0] * num_levels
        self.filtered: list[Optional[np.ndarray]] = [None] * num_levels
        self.iters = [0] * num_levels
        self.levels = [factory() for _ in range(num_levels - 2)]
        self.chunk: Optional[np.ndarray] = None
        self.chunk_pos = 0
        self.t0 = 0
        self.busy_flag = False
        self.pending_stall = 0
        self.valid_from = 0
        self.item_prefix = 0
        self.nodes = 0
        #: Stolen / child-kernel work: candidate list + shared path prefix.
        self.aux_prefix: list[int] = []
        self.aux_cands: Optional[np.ndarray] = None
        self.aux_pos = 0
        #: When set, the subtree rooted at ``path[:inflight]`` is being
        #: expanded and is not yet owned by any level's ``filtered``/``iters``
        #: (e.g. an allocation inside ``_fill`` may abort mid-expansion).
        self.inflight: Optional[int] = None


class MatchJob:
    """Shared state + warp bodies for one device's matching kernel.

    Subclasses set the load balancing through four class attributes, read
    plainly on the hot paths: ``steals`` (idle warps call ``_steal``),
    ``fill_lock`` (cycles per level fill), ``fanout`` (a larger level goes
    to ``_spawn``) and ``folds_above_leaf`` (see :attr:`fold_from`).  A
    fifth, ``stmatch_removal``, charges STMatch's separate set-difference
    pass for matched-vertex removal on every filter (paper Section IV-B)."""

    steals = False
    fill_lock = 0
    fanout = float("inf")
    folds_above_leaf = True
    stmatch_removal = False

    def __init__(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        config: TDFSConfig,
        gpu: VirtualGPU,
        groups: list,
        queue: Optional[LockFreeTaskQueue],
        level_factory: LevelFactory,
        prefiltered: bool = False,
        child_stack_bytes: int = 0,
        collect_limit: int = 0,
        tracer: Optional[Tracer] = None,
        device: int = 0,
        backend: Optional[KernelBackend] = None,
        ctx: Optional[RunContext] = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.config = config
        self.ctx = ctx or RunContext()
        self.gpu = gpu
        self.cost = config.cost
        # Plan lookups the per-item loop would otherwise redo on every call.
        self._k = plan.num_levels
        self._labeled = plan.is_labeled and graph.is_labeled
        #: The job's whole workload as ``(rows, width)`` work groups (see
        #: :data:`repro.faults.recovery.WorkGroup`): width 2 for edge tasks
        #: (the paper's default), deeper prefixes when a recovery snapshot
        #: seeds the DFS.  Warps claim them in order,
        #: ``chunk_size`` rows at a time; ``(_group, _cursor)`` always points
        #: at an unclaimed row, or ``_group == len(groups)`` when none is left.
        self.groups: list = [
            (np.asarray(rows), int(width)) for rows, width in groups if len(rows)
        ]
        self._group = 0
        self._cursor = 0
        #: Width-2 rows already passed the edge filter on the host (STMatch).
        self.prefiltered = prefiltered
        #: Look-ahead prefix :class:`~repro.kernels.base.Block` over the
        #: ``_block.window`` rows of the current group from ``_block_lo`` on.
        #: The cursor only moves forward and every warp claims through
        #: :meth:`_next_chunk`, so this is a plain memo; it lives here, not
        #: on the backend, because backends are stateless and shared across
        #: worker threads.
        self._block: Optional[Block] = None
        self._block_lo = 0
        #: The backend's list-shape decisions, ``(position, valid_from)`` →
        #: shape: made once per job, not once per item (see
        #: :meth:`KernelBackend.block_threshold`).
        self.shapes: dict = {}
        self.queue = queue
        self.level_factory = level_factory
        self.child_stack_bytes = child_stack_bytes
        self.busy = 0
        self.count = 0
        #: Optional enumeration sink (position-order vertex tuples).
        self.collect_limit = int(collect_limit)
        self.collected: list[tuple[int, ...]] = []
        self.run_states: list[RunState] = []
        self.tau = config.tau_cycles
        #: Whether this job checks the timeout at all: only with a queue to
        #: decompose into, ``TIMEOUT`` (where, see :meth:`_tau_live`).
        self._tau_checks = queue is not None
        #: Span tracer (see :mod:`repro.obs`); every span site is guarded
        #: on ``tracer.enabled`` and evaluates nothing when tracing is off.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.device = int(device)
        #: Set-operation accounting (``engine.*`` keys of ``result.metrics``).
        self.intersections = 0
        self.reuse_hits = 0
        #: Kernel backend (see :mod:`repro.kernels`): computes candidate
        #: sets, optionally batched per window of slots.
        self.backend = (
            backend
            if backend is not None
            else resolve_backend(config.kernel_backend)
        )
        #: Whether width-2 groups are offered to ``backend.prefix_block``.
        self._offer_blocks = (
            self.backend.batched and not prefiltered and self._k >= 3
        )
        #: Whether :meth:`adjacency` returns plain CSR slices.  EGSM's
        #: label-pruned CT-index reads clear this, which disables the
        #: vectorized varying-list path (its results would depend on the
        #: target position's label).
        self.plain_adjacency = True
        #: The first order position whose blocks' runs of slots may advance
        #: by running totals (see :meth:`_fold`): ``k`` — none — while
        #: anything records, injects or collects per slot; ``k - 1`` — leaf
        #: blocks only — while a fill above the leaf may lock a stack or
        #: launch a kernel (``folds_above_leaf`` unset); else 2.
        self.fold_from = self._k
        quiet = not self.tracer.enabled and self.ctx.fault_plan is None
        if quiet and self._k >= 4 and not self.collect_limit:
            self.fold_from = 2 if self.folds_above_leaf else self._k - 1

    # ------------------------------------------------------------------ #
    # Termination
    # ------------------------------------------------------------------ #

    def finished(self) -> bool:
        """True when no work rows, queued tasks, or busy warps remain."""
        if self._group < len(self.groups):
            return False
        if self.queue is not None and self.queue.num_tasks > 0:
            return False
        return self.busy == 0

    # ------------------------------------------------------------------ #
    # Recovery support (see repro.faults.recovery)
    # ------------------------------------------------------------------ #

    def pending_initial(self) -> list:
        """Unfetched work rows as ``(rows, width)`` groups."""
        if self._group == len(self.groups):
            return []
        rows, width = self.groups[self._group]
        return [(rows[self._cursor :], width), *self.groups[self._group + 1 :]]

    def _next_chunk(self) -> Optional[tuple]:
        """Claim the next ``chunk_size`` rows (warp fetch protocol).

        Returns ``(rows, lo, hi, width, block, first)``: the chunk is
        ``rows[lo:hi]``; when ``block`` is not ``None`` it covers the whole
        chunk, whose first row is row ``first`` of the block's window.  A
        chunk the current block does not fully cover opens a new block at
        the chunk's first row, which drops the old one.
        """
        if self._group == len(self.groups):
            return None
        rows, width = self.groups[self._group]
        lo = self._cursor
        hi = min(lo + self.config.chunk_size, len(rows))
        block = None
        if width == 2 and self._offer_blocks:
            block = self._block
            if block is None or hi > self._block_lo + block.window:
                block = self._block = self.backend.prefix_block(self, rows[lo:])
                self._block_lo = lo
        first = lo - self._block_lo
        if hi == len(rows):
            self._group += 1
            self._cursor = 0
            self._block = None
        else:
            self._cursor = hi
        return rows, lo, hi, width, block, first

    def _span(self, warp: Warp, name: str, start: int, end: int) -> None:
        """Record one virtual span (callers guard on ``tracer.enabled``)."""
        self.tracer.record(make_span(name, None, start, end, self.device, warp.wid))

    # ------------------------------------------------------------------ #
    # Warp main loop
    # ------------------------------------------------------------------ #

    def new_run_state(self) -> RunState:
        """A fresh warp's DFS state, registered with the job (recovery
        snapshots, thieves and the stack accounting read every one)."""
        st = RunState(self._k, self.level_factory)
        self.run_states.append(st)
        return st

    def warp_body(self, warp: Warp) -> Generator[int, None, None]:
        """Main loop of a resident warp (priority: queue > chunk > steal).

        The fold-first item site: a windowed chunk, or a handed-off task,
        is first offered whole to :meth:`_fold` with the state its item
        sets; only what did not fold becomes work — a chunk resumes at the
        row the fold stopped before, keeping its ``t0``; a task runs whole.
        A three-vertex task folds only if every block below it holds for it
        (:attr:`_task_blocks_end`), a task starting at the leaf never: its
        item charges no step there, a leaf slot's total does.
        Claimed work runs in the loop's one tail, busy and inside a
        ``match`` span (a whole fold is the empty work ``()``).  The hot
        yields and fold-first sites move the warp's clock inline.
        """
        st = self.new_run_state()
        cost, k, queue, groups, gpu = self.cost, self._k, self.queue, self.groups, self.gpu
        sync, charge = warp.sync, warp.charge
        while True:
            work = None
            # Priority 1: drain Q_task (keeps the queue small, paper Fig. 4).
            if queue is not None:
                spent, warp._accrued = warp._accrued, 0
                yield spent
                task, block, slot, cycles = queue.dequeue()
                warp._accrued += cycles
                warp.busy_cycles += cycles
                if task is not None:
                    prefix = task.depth
                    if (
                        block is not None
                        and block.position >= self.fold_from
                        and prefix < k - 1
                        and (prefix == 2 or self._task_blocks_end == k)
                    ):
                        st.path[:prefix] = task[:prefix]
                        st.t0 = warp._resume_time + warp._accrued
                        self._start_item(st, prefix)
                        if self._fold(warp, st, block, slot, slot + 1):
                            work = ()
                    if work is None:
                        work = self._process_task(warp, st, task, block, slot)
            # Priority 2: fetch the next chunk of work rows.
            if work is None and self._group < len(groups):
                spent, warp._accrued = warp._accrued, 0
                yield spent
                fetched = self._next_chunk()
                if fetched is not None:
                    rows, lo, hi, width, block, first = fetched
                    warp.chunks += 1
                    if block is None:
                        charge(cost.chunk_fetch)
                        chunk = rows[lo:hi]
                        if width == 2 and not self.prefiltered:
                            # Idempotent on recovered rows: those that already
                            # passed the filter pass again, raw rows from an
                            # unfetched tail get filtered for the first time.
                            chunk, cycles = filter_chunk(
                                self.graph,
                                self.plan,
                                chunk,
                                cost,
                                prune_degree=self.config.enable_edge_filter,
                            )
                            charge(cycles)
                        if not len(chunk):
                            continue
                        work = self._process_chunk(warp, st, chunk)
                    else:
                        # The block already filtered these rows; the charge
                        # is the one ``filter_chunk`` makes for their count.
                        spent = cost.chunk_fetch + filter_chunk_cycles(hi - lo, cost)
                        warp._accrued += spent
                        warp.busy_cycles += spent
                        slot, start = block.kept_before[first], 0
                        end = block.kept_before[first + hi - lo]
                        if slot == end:
                            continue
                        if block.position >= self.fold_from:
                            # t0 is per chunk (Algorithm 4 line 6)
                            st.t0 = warp._resume_time + warp._accrued
                            st.item_prefix = st.valid_from = 2
                            start = self._fold(warp, st, block, slot, end)
                        work = () if slot + start == end else self._process_chunk(
                            warp, st, block.rows[slot:end], block, slot, start
                        )
            # Priority 3: stealing, where the job's class does it.
            if work is None and self.steals:
                work = yield from self._steal(warp, st)
            if work is None:
                # Idle: poll until the job is done.
                if self.finished():
                    break
                charge(cost.idle_poll, busy=False)
                yield sync()
                continue
            self.busy += 1
            st.busy_flag = True
            t0 = warp._resume_time + warp._accrued
            yield from work
            if self.tracer.enabled:
                self._span(warp, "match", t0, warp.now)
            st.busy_flag = False
            self.busy -= 1
            now = warp._resume_time + warp._accrued
            if now > gpu.finish_time:
                gpu.finish_time = now

    # ------------------------------------------------------------------ #
    # Work-item processing
    # ------------------------------------------------------------------ #

    def _process_chunk(
        self,
        warp: Warp,
        st: RunState,
        edges: np.ndarray,
        block: Optional[Block] = None,
        slot: int = 0,
        start: int = 0,
    ) -> Generator[int, None, None]:
        """Process a chunk of initial work rows (Algorithm 4 lines 4–6).

        Rows are edges (width 2) in the standard pipeline, or deeper
        prefixes when a recovery snapshot seeded the DFS.  With a ``block``,
        row ``i`` of ``edges`` is the block's slot ``slot + i`` (a thief's
        stolen half comes without one and takes the scalar path), and runs
        of rows fold (see :meth:`_fold`) — the first run at the fold-first
        site of :meth:`warp_body`, which hands over the rest from row
        ``start`` on, with the chunk's ``t0``.
        """
        width = edges.shape[1] if edges.ndim == 2 else 2
        st.chunk = edges
        st.chunk_pos = start
        if not start:
            st.t0 = warp.now  # t0 is per chunk (Algorithm 4 line 6)
        checks = self._tau_live(width, 2)
        foldable = block is not None and block.position >= self.fold_from
        # The row a fold stopped before goes slot by slot.
        fold = False
        while st.chunk_pos < len(st.chunk):
            if (
                checks
                and warp.now - st.t0 > self.tau
                and st.chunk_pos < len(st.chunk) - 1
            ):
                # Decompose: ship the remaining edges as 2-vertex tasks.
                shipped = yield from self._enqueue_remaining_edges(
                    warp, st, block, slot
                )
                if shipped:
                    st.chunk = None
                    return
            row_slot = slot + st.chunk_pos
            if fold:
                folded = self._fold(warp, st, block, row_slot, slot + len(st.chunk))
                if folded:
                    st.chunk_pos += folded
                    # The run stopped before the next row (a sync, a timeout
                    # check, growth it may not take or an unbuilt cell is
                    # there): it goes slot by slot.
                    fold = False
                    continue
            fold = foldable
            row = st.chunk[st.chunk_pos]
            st.chunk_pos += 1
            for i in range(width):
                st.path[i] = int(row[i])
            yield from self._process_item(warp, st, width, block, row_slot)
        st.chunk = None

    def _process_task(
        self, warp: Warp, st: RunState, task: Task, block: Optional[Block], slot: int
    ) -> Generator[int, None, None]:
        """Process a task dequeued from ``Q_task`` (Algorithm 4 lines 1–3),
        from the block slot its shipper handed off with it (``None``: the
        scalar path)."""
        prefix_len = task.depth
        st.path[:prefix_len] = task[:prefix_len]
        st.t0 = warp.now
        yield from self._process_item(warp, st, prefix_len, block, slot)

    @cached_property
    def _warm_price(self) -> Optional[int]:
        """Cycles per write batch on a warm level of this job's stacks — one
        price per job, its levels are all of one kind — or ``None`` when no
        level is ever warm (page release)."""
        return self.level_factory().warm_batch_cycles(0, self.cost)

    @cached_property
    def _task_blocks_end(self) -> int:
        """The shape rule, decided once per job: the first position whose
        block a three-vertex task may not take (``k`` when every block
        holds for it; see :meth:`KernelBackend.shape_holds`)."""
        holds = self.backend.shape_holds
        return next((p for p in range(3, self._k) if not holds(self, p, 3)), self._k)

    def _process_aux(self, warp: Warp, st: RunState) -> Generator[int, None, None]:
        """Run ``st.aux_cands`` (a stolen half, a child kernel's slice) below
        ``st.aux_prefix``; the position lives in ``st.aux_pos`` so a recovery
        snapshot sees exactly the unprocessed candidates (the in-progress
        one is covered by the item's own level/inflight state)."""
        p = len(st.aux_prefix)
        while st.aux_pos < len(st.aux_cands):
            c = st.aux_cands[st.aux_pos]
            st.aux_pos += 1
            st.path[:p] = st.aux_prefix
            st.path[p] = int(c)
            yield from self._process_item(warp, st, p + 1)
        st.aux_cands = None

    # ------------------------------------------------------------------ #
    # The DFS over one work item (Algorithm 2 core + Algorithm 4 timeout)
    # ------------------------------------------------------------------ #

    def _process_item(
        self,
        warp: Warp,
        st: RunState,
        prefix_len: int,
        block: Optional[Block] = None,
        slot: int = 0,
    ) -> Generator[int, None, None]:
        """DFS below ``st.path[:prefix_len]``; ``block``/``slot`` carry the
        precomputed first level of a width-2 row or of a ``Q_task`` task
        that inherited one (see :meth:`_fill_level`), and every level filled
        from a block asks it for the child that resolves the next one (see
        :meth:`_child`)."""
        cost = self.cost
        k = self._k
        self._start_item(st, prefix_len)
        if prefix_len >= k:
            self._emit(warp, 1)
            if self.collect_limit and len(self.collected) < self.collect_limit:
                self.collected.append(tuple(st.path[:k]))
            warp.charge(cost.emit_match)
            return
        if prefix_len == k - 1:
            # The item's first unfilled position is the leaf: bulk count.
            self._expand_leaf(warp, st, prefix_len, 0, block, slot)
            return

        pos = prefix_len
        if self._fill(warp, st, pos, block, slot):
            yield from self._spawn(warp, st, pos)
            return
        # kids[p]: ``(child, base)`` — the block that resolves position
        # ``p + 1`` for the survivors now in ``st.filtered[p]`` (candidate
        # ``i`` is its slot ``base + i``), or ``(None, 0)``.
        kids = [(None, 0)] * k
        kids[pos] = self._child(st, pos, block, slot)
        # Smallest batch the backend would accept at the leaf for this
        # item's shape (0 = never); gates the per-window block offers so
        # declined shapes/sizes cost nothing.  Computed lazily — only items
        # that reach the pre-leaf level without a child pay for it.
        block_min = -1
        # A sync window's own leaf block, where the pre-leaf level has no
        # child: ``(f, window, base, end)`` — candidate ``i < end`` of that
        # very ``f`` is the window's slot ``base + i``.
        own = None
        while True:
            st.nodes += 1
            if st.nodes >= SYNC_INTERVAL:
                st.nodes = 0
                if st.pending_stall:
                    warp.charge(st.pending_stall)
                    st.pending_stall = 0
                yield warp.sync()
            f = st.filtered[pos]
            i = st.iters[pos]
            if i < len(f):
                if self._tau_live(st.item_prefix, pos) and warp.now - st.t0 > self.tau:
                    all_shipped = yield from self._decompose_level(
                        warp, st, pos, *kids[pos]
                    )
                    if all_shipped:
                        st.iters[pos] = len(st.filtered[pos])
                        continue
                    f = st.filtered[pos]
                    i = st.iters[pos]
                child, base = kids[pos]
                end = len(f)
                if (
                    child is None
                    and pos + 2 == k
                    and self.backend.batched
                    and not self.collect_limit
                ):
                    if own is None or own[0] is not f or i >= own[3]:
                        own = None
                        if block_min < 0:
                            block_min = self.backend.block_threshold(
                                self, st, pos + 1
                            )
                        limit = block_min and min(end - i, SYNC_INTERVAL - st.nodes)
                        if limit and limit >= block_min:
                            window = self.backend.leaf_block(
                                self, st, pos + 1, f[i : i + limit]
                            )
                            if window is not None:
                                own = (f, window, -i, i + limit)
                    if own is not None:
                        _, child, base, end = own
                if (
                    child is not None
                    and child.position >= self.fold_from
                    and (
                        pos + 2 == k or st.valid_from == 2 or self._task_blocks_end == k
                    )
                ):
                    # Fold a run of the candidates' subtrees (this turn's
                    # tick taken); the slot it stops before is replayed from
                    # the same block below, on its own turn.
                    folded = self._fold(warp, st, child, base + i, base + end)
                    if folded:
                        st.iters[pos] = i + folded
                        continue
                v = int(f[i])
                st.iters[pos] = i + 1
                st.path[pos] = v
                nxt = pos + 1
                if nxt == k - 1:
                    self._expand_leaf(warp, st, nxt, cost.step, child, base + i)
                elif self._fill(warp, st, nxt, child, base + i):
                    yield from self._spawn(warp, st, nxt)
                else:
                    pos = nxt
                    kids[pos] = self._child(st, pos, child, base + i)
            else:
                warp.charge(cost.step)
                if pos == prefix_len:
                    return
                pos -= 1

    def _start_item(self, st: RunState, prefix_len: int) -> None:
        """Begin the DFS below ``st.path[:prefix_len]``: clear the levels
        from ``prefix_len`` on, stale from a previous item, so thieves
        (``HalfStealJob``) never see (and re-steal) already-processed levels."""
        st.item_prefix = st.valid_from = prefix_len
        for p in range(prefix_len, self._k):
            st.filtered[p] = None
            st.iters[p] = 0

    def _child(
        self, st: RunState, pos: int, block: Optional[Block], slot: int
    ) -> tuple[Optional[Block], int]:
        """``(child, base)`` below the level ``pos`` just filled from
        ``block``'s ``slot``: the block resolving ``pos + 1`` for its
        survivors (see :meth:`KernelBackend.child_block`).  A level that
        was filled without a block has none, and neither has one that
        truncated — the descendants were computed from the full set — nor,
        below a three-vertex task, a position the shape rule withholds."""
        if (
            block is None
            or not len(st.filtered[pos])
            or st.levels[pos - 2].length != block.raw_sizes[slot]
            or (st.valid_from > 2 and pos + 1 >= self._task_blocks_end)
        ):
            return None, 0
        return block.child_at(slot) or self.backend.child_block(self, block, slot)

    def _expand_leaf(
        self,
        warp: Warp,
        st: RunState,
        pos: int,
        cycles: int,
        block: Optional[Block] = None,
        slot: int = 0,
    ) -> None:
        """Fill the leaf level ``pos`` and count its matches in bulk."""
        leaves, fill_cycles = self._fill_level(warp, st, pos, block, slot)
        if leaves is None:  # a leaf window only counted its survivors
            n = int(block.survivors[slot])
            warp.charge(cycles + fill_cycles + n * self.cost.emit_match)
            self._emit(warp, n)
        else:
            warp.charge(cycles + fill_cycles + len(leaves) * self.cost.emit_match)
            self._emit_leaves(warp, st, leaves, pos)
        st.inflight = None

    def _fill_level(
        self,
        warp: Warp,
        st: RunState,
        pos: int,
        block: Optional[Block],
        slot: int,
    ) -> tuple[Optional[np.ndarray], int]:
        """Raw set → stack level → selection filter for position ``pos``.

        Returns ``(filtered, cycles)`` and leaves ``st.inflight == pos`` (a
        stack page allocation inside ``level.write`` may abort right here;
        the caller clears the marker once it owns the result).  With a
        ``block`` the two pure steps — ``_raw`` and ``filter_candidates`` —
        are read from its ``slot`` (``filtered`` is ``None`` when the block
        kept only ``survivors`` counts); the write, the span and the
        accounting stay real.  This is the only place a slot is replayed
        one at a time (runs of them fold, see :meth:`_fold`).  A
        fixed-capacity level that truncated is rescanned by
        the scalar filter (the block's result covers the full set), which
        keeps STMatch's wrong counts identically wrong.
        """
        st.inflight = pos
        if block is None:
            raw, cycles = self._raw(st, pos)
        else:
            raw = block.raw_set(slot)
            cycles = int(block.raw_cycles[slot])
            self.intersections += block.intersections
            self.reuse_hits += block.reuse
        if self.tracer.enabled:
            self._span(warp, "intersect", warp.now, warp.now + cycles)
        level = st.levels[pos - 2]
        cycles += level.write(raw, self.cost)
        if block is not None and level.length == raw.size:
            cycles += int(block.filter_cycles[slot])
            if block.filtered is None:
                return None, cycles
            offsets = block.filtered_offsets
            return block.filtered[offsets[slot] : offsets[slot + 1]], cycles
        filtered, filter_cycles = filter_candidates(
            self.graph,
            self.plan,
            st.path,
            pos,
            level.values(),
            self.cost,
            self.stmatch_removal,
        )
        return filtered, cycles + filter_cycles

    def _tau_live(self, prefix: int, pos: int) -> bool:
        """Whether a loop turn at position ``pos`` below a ``prefix``-vertex
        item checks the timeout (Algorithm 4 line 12): only under
        ``TIMEOUT`` with a queue, and only while an edge item is at level 2
        — a width-2 chunk row's start counts as position 2's turn, and so
        does each level-2 candidate's."""
        return self._tau_checks and prefix == pos == 2

    def _fold(
        self, warp: Warp, st: RunState, block: Block, lo: int, hi: int
    ) -> int:
        """Advance through the longest run of ``block``'s slots from ``lo``
        (at most ``hi - lo`` of them), subtrees and all, in one step; return
        its length (0: the slot at ``lo`` goes slot by slot).

        Nothing outside the warp sees a run whose replay stays between two
        ``warp.sync()`` yields, so a run folds as far as all of these hold —
        the four stop rules:

        * the run's node ticks keep ``st.nodes`` below ``SYNC_INTERVAL``
          (no yield inside it; a slot whose subtree is not all built counts
          more ticks than that, so no run takes it);
        * no live timeout check inside the run (:meth:`_tau_live`: at a
          row's start, but a chunk's last row's, and at a level-2
          candidate's turn) sees ``warp.now - st.t0`` past τ;
        * every level the run writes is warm for the run's largest raw set
          there, or the fold takes its growth (``Level.growth``): the level
          is paged without the release rule, its table holds the pages, the
          arena has the run's total of them, and the run's last live check
          plus their ``page_alloc`` charge stays within τ;
        * the caller's gate, :attr:`fold_from`: no tracer, fault plan or
          collector for any fold, and ``folds_above_leaf`` above the leaf.

        The fold makes one charge (the warm total plus the pages it takes),
        updates the counters and ``st.nodes`` and grows the levels the run
        outgrows (``PagedLevel.grow``), from :meth:`_subtree`; it writes no
        level contents and no ``filtered`` / ``iters`` / ``path`` entry.
        Nothing reads them: the DFS enters a level only through
        :meth:`_fill_level`, which rewrites it, and no level at or below
        the block's holds pending candidates when a fold starts.  A child
        block's slot is picked up by a loop turn whose tick and timeout
        check the caller has taken (a three-vertex task's own slot by no
        turn, and its item has none either); a prefix window's row by no
        turn.
        """
        price = self._warm_price
        if price is None:
            return 0
        ticks, charge, checks, matches, inter, reuse, peaks, highs = (
            block.subtree or self._subtree(block, price)
        )
        top = block.position
        entry = block.rows is None
        if ticks is None:
            # A leaf block (a child's or a window's): one tick per slot, the
            # first of them the caller's turn's.
            end = min(hi, lo + SYNC_INTERVAL - st.nodes)
        else:
            end = bisect_right(
                ticks, ticks[lo] + SYNC_INTERVAL - 1 - st.nodes + entry, lo, hi + 1
            ) - 1
        slack = float("inf")  # the charge past which a live check fires
        if self._tau_checks and st.item_prefix == top - entry == 2:
            slack = charge[lo] + self.tau - (warp._resume_time + warp._accrued - st.t0)
            cut = bisect_right(checks, slack, lo, end)
            if cut == hi - 1 < end and not entry and not block.survivors[cut]:
                cut = hi  # a chunk's last row without survivors checks nothing
            end = cut
        if end <= lo:
            return 0
        # A level the run outgrows grows if its table, the arena and τ allow.
        levels, tops, pages = st.levels, [], 0
        for d, peak in enumerate(peaks):
            level = levels[top - 2 + d]
            if peak > level.capacity:
                peak = max(highs[d][lo:end])
                if peak > level.capacity:
                    grows = level.growth(peak)
                    pages = None if grows is None or pages is None else pages + grows
            tops.append(peak)
        if pages and (
            pages > levels[0].allocator.available
            or checks[end - 1] + pages * self.cost.page_alloc > slack
        ):
            pages = None
        if pages is None:
            # Stop before the first slot whose subtree would allocate; what
            # the run writes then fits.
            for d, high in enumerate(highs):
                cap = levels[top - 2 + d].capacity
                if tops[d] > cap:
                    end = next((s for s in range(lo, end) if high[s] > cap), end)
            if end <= lo:
                return 0
            pages = 0
        n = end - lo
        spent = charge[end] - charge[lo] + pages * self.cost.page_alloc
        warp._accrued += spent
        warp.busy_cycles += spent
        found = matches[end] - matches[lo]
        self.count += found
        warp.matches += found
        if ticks is None:
            st.nodes += n - 1
            self.intersections += n * block.intersections
            self.reuse_hits += n * block.reuse
        else:
            st.nodes += ticks[end] - ticks[lo] - entry
            self.intersections += inter[end] - inter[lo]
            self.reuse_hits += reuse[end] - reuse[lo]
        if pages:
            for d, peak in enumerate(tops):
                levels[top - 2 + d].grow(peak)
        return n

    def _subtree(self, block: Block, price: int) -> tuple:
        """Running subtree totals over a block's slots, kept on it
        (``Block.subtree``).  Entry ``s`` of ``ticks``, ``charge``,
        ``matches``, ``intersections`` and ``reuse`` covers slots ``[0, s)``
        with everything their per-slot replay does: the node ticks from
        picking a slot up (one turn for a child's slot, none for a prefix
        window's row) to leaving it; the charge (fill step, ``_raw``, write
        batches at the warm ``price``, filter, each survivor's subtree total
        and the back-track step — or, at the leaf, emitting the survivors);
        the three counts.  ``checks[s]`` is the charge up to slot ``s``'s
        last timeout check: its pick-up turn, or a row's last level-2
        candidate's turn (its start when it has none).  ``highs[d][s]`` is the largest raw
        set slot ``s``'s subtree writes ``d`` levels below the block's own,
        ``peaks[d]`` the largest over all slots.

        A leaf block is the height-1 case and keeps two arrays, ``charge``
        and ``matches``: a slot is one tick, its counts are the block's own
        and its check comes before its charge, so ``ticks``,
        ``intersections`` and ``reuse`` are ``None`` (arithmetic, for
        :meth:`_fold` and for a parent's totals), ``checks`` is ``charge``
        and ``highs`` is a memoryview of the block's raw sizes (no copy).

        Every cell under a slot with survivors is built here, before the
        descent would (host-only work); a slot whose survivors meet a cell
        without a child counts ``SYNC_INTERVAL + 1`` ticks, more than any
        run between two syncs takes.
        """
        if block.subtree is not None:
            return block.subtree
        n = block.count
        step = self.cost.step
        sizes = np.asarray(block.raw_sizes, dtype=np.int64)
        batches = (np.maximum(sizes, 1) + WARP_SIZE - 1) // WARP_SIZE
        charge = (
            step
            + np.asarray(block.raw_cycles, dtype=np.int64)
            + batches * price
            + np.asarray(block.filter_cycles, dtype=np.int64)
        )
        survivors = np.asarray(block.survivors, dtype=np.int64)
        if block.position == self._k - 1:
            charge = _running(charge + survivors * self.cost.emit_match)
            block.subtree = (
                None,
                charge,
                charge,
                _running(survivors),
                None,
                None,
                [int(sizes.max(initial=0))],
                [memoryview(block.raw_sizes)],
            )
            return block.subtree
        charge += step
        ticks = np.full(n, 1 + (block.rows is None), dtype=np.int64)
        totals = (
            ticks,
            charge,
            np.zeros(n, dtype=np.int64),
            np.full(n, block.intersections, dtype=np.int64),
            np.full(n, block.reuse, dtype=np.int64),
        )
        last = np.zeros(n, dtype=np.int64)  # each slot's last survivor's charge
        highs = [sizes]
        live = np.flatnonzero(survivors)
        if live.size:
            if block.cells is None:
                self.backend.child_block(self, block, int(live[0]))
            cells, children = block.cells, block.children
            offsets = np.asarray(block.filtered_offsets)
            for c in range(len(cells) - 1):
                lo, hi = cells[c], cells[c + 1]
                if offsets[hi] == offsets[lo]:
                    continue
                if c not in children:
                    self.backend.child_block(self, block, lo)
                child = children[c]
                if child is None:
                    ticks[lo:hi][survivors[lo:hi] > 0] = SYNC_INTERVAL + 1
                    continue
                # Child slots ``edges[j]:edges[j + 1]`` are slot lo + j's.
                edges = offsets[lo : hi + 1] - offsets[lo]
                sums = self._subtree(child, price)
                if sums[0] is None:  # a leaf child: see above
                    steps = np.arange(child.count + 1, dtype=np.int64)
                    running = [steps, np.asarray(sums[1]), np.asarray(sums[3])]
                    running += [steps * child.intersections, steps * child.reuse]
                else:
                    running = [np.asarray(sums[i]) for i in (0, 1, 3, 4, 5)]
                child_highs = sums[7]
                for total, cum in zip(totals, running):
                    total[lo:hi] += np.diff(cum[edges])
                has = np.flatnonzero(survivors[lo:hi])
                ends = edges[has + 1]
                last[has + lo] = running[1][ends] - running[1][ends - 1]
                for d, high in enumerate(child_highs, 1):
                    if d == len(highs):
                        highs.append(np.zeros(n, dtype=np.int64))
                    highs[d][has + lo] = np.maximum.reduceat(
                        np.asarray(high), edges[has]
                    )
        # Typed arrays: what ``bisect`` and indexing read fastest after
        # lists, in a quarter of their bytes.
        cums = [_running(t) for t in totals]
        checks = cums[1]
        if block.rows is not None:
            # A row's last check comes before its last survivor's subtree and
            # the back-track step, or before all of it when it has none.
            checks = _int64s(
                np.cumsum(charge) - np.where(survivors > 0, step + last, charge)
            )
        block.subtree = (
            cums[0],
            cums[1],
            checks,
            *cums[2:],
            [int(high.max(initial=0)) for high in highs],
            [_int64s(high) for high in highs],
        )
        return block.subtree

    def adjacency(self, v: int, pos: int) -> np.ndarray:
        """Adjacency-list read hook (EGSM routes this through its CT-index)."""
        return self.graph.neighbors(v)

    def _raw(self, st: RunState, pos: int) -> tuple[np.ndarray, int]:
        """Candidates at ``pos`` per Eq. (1), honoring the reuse plan.

        Fused hot path: gathers the adjacency lists (or a reuse seed),
        intersects them smallest-first, then applies the position's
        *static* filters (label equality, minimum degree) before the set is
        stored — the paper filters candidates by label during extension.
        Path-dependent filters (injectivity, symmetry bounds) stay at
        selection time so stored sets remain reusable; the reuse plan
        guarantees label/degree compatibility between source and target.
        """
        result, cycles = self._intersect(st, pos)
        return self._static_filter(result, pos, cycles)

    def _static_filter(
        self, result: np.ndarray, pos: int, cycles: int
    ) -> tuple[np.ndarray, int]:
        if result.size == 0:
            return result, cycles
        plan = self.plan
        graph = self.graph
        mask = None
        if self._labeled:
            mask = graph.labels[result] == plan.labels[pos]
        if plan.degrees[pos] > 1:
            deg_mask = graph.degrees[result] >= plan.degrees[pos]
            mask = deg_mask if mask is None else (mask & deg_mask)
        if mask is None:
            return result, cycles
        return result[mask], cycles + self.cost.filter_cost(result.size)

    def _intersect(self, st: RunState, pos: int) -> tuple[np.ndarray, int]:
        plan = self.plan
        path = st.path
        entry = plan.reuse[pos]
        if (
            self.config.enable_reuse
            and entry.reuses
            and entry.source >= st.valid_from
        ):
            self.reuse_hits += 1
            lists = [st.levels[entry.source - 2].raw]
            for j in entry.remaining:
                lists.append(self.adjacency(path[j], pos))
        else:
            lists = [self.adjacency(path[j], pos) for j in plan.backward[pos]]
        result, cycles, steps = intersect_many(lists, self.cost)
        self.intersections += steps
        return result, cycles

    def _fill(
        self,
        warp: Warp,
        st: RunState,
        pos: int,
        block: Optional[Block] = None,
        slot: int = 0,
    ) -> bool:
        """Extend ``stack[pos]`` (Algorithm 2 line 6 / Algorithm 4 line 11).

        Charges the node step (level move, iter reset), ``fill_lock`` and the
        fill; True when the level exceeds ``fanout``: the caller ``_spawn``s it.
        """
        # Until filtered/iters take ownership below, the subtree rooted at
        # path[:pos] is only reachable through the inflight marker.
        filtered, fill_cycles = self._fill_level(warp, st, pos, block, slot)
        warp.charge(self.cost.step + self.fill_lock + fill_cycles)
        st.filtered[pos] = filtered
        st.iters[pos] = 0
        st.inflight = None
        return len(filtered) > self.fanout

    def _emit(self, warp: Warp, n: int) -> None:
        if n:
            self.count += n
            warp.matches += n

    def _emit_leaves(
        self, warp: Warp, st: RunState, leaves: np.ndarray, leaf_pos: int
    ) -> None:
        """Count a bulk leaf set and optionally record the full embeddings."""
        n = int(leaves.size)
        self._emit(warp, n)
        if n and self.collect_limit and len(self.collected) < self.collect_limit:
            room = self.collect_limit - len(self.collected)
            prefix = tuple(st.path[:leaf_pos])
            for v in leaves[:room]:
                self.collected.append(prefix + (int(v),))

    # ------------------------------------------------------------------ #
    # TIMEOUT strategy: task decomposition (Algorithm 4 lines 12–21)
    # ------------------------------------------------------------------ #

    def _decompose_level(
        self,
        warp: Warp,
        st: RunState,
        pos: int,
        child: Optional[Block],
        base: int,
    ) -> Generator[int, None, bool]:
        """Enqueue the remaining candidates at ``pos`` as 3-vertex tasks;
        candidate ``i`` hands off slot ``base + i`` of the level's ``child``
        — none where the shape rule withholds position 3 from a three-vertex
        task (:attr:`_task_blocks_end`).

        Returns True when everything was shipped; on a full queue, resets
        ``t0`` and leaves the remainder for in-place processing (paper
        Algorithm 4 lines 18–20).
        """
        warp.timeouts += 1
        v1, v2 = st.path[0], st.path[1]
        f = st.filtered[pos]
        if child is not None and self._task_blocks_end == 3:
            child = None
        span0 = warp.now
        # st.iters[pos] is kept in sync inside the loop (not a local copy):
        # once a task is enqueued its candidate is owned by the queue, and a
        # fault at the next yield must not see it on the stack as well.
        while st.iters[pos] < len(f):
            yield warp.sync()
            task = Task(v1, v2, int(f[st.iters[pos]]))
            ok, cycles = self.queue.enqueue(task, child, base + st.iters[pos])
            warp.charge(cycles)
            if not ok:
                st.t0 = warp.now
                if self.tracer.enabled:
                    self._span(warp, "steal", span0, warp.now)
                return False
            st.iters[pos] += 1
        if self.tracer.enabled:
            self._span(warp, "steal", span0, warp.now)
        return True

    def _enqueue_remaining_edges(
        self, warp: Warp, st: RunState, block: Optional[Block], slot: int
    ) -> Generator[int, None, bool]:
        """Ship the chunk's unprocessed edges as 2-vertex tasks; row
        ``chunk_pos`` hands off slot ``slot + chunk_pos`` of ``block``."""
        warp.timeouts += 1
        span0 = warp.now
        while st.chunk_pos < len(st.chunk):
            edge = st.chunk[st.chunk_pos]
            yield warp.sync()
            task = Task.edge(int(edge[0]), int(edge[1]))
            ok, cycles = self.queue.enqueue(task, block, slot + st.chunk_pos)
            warp.charge(cycles)
            if not ok:
                st.t0 = warp.now
                if self.tracer.enabled:
                    self._span(warp, "steal", span0, warp.now)
                return False
            st.chunk_pos += 1
        if self.tracer.enabled:
            self._span(warp, "steal", span0, warp.now)
        return True

    # ------------------------------------------------------------------ #
    # Post-run accounting
    # ------------------------------------------------------------------ #

    def stack_bytes(self) -> int:
        """Total stack footprint across all warps (incl. child kernels).

        Every level of a job comes from one factory, so the first level
        prices them all (:meth:`PagedLevel.stack_bytes`,
        :meth:`ArrayLevel.stack_bytes`)."""
        levels = len(self.run_states) * (self._k - 2)
        return self.run_states[0].levels[0].stack_bytes(levels) if levels else 0

    def overflowed(self) -> bool:
        """True when any fixed-capacity level truncated candidates (only
        an ``ARRAY_FIXED`` level truncates; any other overflow raises and
        ends the run)."""
        if self.config.stack_mode is not StackMode.ARRAY_FIXED:
            return False
        return any(level.overflows for st in self.run_states for level in st.levels)

"""Warp-level backtracking with load balancing (Algorithms 2 and 4).

A :class:`MatchJob` holds everything the warps of one device share — the
graph, the compiled plan, the work-group cursor, ``Q_task``, the busy
counter used for termination detection — and produces warp *bodies*:
generators the DES scheduler drives.

Four load-balancing strategies are implemented inside this one framework,
following the paper's Fig. 11 methodology:

* :attr:`Strategy.TIMEOUT` — T-DFS: a task running longer than τ is
  decomposed into ≤3-vertex prefix tasks pushed to the lock-free queue;
  idle warps drain the queue before fetching new initial chunks.
* :attr:`Strategy.HALF_STEAL` — STMatch: an idle warp locks a victim's
  stack and takes half the remaining candidates of the shallowest level;
  the victim pays lock overhead on every stack access and stalls while
  being robbed.
* :attr:`Strategy.NEW_KERNEL` — EGSM: a level whose fanout exceeds a
  threshold is handed to a freshly launched child kernel (launch latency +
  new stack allocations, which can OOM).
* :attr:`Strategy.NONE` — no stealing (the τ = ∞ baseline).

Scheduling protocol: a warp must ``yield warp.sync()`` *before* every
shared-state interaction so the operation executes at its correct global
virtual time; between interactions it may do arbitrary local work while
charging cycles.
"""

from __future__ import annotations

from functools import cached_property
from typing import Generator, Optional

import numpy as np

from repro.core.candidates import filter_candidates
from repro.core.config import RunContext, Strategy, TDFSConfig
from repro.core.edge_filter import filter_chunk, filter_chunk_cycles
from repro.core.intersect import intersect_many
from repro.errors import IllegalAccessError
from repro.gpusim.costmodel import WARP_SIZE
from repro.gpusim.device import VirtualGPU, Warp
from repro.graph.csr import CSRGraph
from repro.kernels import Block, KernelBackend, resolve_backend
from repro.obs.tracer import NULL_TRACER, Tracer, make_span
from repro.query.plan import MatchingPlan
from repro.alloc.stack import WarpStack, LevelFactory
from repro.taskqueue.ring import LockFreeTaskQueue
from repro.taskqueue.tasks import Task, PLACEHOLDER

#: Warp syncs (and half-steal lock checks) happen every this many tree nodes.
SYNC_INTERVAL = 64

#: Maximum warps a child kernel launches (paper example: fanout 1024 → 32).
MAX_CHILD_WARPS = 32


class RunState:
    """Mutable per-warp DFS state — visible to thieves in HALF_STEAL mode.

    Beyond the DFS stack proper, the state tracks everything a recovery
    snapshot needs to reconstruct the warp's unfinished work exactly (see
    :mod:`repro.faults.recovery`): the half-processed chunk
    (``chunk``/``chunk_pos``), any stolen or child-kernel candidate list
    (``aux_*``), and the prefix whose subtree is mid-expansion when an
    abort lands between yield points (``inflight``).
    """

    __slots__ = (
        "path",
        "filtered",
        "iters",
        "stack",
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

    def __init__(self, num_levels: int, stack: WarpStack) -> None:
        self.path = [0] * num_levels
        self.filtered: list[Optional[np.ndarray]] = [None] * num_levels
        self.iters = [0] * num_levels
        self.stack = stack
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
    """Shared state + warp bodies for one device's matching kernel."""

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
        #: ``u * n + v`` per directed edge, built by the vectorized backend's
        #: first prefix block (graph-wide, so kept for the job, not a window).
        self.edge_keys: Optional[np.ndarray] = None
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
        self.strategy = config.strategy
        self.tau = config.tau_cycles
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
        #: Host-side multiset of in-flight ``Q_task`` triples.  Armed only
        #: when the context carries a fault plan, retry policy, or periodic
        #: checkpointing: it lets the dequeue path *detect* corrupted ring
        #: slots (membership check) and lets recovery/checkpoint snapshots
        #: read the queued remainder non-destructively even when the ring
        #: itself was poisoned.  ``None`` keeps the fault-free fast path
        #: unchanged.
        self.journal: Optional[dict[Task, int]] = (
            {} if self.ctx.recovery_armed else None
        )
        #: Host-side hand-off beside the journal: a task in the ring → the
        #: ``(block, slot)`` that resolved its first unfilled position on the
        #: warp that shipped it (an edge task's row in its prefix window, a
        #: three-vertex task's candidate in the level-2 child).  Written only
        #: for a task the ring accepted, popped at its dequeue — never more
        #: entries than tasks in the ring; a miss runs the scalar path.
        self.handoff: dict[Task, tuple[Block, int]] = {}

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

        Returns ``(rows, width, block, first)``: when ``block`` is not
        ``None`` it covers the whole chunk, whose first row is row ``first``
        of the block's window.  A chunk the current block does not fully
        cover opens a new block at the chunk's first row, which drops the
        old one.
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
        return rows[lo:hi], width, block, first

    def _span(self, warp: Warp, name: str, start: int, end: int) -> None:
        """Record one virtual span (callers guard on ``tracer.enabled``)."""
        self.tracer.record(make_span(name, None, start, end, self.device, warp.wid))

    def _shipped(self, task: Task, block: Optional[Block], slot: int) -> None:
        """Book a task the ring accepted: in the journal when it is armed,
        and in the hand-off when ``block``'s ``slot`` already resolved it."""
        if self.journal is not None:
            self.journal[task] = self.journal.get(task, 0) + 1
        if block is not None:
            self.handoff[task] = (block, slot)

    def _validate_task(self, task: Task) -> None:
        """Detect corrupted ring slots (range check + journal membership).

        Runs on every dequeue; raising here models the illegal memory
        access a real kernel would hit when chasing a torn task's bogus
        vertex id.  On success the task is checked out of the journal.
        """
        n = self.graph.num_vertices
        ok = (
            0 <= task.v1 < n
            and 0 <= task.v2 < n
            and (task.v3 == PLACEHOLDER or 0 <= task.v3 < n)
        )
        if ok and self.journal is not None:
            left = self.journal.get(task, 0) - 1
            ok = left >= 0
            if left > 0:
                self.journal[task] = left
            elif ok:
                del self.journal[task]
        if not ok:
            raise IllegalAccessError(
                f"corrupted Q_task slot: dequeued {tuple(task)}"
            )

    # ------------------------------------------------------------------ #
    # Warp main loop
    # ------------------------------------------------------------------ #

    def warp_body(self, warp: Warp) -> Generator[int, None, None]:
        """Main loop of a resident warp (priority: queue > chunk > steal)."""
        st = RunState(self.plan.num_levels, WarpStack(self.plan.num_levels, self.level_factory))
        self.run_states.append(st)
        cost = self.cost
        while True:
            # Priority 1: drain Q_task (keeps the queue small, paper Fig. 4).
            if self.queue is not None:
                yield warp.sync()
                task, cycles = self.queue.dequeue()
                warp.charge(cycles)
                if task is not None:
                    self._validate_task(task)
                    yield from self._work(warp, st, self._process_task(warp, st, task))
                    continue
            # Priority 2: fetch the next chunk of work rows.
            if self._group < len(self.groups):
                yield warp.sync()
                fetched = self._next_chunk()
                if fetched is not None:
                    chunk, width, block, first = fetched
                    warp.charge(cost.chunk_fetch)
                    warp.stats.chunks += 1
                    slot = 0
                    if block is not None:
                        # The block already filtered these rows; the charge
                        # is the one ``filter_chunk`` makes for their count.
                        warp.charge(filter_chunk_cycles(len(chunk), cost))
                        slot = block.kept_before[first]
                        chunk = block.rows[
                            slot : block.kept_before[first + len(chunk)]
                        ]
                    elif width == 2 and not self.prefiltered:
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
                        warp.charge(cycles)
                    if len(chunk):
                        yield from self._work(
                            warp,
                            st,
                            self._process_chunk(warp, st, chunk, block, slot),
                        )
                    continue
            # Priority 3: half stealing (STMatch-style).
            if self.strategy is Strategy.HALF_STEAL:
                pending = yield from self._try_steal(warp, st)
                if pending is not None:
                    yield from self._work(
                        warp, st, self._process_stolen(warp, st, pending)
                    )
                    continue
            # Idle: poll until the job is done.
            if self.finished():
                break
            warp.charge(cost.idle_poll, busy=False)
            yield warp.sync()

    def _work(self, warp: Warp, st: RunState, work) -> Generator[int, None, None]:
        """Run one claimed piece of work (a dequeued task, a chunk, a stolen
        half): the warp counts as busy — and is inside a ``match`` span —
        from here until ``work`` is exhausted."""
        self.busy += 1
        st.busy_flag = True
        t0 = warp.now
        yield from work
        if self.tracer.enabled:
            self._span(warp, "match", t0, warp.now)
        st.busy_flag = False
        self.busy -= 1
        self.gpu.note_work_done(warp.now)

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
    ) -> Generator[int, None, None]:
        """Process a chunk of initial work rows (Algorithm 4 lines 4–6).

        Rows are edges (width 2) in the standard pipeline, or deeper
        prefixes when a recovery snapshot seeded the DFS.  With a ``block``,
        row ``i`` of ``edges`` is the block's slot ``slot + i`` (a thief's
        stolen half comes without one and takes the scalar path).
        """
        width = edges.shape[1] if edges.ndim == 2 else 2
        st.chunk = edges
        st.chunk_pos = 0
        st.t0 = warp.now  # t0 is per chunk (Algorithm 4 line 6)
        while st.chunk_pos < len(st.chunk):
            if (
                self.strategy is Strategy.TIMEOUT
                and self.queue is not None
                and width == 2
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
            row = st.chunk[st.chunk_pos]
            row_slot = slot + st.chunk_pos
            st.chunk_pos += 1
            for i in range(width):
                st.path[i] = int(row[i])
            yield from self._process_item(warp, st, width, block, row_slot)
        st.chunk = None

    def _process_task(
        self, warp: Warp, st: RunState, task: Task
    ) -> Generator[int, None, None]:
        """Process a task dequeued from ``Q_task`` (Algorithm 4 lines 1–3).

        The task starts from the block slot its shipper handed off, when
        there is one: an edge task is its prefix window's row again; a
        three-vertex task takes the level-2 child's slot where the shape
        rule allows (see :attr:`_task_blocks_end`).
        """
        block, slot = self.handoff.pop(task, (None, 0))
        st.path[0] = task.v1
        st.path[1] = task.v2
        prefix_len = 2
        if task.v3 != PLACEHOLDER:
            st.path[2] = task.v3
            prefix_len = 3
            if block is not None and self._task_blocks_end == 3:
                block = None
        st.t0 = warp.now
        yield from self._process_item(warp, st, prefix_len, block, slot)

    @cached_property
    def _task_blocks_end(self) -> int:
        """The shape rule, decided once per job: the first position whose
        block a three-vertex task may not take (``k`` when every block
        holds for it; see :meth:`KernelBackend.shape_holds`)."""
        holds = self.backend.shape_holds
        return next((p for p in range(3, self._k) if not holds(self, p, 3)), self._k)

    def _process_stolen(
        self, warp: Warp, st: RunState, pending: tuple
    ) -> Generator[int, None, None]:
        """Process work stolen from a victim's stack (HALF_STEAL)."""
        kind = pending[0]
        st.t0 = warp.now
        if kind == "edges":
            yield from self._process_chunk(warp, st, pending[1])
            return
        _, prefix, candidates = pending
        p = len(prefix)
        # Track position in aux state so a recovery snapshot sees exactly
        # the not-yet-processed candidates (the in-progress one is covered
        # by the item's own level/inflight state).
        st.aux_prefix = list(prefix)
        st.aux_cands = candidates
        st.aux_pos = 0
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
        st.item_prefix = prefix_len
        st.valid_from = prefix_len
        if prefix_len >= k:
            self._emit(warp, 1)
            if self.collect_limit and len(self.collected) < self.collect_limit:
                self.collected.append(tuple(st.path[:k]))
            warp.charge(cost.emit_match)
            return
        for p in range(prefix_len, k):
            # Clear stale state from a previous item so HALF_STEAL thieves
            # never see (and re-steal) already-processed levels.
            st.filtered[p] = None
            st.iters[p] = 0
        if prefix_len == k - 1:
            # The item's first unfilled position is the leaf: bulk count.
            self._expand_leaf(warp, st, prefix_len, 0, block, slot)
            return

        pos = prefix_len
        if self._fill(warp, st, pos, block, slot):
            yield from self._spawn_child_kernel(warp, st, pos)
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
                if (
                    self.strategy is Strategy.TIMEOUT
                    and self.queue is not None
                    and pos == 2
                    and st.item_prefix == 2
                    and warp.now - st.t0 > self.tau
                ):
                    all_shipped = yield from self._decompose_level(
                        warp, st, pos, *kids[pos]
                    )
                    if all_shipped:
                        st.iters[pos] = len(st.filtered[pos])
                        continue
                    f = st.filtered[pos]
                    i = st.iters[pos]
                child, base = kids[pos]
                if (
                    pos + 1 == k - 1
                    and self.backend.batched
                    and not self.collect_limit
                ):
                    if child is not None:
                        # The sync window is a slice of the leaf-level child.
                        if len(f) - i > 1 and SYNC_INTERVAL - st.nodes > 1:
                            self._leaf_block(warp, st, pos, f, i, child, base + i)
                            continue
                    else:
                        if block_min < 0:
                            block_min = self.backend.block_threshold(
                                self, st, pos + 1
                            )
                        limit = block_min and min(
                            len(f) - i, SYNC_INTERVAL - st.nodes
                        )
                        if limit and limit >= block_min:
                            window = self.backend.leaf_block(
                                self, st, pos + 1, f[i : i + limit]
                            )
                            if window is not None:
                                self._leaf_block(warp, st, pos, f, i, window, 0)
                                continue
                v = int(f[i])
                st.iters[pos] = i + 1
                st.path[pos] = v
                nxt = pos + 1
                if nxt == k - 1:
                    self._expand_leaf(warp, st, nxt, cost.step, child, base + i)
                elif self._fill(warp, st, nxt, child, base + i):
                    yield from self._spawn_child_kernel(warp, st, nxt)
                else:
                    pos = nxt
                    kids[pos] = self._child(st, pos, child, base + i)
            else:
                warp.charge(cost.step)
                if pos == prefix_len:
                    return
                pos -= 1

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
            or st.stack.level(pos).length != block.raw_sizes[slot]
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
        accounting stay real.  This is the only place a block slot is
        replayed.  A fixed-capacity level that truncated is rescanned by
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
        level = st.stack.level(pos)
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
            self.config.stmatch_removal,
        )
        return filtered, cycles + filter_cycles

    def _leaf_block(
        self,
        warp: Warp,
        st: RunState,
        pos: int,
        f: np.ndarray,
        i: int,
        block: Block,
        first: int,
    ) -> None:
        """Leaf expansion of one sync window from a leaf-level ``block``.

        Candidate ``f[i + j]`` is the block's slot ``first + j``; the window
        is what is left of ``f`` and of the sync interval, so it never
        crosses a sync point and thieves and the DES scheduler observe the
        states they would under scalar.  The block is a sync window's own
        (:meth:`KernelBackend.leaf_block`, ``first == 0``) or the child of
        the level's block, of which the window is a slice.  Its slots are
        replayed one at a time through :meth:`_expand_leaf` — real stack
        writes (so paged-allocator state and truncation stay exact), real
        timeout checks against ``warp.now``, scalar-order charges — which
        keeps simulated time bit-identical to the scalar backend.
        """
        nxt = pos + 1
        count = min(len(f) - i, SYNC_INTERVAL - st.nodes)
        last = first + count
        cost = self.cost
        timeout_live = (
            self.strategy is Strategy.TIMEOUT
            and self.queue is not None
            and pos == 2
            and st.item_prefix == 2
        )
        if not self.tracer.enabled and self.ctx.fault_plan is None:
            # Bulk replay: when nothing can interrupt the window — no
            # tracer spans to record, no injected faults, and the level can
            # plan the whole write sequence without overflow/OOM — the
            # per-candidate replay collapses to array sums.  The timeout
            # break index falls out of the charge prefix-sums: candidate j
            # is processed iff the cycles accrued before it fit the slack.
            level = st.stack.level(nxt)
            sizes = block.raw_sizes[first:last]
            high = int(sizes.max())
            per_batch = level.warm_batch_cycles(high, cost)
            k = 0
            if per_batch is not None:
                # Warm level: the charge is a difference of running totals
                # kept on the block.
                totals, leaves = self._slot_sums(block, per_batch)
                k = count
                if timeout_live:
                    slack = self.tau - (warp.now - st.t0)
                    k = min(
                        k,
                        int(
                            np.searchsorted(
                                totals[first + 1 : last + 1],
                                slack + totals[first],
                                side="right",
                            )
                        )
                        + 1,
                    )
                charge = int(totals[first + k] - totals[first])
                matches = int(leaves[first + k] - leaves[first])
            else:
                write_cycles = level.plan_writes(sizes, cost)
                if write_cycles is not None:
                    survivors = block.survivors[first:last]
                    cum = np.cumsum(
                        cost.step
                        + block.raw_cycles[first:last]
                        + write_cycles
                        + block.filter_cycles[first:last]
                        + survivors * cost.emit_match
                    )
                    k = count
                    if timeout_live:
                        slack = self.tau - (warp.now - st.t0)
                        k = min(
                            k, int(np.searchsorted(cum, slack, side="right")) + 1
                        )
                        high = int(sizes[:k].max())
                    charge = int(cum[k - 1])
                    matches = int(survivors[:k].sum())
            if k:
                st.iters[pos] = i + k
                st.path[pos] = int(f[i + k - 1])
                level.commit_writes(high, block.raw_set(first + k - 1))
                warp.charge(charge)
                self._emit(warp, matches)
                # k - 1 node ticks: the first candidate's tick was taken by
                # the caller, and a timeout break gives its tick back.
                st.nodes += k - 1
                self.intersections += block.intersections * k
                self.reuse_hits += block.reuse * k
                return
        for j in range(count):
            if j:
                st.nodes += 1
                if timeout_live and warp.now - st.t0 > self.tau:
                    # Same decision point as the scalar loop top: give back
                    # this candidate's node tick so the outer loop (which
                    # re-increments, re-checks and decomposes the remainder)
                    # sees exactly the scalar node count.
                    st.nodes -= 1
                    break
            st.iters[pos] = i + j + 1
            st.path[pos] = int(f[i + j])
            self._expand_leaf(warp, st, nxt, cost.step, block, first + j)

    def _slot_sums(
        self, block: Block, per_batch: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Running totals over a leaf block's slots, kept on the block:
        ``totals[s]`` is what slots ``[0, s)`` charge on a warm level — node
        step + ``_raw`` + write batches at ``per_batch`` (one price per job:
        its levels are all of one kind) + filter + emitting the survivors —
        and ``leaves[s]`` their survivor count.  A window's charge is then
        one subtraction."""
        if block.sums is None:
            cost = self.cost
            batches = (np.maximum(block.raw_sizes, 1) + WARP_SIZE - 1) // WARP_SIZE
            totals = (
                cost.step
                + block.raw_cycles
                + batches * per_batch
                + block.filter_cycles
                + block.survivors * cost.emit_match
            )
            block.sums = (
                np.concatenate(([0], np.cumsum(totals))),
                np.concatenate(([0], np.cumsum(block.survivors))),
            )
        return block.sums

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
            lists = [st.stack.level(entry.source).raw]
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

        Returns True when the level's fanout hands it to a child kernel
        (NEW_KERNEL): the caller launches it instead of descending.
        """
        cost = self.cost
        cycles = cost.step  # per-node bookkeeping (level move, iter reset)
        if self.strategy is Strategy.HALF_STEAL:
            # STMatch: the warp locks its own stack on every access.
            cycles += cost.lock_acquire
        # Until filtered/iters take ownership below, the subtree rooted at
        # path[:pos] is only reachable through the inflight marker.
        filtered, fill_cycles = self._fill_level(warp, st, pos, block, slot)
        warp.charge(cycles + fill_cycles)
        st.filtered[pos] = filtered
        st.iters[pos] = 0
        st.inflight = None
        return (
            self.strategy is Strategy.NEW_KERNEL
            and len(filtered) > self.config.new_kernel_fanout
        )

    def _emit(self, warp: Warp, n: int) -> None:
        if n:
            self.count += n
            warp.stats.matches += n

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
        candidate ``i`` hands off slot ``base + i`` of the level's ``child``.

        Returns True when everything was shipped; on a full queue, resets
        ``t0`` and leaves the remainder for in-place processing (paper
        Algorithm 4 lines 18–20).
        """
        warp.stats.timeouts += 1
        v1, v2 = st.path[0], st.path[1]
        f = st.filtered[pos]
        span0 = warp.now
        # st.iters[pos] is kept in sync inside the loop (not a local copy):
        # once a task is enqueued its candidate is owned by the queue, and a
        # fault at the next yield must not see it on the stack as well.
        while st.iters[pos] < len(f):
            yield warp.sync()
            task = Task(v1, v2, int(f[st.iters[pos]]))
            ok, cycles = self.queue.enqueue(task)
            warp.charge(cycles)
            if not ok:
                st.t0 = warp.now
                if self.tracer.enabled:
                    self._span(warp, "steal", span0, warp.now)
                return False
            self._shipped(task, child, base + st.iters[pos])
            st.iters[pos] += 1
        if self.tracer.enabled:
            self._span(warp, "steal", span0, warp.now)
        return True

    def _enqueue_remaining_edges(
        self, warp: Warp, st: RunState, block: Optional[Block], slot: int
    ) -> Generator[int, None, bool]:
        """Ship the chunk's unprocessed edges as 2-vertex tasks; row
        ``chunk_pos`` hands off slot ``slot + chunk_pos`` of ``block``."""
        warp.stats.timeouts += 1
        span0 = warp.now
        while st.chunk_pos < len(st.chunk):
            edge = st.chunk[st.chunk_pos]
            yield warp.sync()
            task = Task.edge(int(edge[0]), int(edge[1]))
            ok, cycles = self.queue.enqueue(task)
            warp.charge(cycles)
            if not ok:
                st.t0 = warp.now
                if self.tracer.enabled:
                    self._span(warp, "steal", span0, warp.now)
                return False
            self._shipped(task, block, slot + st.chunk_pos)
            st.chunk_pos += 1
        if self.tracer.enabled:
            self._span(warp, "steal", span0, warp.now)
        return True

    # ------------------------------------------------------------------ #
    # HALF_STEAL strategy (STMatch, paper Fig. 2)
    # ------------------------------------------------------------------ #

    def _try_steal(
        self, warp: Warp, st: RunState
    ) -> Generator[int, None, Optional[tuple]]:
        """Probe victims and steal half of the shallowest available level."""
        cost = self.cost
        yield warp.sync()
        probe0 = warp.now
        warp.charge(cost.steal_probe)
        for victim in self.run_states:
            if victim is st or not victim.busy_flag:
                continue
            pending = self._steal_from(warp, victim)
            if pending is not None:
                warp.stats.steals += 1
                if self.tracer.enabled:
                    self._span(warp, "steal", probe0, warp.now)
                return pending
        return None

    def _steal_from(self, warp: Warp, victim: RunState) -> Optional[tuple]:
        """Lock ``victim`` and split its shallowest remaining work."""
        cost = self.cost
        # Chunk level first: unprocessed initial edges are the shallowest.
        chunk = victim.chunk
        if chunk is not None:
            remaining = len(chunk) - victim.chunk_pos
            if remaining >= 2:
                warp.charge(cost.lock_acquire)
                keep = remaining - remaining // 2
                cut = victim.chunk_pos + keep
                stolen = chunk[cut:]
                victim.chunk = chunk[:cut]
                stall = cost.lock_acquire + cost.steal_copy_per_element * len(stolen) * 2
                victim.pending_stall += stall
                warp.charge(cost.steal_copy_per_element * len(stolen) * 2)
                return ("edges", stolen)
        # Otherwise: shallowest stack level with >= 2 unprocessed candidates.
        for p in range(victim.item_prefix, self.plan.num_levels - 1):
            f = victim.filtered[p]
            if f is None:
                break
            remaining = len(f) - victim.iters[p]
            if remaining >= 2:
                warp.charge(cost.lock_acquire)
                keep = remaining - remaining // 2
                cut = victim.iters[p] + keep
                stolen = f[cut:]
                victim.filtered[p] = f[:cut]
                prefix = [int(x) for x in victim.path[:p]]
                stall = cost.lock_acquire + cost.steal_copy_per_element * (
                    len(stolen) + p
                )
                victim.pending_stall += stall
                warp.charge(cost.steal_copy_per_element * (len(stolen) + p))
                return ("prefix", prefix, stolen)
        return None

    # ------------------------------------------------------------------ #
    # NEW_KERNEL strategy (EGSM)
    # ------------------------------------------------------------------ #

    def _spawn_child_kernel(
        self, warp: Warp, st: RunState, pos: int
    ) -> Generator[int, None, None]:
        """Hand the just-filled level to a freshly launched child kernel.

        Ordering matters for recovery: until the children's run states are
        registered, the parent still owns the whole level (its allocations
        below may OOM); ownership transfers to the children *before* the
        launch calls, so a launch failure (injected or real) leaves every
        candidate reachable — registered children hold their slices, and
        never-launched children simply never ran.
        """
        cost = self.cost
        candidates = st.filtered[pos]
        prefix = [int(x) for x in st.path[:pos]]
        n_warps = min(MAX_CHILD_WARPS, (len(candidates) + 31) // 32)
        yield warp.sync()
        # A new kernel needs dedicated stack space allocated up front —
        # the expense (and failure mode) the paper attributes to EGSM.
        handles = []
        for _ in range(n_warps):
            if self.child_stack_bytes:
                handles.append(
                    self.gpu.memory.allocate(self.child_stack_bytes, tag="child-stack")
                )
            warp.charge(cost.alloc_cost(max(self.child_stack_bytes, 1024)))
        warp.charge(cost.kernel_launch)
        start = warp.now + cost.kernel_launch
        children = []
        for idx in range(n_warps):
            cst = RunState(
                self.plan.num_levels,
                WarpStack(self.plan.num_levels, self.level_factory),
            )
            cst.aux_prefix = list(prefix)
            cst.aux_cands = candidates[idx::n_warps]
            cst.aux_pos = 0
            self.run_states.append(cst)
            children.append(cst)
        st.iters[pos] = len(candidates)  # ownership handed to the children
        self.busy += n_warps
        for idx in range(n_warps):
            handle = handles[idx] if handles else None
            body = self._child_body(children[idx], pos, handle)
            self.gpu.launch_child_kernel(body, count=1, at=start)

    def _child_body(
        self,
        cst: RunState,
        pos: int,
        mem_handle: Optional[int],
    ):
        def body(warp: Warp) -> Generator[int, None, None]:
            cst.busy_flag = True
            cst.t0 = warp.now
            t0 = warp.now
            while cst.aux_pos < len(cst.aux_cands):
                c = cst.aux_cands[cst.aux_pos]
                cst.aux_pos += 1
                cst.path[:pos] = cst.aux_prefix
                cst.path[pos] = int(c)
                yield from self._process_item(warp, cst, pos + 1)
            cst.aux_cands = None
            if self.tracer.enabled:
                self._span(warp, "match", t0, warp.now)
            cst.busy_flag = False
            yield warp.sync()
            self.busy -= 1
            if mem_handle is not None:
                self.gpu.memory.release(mem_handle)
            self.gpu.note_work_done(warp.now)

        return body

    # ------------------------------------------------------------------ #
    # Post-run accounting
    # ------------------------------------------------------------------ #

    def stack_bytes(self) -> int:
        """Total stack footprint across all warps (incl. child kernels)."""
        return sum(st.stack.memory_bytes() for st in self.run_states)

    def overflowed(self) -> bool:
        """True when any fixed-capacity level truncated candidates."""
        return any(st.stack.overflow_count() > 0 for st in self.run_states)

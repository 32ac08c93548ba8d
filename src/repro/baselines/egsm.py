"""EGSM simulation (Sun & Luo, SIGMOD'23) — paper Sections II, IV-B, IV-F.

Design choices reproduced from the paper's description:

* **Cuckoo-trie candidate index** built per query as preprocessing: prunes
  candidates by label/degree (intersections run on label-filtered adjacency)
  but costs 3× memory traffic per neighbor access ("the structure has three
  levels so it requires one extra memory access compared to the typical CSR
  format") and materializes edge candidates whose footprint blows past
  device memory on big low-label graphs — the Table IV OOMs.
* **New-kernel load balancing** (:class:`ChildKernelJob`, also ``tdfs``'s
  ``NEW_KERNEL``): large fanouts are handed to freshly launched child
  kernels, paying launch latency and new stack allocations.
* **No automorphism-based symmetry breaking** — every unlabeled instance is
  found ``|Aut(G_Q)|`` times, "which leads to a lot of redundant
  computations in the unlabeled setting" (why EGSM trails by ~360× there).
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.baselines.ctindex import CuckooTrieIndex
from repro.core.config import RunContext, StackMode, Strategy, TDFSConfig
from repro.core.engine import TDFSEngine
from repro.core.result import MatchResult
from repro.core.warp_matcher import MatchJob, RunState
from repro.gpusim.device import VirtualGPU, Warp
from repro.graph.csr import CSRGraph
from repro.query.plan import MatchingPlan, compile_plan

#: Maximum warps a child kernel launches (paper example: fanout 1024 → 32).
MAX_CHILD_WARPS = 32


class ChildKernelJob(MatchJob):
    """MatchJob that hands a level larger than ``fanout`` to a child
    kernel; that fill may launch one, so only leaf blocks fold."""

    fanout = 96
    folds_above_leaf = False

    def _spawn(self, warp: Warp, st: RunState, pos: int) -> Generator[int, None, None]:
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
            cst = self.new_run_state()
            cst.aux_prefix = list(prefix)
            cst.aux_cands = candidates[idx::n_warps]
            children.append(cst)
        st.iters[pos] = len(candidates)  # ownership handed to the children
        self.busy += n_warps
        for idx in range(n_warps):
            handle = handles[idx] if handles else None
            body = self._child_body(children[idx], handle)
            self.gpu.launch_child_kernel(body, count=1, at=start)

    def _child_body(self, cst: RunState, mem_handle: Optional[int]):
        def body(warp: Warp) -> Generator[int, None, None]:
            cst.busy_flag = True
            cst.t0 = warp.now
            t0 = warp.now
            yield from self._process_aux(warp, cst)
            if self.tracer.enabled:
                self._span(warp, "match", t0, warp.now)
            cst.busy_flag = False
            yield warp.sync()
            self.busy -= 1
            if mem_handle is not None:
                self.gpu.memory.release(mem_handle)
            self.gpu.note_work_done(warp.now)

        return body


class EGSMJob(ChildKernelJob):
    """MatchJob whose Eq. (1) reads go through the CT-index."""

    def __init__(self, *, index: CuckooTrieIndex, **kwargs) -> None:
        super().__init__(**kwargs)
        self.index = index
        self._prune = self.graph.is_labeled and self.plan.is_labeled
        # Label-pruned trie reads depend on the target position, so batched
        # varying-list kernels and intersection caching must not assume the
        # plain CSR adjacency (see MatchJob.plain_adjacency).
        self.plain_adjacency = not self._prune

    def adjacency(self, v: int, pos: int) -> np.ndarray:
        """Read neighbors through the trie, pre-pruned by the target label."""
        if self._prune:
            return self.index.neighbors_with_label(v, self.plan.labels[pos])
        return self.graph.neighbors(v)


class EGSMEngine(TDFSEngine):
    """EGSM re-implemented on the shared virtual-GPU substrate."""

    name = "egsm"
    host_filter = False

    def __init__(
        self, config: Optional[TDFSConfig] = None, ctx: Optional[RunContext] = None
    ) -> None:
        base = config or TDFSConfig()
        super().__init__(
            base.replace(
                strategy=Strategy.NEW_KERNEL,
                stack_mode=StackMode.ARRAY_DMAX,
                enable_symmetry=False,
                enable_reuse=False,
                # Three-level trie lookups (cuc → off → nbr) that are
                # hash-scattered rather than coalesced: 3 levels × ~2.5
                # non-coalesced access penalty on every adjacency read.
                cost=base.cost.with_memory_multiplier(7.5),
            ),
            ctx,
        )

    def _resolve_plan(self, query):
        if isinstance(query, MatchingPlan):
            # EGSM never applies symmetry constraints: recompile without.
            if query.symmetry_enabled:
                return compile_plan(
                    query.query,
                    order=query.order,
                    enable_symmetry=False,
                    enable_reuse=False,
                )
            return query
        return compile_plan(query, enable_symmetry=False, enable_reuse=False)

    def _pre_kernel(
        self,
        gpu: VirtualGPU,
        graph: CSRGraph,
        plan: MatchingPlan,
        result: MatchResult,
    ) -> tuple[int, dict]:
        """Build the CT-index on the device before the matching kernel.

        Raises ``DeviceOOMError`` (surfaced as the paper's ``OOM`` entries)
        when the edge-candidate arrays exceed remaining device memory.
        """
        index = CuckooTrieIndex(graph, plan)
        gpu.memory.allocate(index.memory_bytes(), tag="ct-index")
        build = index.build_cycles(self.config.cost)
        # The build itself is parallel across warps.
        return build // max(self.config.num_warps, 1), {"index": index}

    def _make_job(self, **kwargs) -> EGSMJob:
        return EGSMJob(**kwargs)

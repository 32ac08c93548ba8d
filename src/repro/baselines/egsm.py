"""EGSM simulation (Sun & Luo, SIGMOD'23) — paper Sections II, IV-B, IV-F.

Design choices reproduced from the paper's description:

* **Cuckoo-trie candidate index** built per query as preprocessing: prunes
  candidates by label/degree (intersections run on label-filtered adjacency)
  but costs 3× memory traffic per neighbor access ("the structure has three
  levels so it requires one extra memory access compared to the typical CSR
  format") and materializes edge candidates whose footprint blows past
  device memory on big low-label graphs — the Table IV OOMs.
* **New-kernel load balancing**: large fanouts are handed to freshly
  launched child kernels, paying launch latency and new stack allocations.
* **No automorphism-based symmetry breaking** — every unlabeled instance is
  found ``|Aut(G_Q)|`` times, "which leads to a lot of redundant
  computations in the unlabeled setting" (why EGSM trails by ~360× there).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.ctindex import CuckooTrieIndex
from repro.core.config import RunContext, StackMode, Strategy, TDFSConfig
from repro.core.engine import TDFSEngine
from repro.core.result import MatchResult
from repro.core.warp_matcher import MatchJob
from repro.gpusim.device import VirtualGPU
from repro.graph.csr import CSRGraph
from repro.query.plan import MatchingPlan, compile_plan


class EGSMJob(MatchJob):
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

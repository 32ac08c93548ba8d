"""Hybrid BFS-DFS engine — the paper's stated future work, implemented.

Section V: *"we plan to explore using BFS subgraph extension initially when
the extended subgraphs fit in the device memory, and switch to DFS
processing when the next level of subgraphs cannot fit"*, dividing device
memory between BFS subgraph buffers and DFS stacks.

This engine does exactly that:

1. **BFS phase** — starting from the filtered initial edges, levels are
   extended breadth-first (coalesced, perfectly balanced) while the
   *estimated* next level fits inside a configurable fraction of free
   device memory (the same smallest-backward-list bound PBE uses).
2. **Switch** — the moment the estimate bursts the budget (or the level
   before the leaf is reached), the current partial matches become the
   initial work rows of a standard T-DFS kernel: each row is a matched
   prefix, warps run Algorithms 2/4 from that depth with the timeout
   queue, paged stacks and all.

Counts are identical to pure T-DFS (the test suite asserts it); virtual
time is the BFS phase plus the DFS makespan.  EGSM advocates this hybrid
because BFS's coalesced access is cheaper per extension — the crossover is
workload-dependent, which is why the paper leaves the memory split as an
open tuning problem (exposed here as ``bfs_fraction``).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.pbe import bfs_expand_level
from repro.core.edge_filter import edge_mask
from repro.core.engine import TDFSEngine
from repro.core.result import MatchResult
from repro.gpusim.costmodel import WARP_SIZE
from repro.gpusim.device import VirtualGPU
from repro.graph.csr import CSRGraph
from repro.query.plan import MatchingPlan

#: Fraction of free device memory the BFS phase may fill with partials.
DEFAULT_BFS_FRACTION = 0.25


class HybridEngine(TDFSEngine):
    """BFS while memory permits, then T-DFS on the surviving prefixes."""

    name = "hybrid"
    host_filter = False

    def __init__(
        self, config=None, ctx=None, bfs_fraction: float = DEFAULT_BFS_FRACTION
    ):
        super().__init__(config, ctx)
        if not 0.0 < bfs_fraction < 1.0:
            raise ValueError("bfs_fraction must be in (0, 1)")
        self.bfs_fraction = bfs_fraction

    # ------------------------------------------------------------------ #

    def _initial_work(
        self,
        gpu: VirtualGPU,
        graph: CSRGraph,
        plan: MatchingPlan,
        groups: list,
        result: MatchResult,
    ) -> tuple[list, int]:
        cfg = self.config
        cost = cfg.cost
        # The BFS phase is one bulk pass over the run's whole share of edges.
        edges = np.concatenate([rows for rows, _ in groups])
        budget = int(gpu.memory.free * self.bfs_fraction)

        mask = edge_mask(graph, plan, edges, prune_degree=cfg.enable_edge_filter)
        partials = edges[mask].astype(np.int32, copy=False)
        cycles = ((len(edges) + WARP_SIZE - 1) // WARP_SIZE) * (
            cost.load_batch + cost.compact_batch
        )
        width = 2
        k = plan.num_levels
        # BFS while the *next* level's upper bound fits the BFS budget and
        # there is still at least one position left for the DFS to handle
        # (reaching the leaf breadth-first would just be PBE).
        while width < k - 1 and len(partials):
            bound = graph.degrees[partials[:, plan.backward[width][0]]]
            for j in plan.backward[width][1:]:
                bound = np.minimum(bound, graph.degrees[partials[:, j]])
            next_bytes = int(bound.sum()) * 4 * (width + 1)
            if next_bytes + partials.nbytes > budget:
                break
            work, partials, _found = bfs_expand_level(
                graph, plan, partials, width, cost
            )
            cycles += work // max(cfg.num_warps, 1) + cost.level_sync
            width += 1

        result.memory.stack_bytes += int(partials.nbytes)
        # Charge the BFS buffer against device memory for the DFS phase.
        if partials.nbytes:
            gpu.memory.allocate(int(partials.nbytes), tag="bfs-partials")
        self.bfs_levels_run = width - 2
        return [(partials, width)], int(cycles)

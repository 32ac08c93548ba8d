"""PBE simulation (Guo et al., SIGMOD'20) — the BFS baseline.

PBE grows all partial matches one level at a time ("one level at a time ...
to allow coalesced memory access") and manages device memory with a
pipelined scheme: before extending a level it *estimates* the next level's
size from an upper bound (the smallest backward adjacency size per partial);
if the estimate exceeds free memory it cuts the level into batches, and each
batch pays (a) an allocate/free round-trip and (b) a counting pass before
the populating pass ("computing the next-level subgraphs once to get the
exact space needed ... followed by another pass", i.e. double computation).
Prior levels stay resident because the partial matches form a prefix tree.

Properties reproduced from the paper's evaluation:

* perfectly balanced — BFS work divides evenly over warps, so PBE is
  closest to (occasionally beating) T-DFS on graphs with the most skewed
  degree distributions, where DFS stragglers bite hardest;
* materialization cost — every partial match is written to and re-read from
  global memory at each level, which is what T-DFS's ~2× average win
  comes from;
* unlabeled only (Section IV-B: "PBE does not support labeled query
  graphs").

PBE is level-synchronous with no inter-warp interaction, so it needs no
discrete-event machinery: virtual time is total warp-work divided by the
warp count, plus the serial per-level/per-batch overheads.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.candidates import filter_candidates, leaf_count, raw_candidates
from repro.core.config import RunContext, TDFSConfig
from repro.core.edge_filter import edge_mask
from repro.core.result import MatchResult
from repro.errors import UnsupportedError
from repro.gpusim.costmodel import WARP_SIZE
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DEFAULT_DEVICE_MEMORY
from repro.query.pattern import QueryGraph
from repro.query.plan import MatchingPlan, compile_plan


class PBEEngine:
    """BFS subgraph enumeration with pipelined memory management."""

    name = "pbe"

    def __init__(
        self, config: Optional[TDFSConfig] = None, ctx: Optional[RunContext] = None
    ) -> None:
        # ``ctx`` is accepted for registry parity; this engine wires nothing.
        self.config = config or TDFSConfig()

    # ------------------------------------------------------------------ #

    def compile(
        self,
        query: Union[QueryGraph, MatchingPlan],
        graph: Optional[CSRGraph] = None,
    ) -> MatchingPlan:
        """Compile ``query`` exactly as :meth:`run` would (``graph`` is
        accepted for interface parity; PBE ignores the planner)."""
        if isinstance(query, MatchingPlan):
            return query
        return compile_plan(query, enable_symmetry=True, enable_reuse=False)

    def run(
        self,
        graph: CSRGraph,
        query: Union[QueryGraph, MatchingPlan],
        collect_matches: int = 0,
    ) -> MatchResult:
        plan = self.compile(query)
        if plan.is_labeled:
            raise UnsupportedError(
                "PBE only supports unlabeled subgraph matching (paper IV-B)"
            )
        if collect_matches:
            raise UnsupportedError(
                "PBE counts level by level and keeps no embeddings; "
                "it cannot enumerate matches"
            )
        cfg = self.config
        cost = cfg.cost
        budget = cfg.device_memory or DEFAULT_DEVICE_MEMORY
        free = budget - graph.memory_bytes()
        k = plan.num_levels

        result = MatchResult(
            engine=self.name,
            graph_name=graph.name,
            query_name=plan.query.name,
            count=0,
            elapsed_cycles=0,
            aut_size=plan.aut_size,
            symmetry_enabled=plan.symmetry_enabled,
        )

        # Level 2: filtered directed edges, produced by one parallel scan.
        edges = graph.directed_edge_array()
        mask = edge_mask(graph, plan, edges, prune_degree=cfg.enable_edge_filter)
        partials = edges[mask]
        work = ((len(edges) + WARP_SIZE - 1) // WARP_SIZE) * (
            cost.load_batch + cost.compact_batch
        )
        total_work = work
        serial = cost.level_sync  # one kernel per level
        resident_bytes = partials.size * 4
        peak_resident = resident_bytes
        batches_total = 0
        count = 0

        for pos in range(2, k):
            if len(partials) == 0:
                break
            n_batches, batch_overhead = self._plan_batches(
                graph, plan, partials, pos, free - resident_bytes, cost
            )
            batches_total += n_batches
            serial += batch_overhead + cost.level_sync
            double_pass = n_batches > 1

            level_work, next_partials, found = bfs_expand_level(
                graph, plan, partials, pos, cost, double_pass
            )
            total_work += level_work
            count += found
            partials = next_partials
            resident_bytes += partials.size * 4  # prefix tree keeps parents
            peak_resident = max(peak_resident, resident_bytes)

        result.count = count
        result.elapsed_cycles = int(total_work / cfg.num_warps) + serial
        result.metrics.update(
            {
                "mem.stack_bytes": peak_resident,
                "mem.graph_bytes": graph.memory_bytes(),
                "mem.device_bytes.peak": graph.memory_bytes() + peak_resident,
                "warp.chunks_fetched": batches_total,
                "sim.busy_cycles": total_work,
            }
        )
        return result

    # ------------------------------------------------------------------ #

    def _plan_batches(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        partials: np.ndarray,
        pos: int,
        free_bytes: int,
        cost,
    ) -> tuple[int, int]:
        """Upper-bound the next level and split into memory-fitting batches.

        The bound per partial is the smallest backward adjacency size (the
        paper's "smallest set size before set intersection").
        """
        back = plan.backward[pos]
        bound = graph.degrees[partials[:, back[0]]]
        for j in back[1:]:
            bound = np.minimum(bound, graph.degrees[partials[:, j]])
        next_bytes = int(bound.sum()) * 4 * (pos + 1)
        if free_bytes <= 0:
            free_bytes = 4096  # degenerate: tiny batches
        n_batches = max(1, -(-next_bytes // max(free_bytes, 4096)))
        # Each extra batch pays a release + reallocate round-trip.
        overhead = (n_batches - 1) * 2 * cost.alloc_cost(max(free_bytes, 4096))
        return n_batches, overhead


def bfs_expand_level(
    graph: CSRGraph,
    plan: MatchingPlan,
    partials: np.ndarray,
    pos: int,
    cost,
    double_pass: bool = False,
) -> tuple[int, np.ndarray, int]:
    """BFS-extend every partial match by one order position.

    Returns ``(work_cycles, next_partials, leaf_matches_found)``.
    """
    k = plan.num_levels
    is_leaf = pos == k - 1
    work = 0
    out_rows: list[np.ndarray] = []
    found = 0
    path_load = ((pos + WARP_SIZE - 1) // WARP_SIZE + 1) * cost.load_batch
    for row in partials:
        path = row.tolist()
        raw, cycles = raw_candidates(graph, plan, path, pos, None, cost)
        # BFS re-reads the partial match from global memory ...
        work += cycles + path_load
        if is_leaf:
            n, cycles = leaf_count(graph, plan, path, raw, cost)
            work += cycles
            found += n
        else:
            filtered, cycles = filter_candidates(
                graph, plan, path, pos, raw, cost
            )
            work += cycles
            if filtered.size:
                block = np.empty((filtered.size, pos + 1), dtype=np.int32)
                block[:, :pos] = row
                block[:, pos] = filtered
                out_rows.append(block)
                # ... and writes each extended match back out.
                batches = (filtered.size * (pos + 1) + WARP_SIZE - 1) // WARP_SIZE
                work += batches * cost.write_batch
    if double_pass:
        # Counting pass before the populating pass: recompute the level.
        work *= 2
    if out_rows:
        next_partials = np.concatenate(out_rows, axis=0)
    else:
        next_partials = np.empty((0, pos + 1), dtype=np.int32)
    return work, next_partials, found

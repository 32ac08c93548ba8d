"""Initial-task (edge) generation and filtering.

Initial tasks are the directed edges of ``G`` matched to ``(u_1, u_2)``
(paper Section III: "in the actual implementation, we use edges ... to
create more fine-grained initial tasks").  Before a warp processes an edge
it applies the four conditions of the paper's edge filter:

1. ``degree(v_i1) >= degree(u_1)``          (pruning; optional)
2. ``degree(v_i2) >= degree(u_2)``          (pruning; optional)
3. ``label(v_i1) == label(u_1)``            (correctness; always applied)
4. ``label(v_i2) == label(u_2)``            (correctness; always applied)

plus the position-0/1 symmetry constraint (``id(v_i1) < id(v_i2)`` when the
plan requires it), which is also correctness-critical.

T-DFS and EGSM filter edges *on the device*, in parallel, as chunks are
fetched; STMatch filters them *on the host with a single CPU core* before
the kernel launches, which becomes a serial bottleneck on big graphs
(Fig. 10: ~58 % of Friendster total time).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.costmodel import CostModel, WARP_SIZE
from repro.graph.csr import CSRGraph
from repro.query.plan import MatchingPlan


def edge_mask(
    graph: CSRGraph,
    plan: MatchingPlan,
    edges: np.ndarray,
    prune_degree: bool = True,
) -> np.ndarray:
    """Boolean mask of edges that survive the filter.

    ``edges`` is an ``(n, 2)`` array of ``(v_i1, v_i2)`` directed pairs.
    """
    v1 = edges[:, 0]
    v2 = edges[:, 1]
    mask = np.ones(len(edges), dtype=bool)
    if prune_degree:
        mask &= graph.degrees[v1] >= plan.degrees[0]
        mask &= graph.degrees[v2] >= plan.degrees[1]
    if plan.is_labeled and graph.is_labeled:
        mask &= graph.labels[v1] == plan.labels[0]
        mask &= graph.labels[v2] == plan.labels[1]
    # Symmetry constraint between the first two positions.
    if 0 in plan.constraints[1]:
        mask &= v1 < v2
    return mask


def filter_chunk_cycles(num_edges: int, cost: CostModel) -> int:
    """What a warp pays to filter a fetched chunk of ``num_edges`` rows.

    The warp loads the chunk coalesced and evaluates the predicates
    lane-parallel, so the charge is per 32-edge batch.
    """
    if num_edges == 0:
        return cost.step
    batches = (num_edges + WARP_SIZE - 1) // WARP_SIZE
    return batches * (cost.load_batch + cost.compact_batch)


def filter_chunk(
    graph: CSRGraph,
    plan: MatchingPlan,
    edges: np.ndarray,
    cost: CostModel,
    prune_degree: bool = True,
) -> tuple[np.ndarray, int]:
    """Device-side filtering of one fetched chunk; returns ``(kept, cycles)``."""
    cycles = filter_chunk_cycles(len(edges), cost)
    if len(edges) == 0:
        return edges, cycles
    return edges[edge_mask(graph, plan, edges, prune_degree)], cycles


def host_prefilter(
    graph: CSRGraph,
    plan: MatchingPlan,
    rows: np.ndarray,
    cost: CostModel,
    prune_degree: bool = True,
) -> tuple[np.ndarray, int]:
    """STMatch-style serial host prefilter of a device's width-2 ``rows``.

    Returns the filtered rows and the host CPU cycles spent — charged as a
    serial delay before any warp starts (single core, paper Section IV-B).
    On one device ``rows`` is every directed edge; with several, each
    filters only the share it was dealt.
    """
    cycles = len(rows) * cost.cpu_edge_filter
    return rows[edge_mask(graph, plan, rows, prune_degree)], cycles

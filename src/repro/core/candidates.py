"""Candidate computation: Eq. (1) plus selection-time filters.

For order position ``p`` with partial match ``path``, the *raw* candidate
set is the intersection of the data-graph adjacency lists of the backward
neighbors (Eq. 1), optionally seeded from an earlier position's stored raw
set when the reuse plan allows (Fig. 7).  Raw sets are what stack levels
store, so a reused set never carries another position's filters.

The *filtered* view then applies, vectorized:

* label filter (labeled queries; the paper filters candidates by label
  during extension),
* degree filter (candidates must have degree ≥ the query vertex's),
* injectivity ("make sure v is not already matched", Algorithm 1 note) —
  T-DFS folds this into the intersection pass; STMatch pays a separate
  set-difference operation, modeled by the ``stmatch_removal`` charge,
* symmetry-breaking lower bounds (``id(S[i]) < id(v)``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.intersect import intersect_many
from repro.gpusim.costmodel import CostModel
from repro.graph.csr import CSRGraph
from repro.query.plan import MatchingPlan


def raw_candidates(
    graph: CSRGraph,
    plan: MatchingPlan,
    path: Sequence[int],
    position: int,
    reuse_source: Optional[np.ndarray],
    cost: CostModel,
) -> tuple[np.ndarray, int]:
    """Eq. (1): raw intersection for ``position``; returns ``(set, cycles)``.

    ``reuse_source`` is the stored raw set of the reuse plan's source level
    when available on the current path (pass ``None`` to compute from
    scratch).
    """
    if reuse_source is not None:
        lists = [reuse_source] + [
            graph.neighbors(path[j]) for j in plan.reuse[position].remaining
        ]
    else:
        lists = [graph.neighbors(path[j]) for j in plan.backward[position]]
    result, cycles, _ = intersect_many(lists, cost)
    return result, cycles


def filter_candidates(
    graph: CSRGraph,
    plan: MatchingPlan,
    path: Sequence[int],
    position: int,
    raw: np.ndarray,
    cost: CostModel,
    stmatch_removal: bool = False,
) -> tuple[np.ndarray, int]:
    """Apply selection-time filters to a raw set; returns ``(set, cycles)``."""
    cycles = cost.filter_cost(raw.size)
    if raw.size == 0:
        return raw, cycles
    # Degree filter: necessary condition, sound for exact matching.
    mask = graph.degrees[raw] >= plan.degrees[position]
    # Label filter (only meaningful when both sides carry labels).
    if plan.is_labeled and graph.is_labeled:
        mask &= graph.labels[raw] == plan.labels[position]
    # Symmetry breaking: id must exceed every constrained earlier match.
    cons = plan.constraints[position]
    if cons:
        bound = path[cons[0]]
        for i in cons[1:]:
            if path[i] > bound:
                bound = path[i]
        mask &= raw > bound
    out = raw[mask]
    # Injectivity: drop vertices already matched along the path.  The prefix
    # has at most k-1 (~5) entries, so scalar exclusion beats np.isin.
    for i in range(position):
        v = path[i]
        if out.size and out[0] <= v <= out[-1]:
            out = out[out != v]
    if stmatch_removal:
        # STMatch performs the removal as an independent set-difference over
        # the whole candidate set — an extra round of set operations.
        cycles += cost.intersect_cost(raw.size, max(1, position))
    return out, cycles


def leaf_matches(
    graph: CSRGraph,
    plan: MatchingPlan,
    path: Sequence[int],
    raw: np.ndarray,
    cost: CostModel,
    stmatch_removal: bool = False,
) -> tuple[np.ndarray, int]:
    """Surviving candidates at the last position; ``(matches, cycles)``.

    At the deepest level every surviving candidate completes one valid
    match, so the warp handles them in bulk without per-candidate descent
    (all engines do this).  The cycle charge includes emitting each match.
    """
    position = plan.num_levels - 1
    filtered, cycles = filter_candidates(
        graph, plan, path, position, raw, cost, stmatch_removal
    )
    return filtered, cycles + int(filtered.size) * cost.emit_match


def leaf_count(
    graph: CSRGraph,
    plan: MatchingPlan,
    path: Sequence[int],
    raw: np.ndarray,
    cost: CostModel,
    stmatch_removal: bool = False,
) -> tuple[int, int]:
    """Count-only wrapper around :func:`leaf_matches`; ``(n, cycles)``."""
    filtered, cycles = leaf_matches(
        graph, plan, path, raw, cost, stmatch_removal
    )
    return int(filtered.size), cycles

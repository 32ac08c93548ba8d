"""Shard planning: deterministic partitions of the initial-task space.

A *shard* is a list of :data:`~repro.faults.recovery.WorkGroup` tuples —
the same ``(rows, width)`` representation the recovery snapshot machinery
uses — whose rows are a subset of the job's edge-filtered initial tasks.
Because every initial task roots an independent search subtree (the
paper's decomposition argument), any partition of the rows enumerates
every match exactly once; the planner's job is only to make the partition
*deterministic* (same inputs ⇒ same shards, across processes and hash
seeds) and *balanced* (so the slowest shard does not dominate).

Strategies
----------

``hash``
    Content-hash partitioning: row ``(v1, v2)`` goes to shard
    ``(v1 * P + v2) mod N`` with a fixed prime ``P``.  Stable under row
    reordering and across interpreter hash seeds (no salted ``hash()``),
    statistically balanced on large edge sets — the multi-process analogue
    of the paper's round-robin initial-edge split across GPUs.

``degree``
    Greedy work balancing: rows are weighted by the degree of their
    second endpoint (the immediate fanout of the subtree they root),
    sorted by weight, and assigned heaviest-first to the currently
    lightest shard.  Deterministic via stable sorts and index tie-breaks.

Both strategies then pre-split oversized shards: a shard whose estimated
weight exceeds ``split_factor ×`` the mean is re-split round-robin over
all shards through :func:`repro.faults.recovery.reshard_groups` — the
exact mechanism device failover already uses — mirroring how the
timeout-steal path breaks up straggler subtrees at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.faults.recovery import WorkGroup, pending_rows, reshard_groups
from repro.graph.csr import CSRGraph

#: Recognized partitioning strategies (see module docstring).
SHARD_STRATEGIES: tuple[str, ...] = ("hash", "degree")

#: Fixed mixing prime for the ``hash`` strategy — content-based, so the
#: partition is identical in every process regardless of PYTHONHASHSEED.
_HASH_PRIME = np.int64(1_000_003)


@dataclass
class ShardPlan:
    """A deterministic partition of one job's initial-task space."""

    num_shards: int
    strategy: str
    shards: list[list[WorkGroup]] = field(default_factory=list)
    """Per-shard work groups; ``shards[i]`` may be empty when there are
    fewer initial tasks than shards."""
    weights: list[int] = field(default_factory=list)
    """Estimated work (summed row weights) per shard, for balance checks
    and the scaling bench's imbalance report."""
    presplit_shards: int = 0
    """How many oversized shards were re-split through the reshard path."""

    @property
    def total_rows(self) -> int:
        return sum(pending_rows(s) for s in self.shards)

    def rows_per_shard(self) -> list[int]:
        return [pending_rows(s) for s in self.shards]

    def imbalance(self) -> float:
        """Max over mean shard weight (1.0 = perfectly balanced)."""
        live = [w for w in self.weights if w > 0]
        if not live:
            return 1.0
        mean = sum(live) / len(live)
        return max(live) / mean if mean else 1.0

    def describe(self) -> str:
        rows = self.rows_per_shard()
        return (
            f"shard plan: {self.num_shards} shards ({self.strategy}), "
            f"{self.total_rows} rows, per-shard {rows}, "
            f"imbalance {self.imbalance():.2f}, "
            f"{self.presplit_shards} pre-split"
        )


class ShardPlanner:
    """Partitions a job's initial tasks into ``num_shards`` shards.

    ``split_factor`` controls oversized-shard pre-splitting: any shard
    whose weight exceeds ``split_factor ×`` the mean shard weight is
    re-split round-robin over all shards (0 disables pre-splitting).
    """

    def __init__(
        self,
        num_shards: int,
        strategy: str = "hash",
        split_factor: float = 2.0,
    ) -> None:
        if num_shards < 1:
            raise ReproError(
                f"shard planner: num_shards must be >= 1, got {num_shards}"
            )
        if strategy not in SHARD_STRATEGIES:
            raise ReproError(
                f"unknown shard strategy {strategy!r}; "
                f"available: {', '.join(SHARD_STRATEGIES)}"
            )
        if split_factor < 0:
            raise ReproError("shard planner: split_factor must be >= 0")
        self.num_shards = int(num_shards)
        self.strategy = strategy
        self.split_factor = float(split_factor)

    # ------------------------------------------------------------------ #

    def plan(self, graph: CSRGraph, edges: np.ndarray | None = None) -> ShardPlan:
        """Partition ``edges`` (default: all directed edges of ``graph``).

        Rows keep width 2 — the per-shard engine applies the device-side
        edge filter itself, exactly as an unsharded run would, so the
        partition point is *before* filtering and no filter semantics
        change.
        """
        if edges is None:
            edges = graph.directed_edge_array()
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n = self.num_shards
        weights = graph.degrees[edges[:, 1]] + 1 if len(edges) else np.array([], dtype=np.int64)

        if self.strategy == "hash":
            assignment = self._assign_hash(edges)
        else:
            assignment = self._assign_degree(weights)

        shards: list[list[WorkGroup]] = [[] for _ in range(n)]
        shard_weights = [0] * n
        for s in range(n):
            mask = assignment == s
            part = edges[mask]
            if len(part):
                shards[s].append((part, 2))
                shard_weights[s] = int(weights[mask].sum())

        presplit = self._presplit_oversized(graph, shards, shard_weights)
        return ShardPlan(
            num_shards=n,
            strategy=self.strategy,
            shards=shards,
            weights=shard_weights,
            presplit_shards=presplit,
        )

    # ------------------------------------------------------------------ #

    def _assign_hash(self, edges: np.ndarray) -> np.ndarray:
        if not len(edges):
            return np.array([], dtype=np.int64)
        return (edges[:, 0] * _HASH_PRIME + edges[:, 1]) % self.num_shards

    def _assign_degree(self, weights: np.ndarray) -> np.ndarray:
        """Heaviest-first greedy assignment to the lightest shard.

        Stable: ``argsort(kind="stable")`` on negated weights plus a
        lowest-index tie-break on shard loads makes the assignment a pure
        function of the weight vector.
        """
        import heapq

        assignment = np.zeros(len(weights), dtype=np.int64)
        if not len(weights):
            return assignment
        order = np.argsort(-weights, kind="stable")
        heap = [(0, s) for s in range(self.num_shards)]
        heapq.heapify(heap)
        for i in order:
            load, s = heapq.heappop(heap)
            assignment[i] = s
            heapq.heappush(heap, (load + int(weights[i]), s))
        return assignment

    def _presplit_oversized(
        self,
        graph: CSRGraph,
        shards: list[list[WorkGroup]],
        shard_weights: list[int],
    ) -> int:
        """Re-split any shard heavier than ``split_factor ×`` the mean.

        The oversized shard's rows are distributed round-robin over *all*
        shards via :func:`reshard_groups` — the same prefix-decomposition
        rule device failover uses — and both row sets and weights are
        updated in place.  Returns how many shards were split.
        """
        n = self.num_shards
        if n < 2 or self.split_factor <= 0:
            return 0
        total = sum(shard_weights)
        if total <= 0:
            return 0
        threshold = self.split_factor * total / n
        split = 0
        for s in range(n):
            if shard_weights[s] <= threshold:
                continue
            groups, shards[s] = shards[s], []
            shard_weights[s] = 0
            split += 1
            # reshard_groups drops empty shards, which under round-robin are
            # always the trailing ones: sub-part t still belongs to shard t.
            for t, sub in enumerate(reshard_groups(groups, n)):
                shards[t].extend(sub)
                for rows, _w in sub:
                    shard_weights[t] += int(
                        (graph.degrees[rows[:, 1]] + 1).sum()
                    )
        return split

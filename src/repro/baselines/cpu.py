"""Serial CPU reference: recursive Ullmann backtracking (Algorithm 1).

This is a deliberately *independent* implementation — plain recursion over
Python sets, no shared code with the warp matcher beyond the compiled plan —
so it can serve as ground truth for every GPU engine's counts.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.config import RunContext, TDFSConfig
from repro.core.result import MatchResult
from repro.errors import UnsupportedError
from repro.graph.csr import CSRGraph
from repro.query.pattern import QueryGraph
from repro.query.plan import MatchingPlan, compile_plan


def cpu_count(
    graph: CSRGraph,
    plan: MatchingPlan,
    collect: Optional[list] = None,
    resume_groups: Optional[list] = None,
    collect_limit: int = 0,
) -> int:
    """Count matches of ``plan`` in ``graph`` by recursive backtracking.

    When ``collect`` is given, every full match (tuple of data vertices in
    order-position order) is appended to it — used by tests that verify the
    actual embeddings, not just the count.  ``collect_limit`` (when > 0)
    caps how many are recorded; counting always runs to completion.

    ``resume_groups`` switches to *resume mode* (the recovery layer's CPU
    fallback, see :mod:`repro.faults.recovery`): instead of enumerating
    from scratch, only the matches extending the given ``(rows, width)``
    prefix groups are counted.  Each row is re-validated position by
    position, which is idempotent for already-filtered prefixes and
    performs the initial edge filtering for raw edge rows.
    """
    k = plan.num_levels
    path = [0] * k
    labels = graph.labels
    degrees = graph.degrees
    count = 0

    def candidate_ok(v: int, pos: int) -> bool:
        if labels is not None and plan.is_labeled:
            if labels[v] != plan.labels[pos]:
                return False
        if degrees[v] < plan.degrees[pos]:
            return False
        for i in plan.constraints[pos]:
            if v <= path[i]:
                return False
        for i in range(pos):
            if path[i] == v:
                return False
        return True

    def enumerate_from(pos: int) -> None:
        nonlocal count
        back = plan.backward[pos]
        # Eq. (1): intersect the adjacency lists of the backward neighbors.
        cands = graph.neighbors(path[back[0]])
        for j in back[1:]:
            cands = np.intersect1d(
                cands, graph.neighbors(path[j]), assume_unique=True
            )
            if cands.size == 0:
                return
        for v in cands:
            v = int(v)
            if not candidate_ok(v, pos):
                continue
            path[pos] = v
            if pos == k - 1:
                count += 1
                if collect is not None and (
                    not collect_limit or len(collect) < collect_limit
                ):
                    collect.append(tuple(path))
            else:
                enumerate_from(pos + 1)

    if resume_groups is not None:
        for rows, width in resume_groups:
            w = int(width)
            for row in rows:
                ok = True
                for i in range(w):
                    v = int(row[i])
                    if not candidate_ok(v, i):
                        ok = False
                        break
                    path[i] = v
                if not ok:
                    continue
                if w >= k:
                    count += 1
                    if collect is not None and (
                        not collect_limit or len(collect) < collect_limit
                    ):
                        collect.append(tuple(path))
                else:
                    enumerate_from(w)
        return count

    for v1 in range(graph.num_vertices):
        if not candidate_ok(v1, 0):
            continue
        path[0] = v1
        enumerate_from(1)
    return count


class CPUEngine:
    """Engine wrapper around :func:`cpu_count` (elapsed time not modeled)."""

    name = "cpu"

    def __init__(
        self, config: Optional[TDFSConfig] = None, ctx: Optional[RunContext] = None
    ) -> None:
        # ``ctx`` is accepted for registry parity; this engine wires nothing.
        self.config = config or TDFSConfig()

    def compile(
        self,
        query: Union[QueryGraph, MatchingPlan],
        graph: Optional[CSRGraph] = None,
    ) -> MatchingPlan:
        """Compile ``query`` exactly as :meth:`run` would (reuse is a
        device-side optimization; the serial reference never applies it).
        ``graph`` is accepted for interface parity with
        :meth:`TDFSEngine.compile`; the reference ignores the planner."""
        if isinstance(query, MatchingPlan):
            return query
        return compile_plan(
            query,
            enable_symmetry=self.config.enable_symmetry,
            enable_reuse=False,
        )

    def run(
        self,
        graph: CSRGraph,
        query: Union[QueryGraph, MatchingPlan],
        collect_matches: int = 0,
    ) -> MatchResult:
        """Count (and, with ``collect_matches > 0``, enumerate up to that
        many embeddings indexed by query vertex id, like the device
        engines) by serial backtracking."""
        plan = self.compile(query)
        if plan.is_labeled and not graph.is_labeled:
            raise UnsupportedError("labeled query on an unlabeled data graph")
        sink: Optional[list] = [] if collect_matches else None
        count = cpu_count(graph, plan, collect=sink, collect_limit=collect_matches)
        result = MatchResult(
            engine=self.name,
            graph_name=graph.name,
            query_name=plan.query.name,
            count=count,
            elapsed_cycles=0,
            aut_size=plan.aut_size,
            symmetry_enabled=plan.symmetry_enabled,
        )
        if sink is not None:
            result.matches = plan.by_query_vertex(sink)
        return result

"""Compiled matching plans.

``compile_plan`` is the host-side preprocessing step every engine shares: it
fixes the matching order ``π``, backward-neighbor positions ``B^π``,
symmetry-breaking constraints, and the intersection-reuse table, and caches
per-position label/degree requirements so the device code only does array
work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import PlanError
from repro.query.ordering import backward_neighbors, choose_matching_order, validate_order
from repro.query.pattern import QueryGraph
from repro.query.reuse import ReuseEntry, compute_reuse_plan
from repro.query.symmetry import automorphism_group_size, symmetry_breaking_constraints


@dataclass(frozen=True)
class MatchingPlan:
    """Everything an engine needs to run one query.

    Attributes
    ----------
    query:
        The query pattern.
    order:
        Matching order ``π`` — ``order[i]`` is the query vertex matched at
        search level ``i + 1`` (the paper's levels are 1-based).
    backward:
        ``backward[i]``: earlier order *positions* adjacent to position ``i``.
    constraints:
        ``constraints[i]``: earlier positions whose matched data vertex must
        have a smaller id (symmetry breaking); empty lists when disabled.
    reuse:
        Per-position :class:`~repro.query.reuse.ReuseEntry`; when reuse is
        disabled every entry recomputes from scratch.
    labels:
        ``labels[i]``: required data-vertex label at position ``i`` (0 when
        the query is unlabeled).
    degrees:
        ``degrees[i]``: degree of the query vertex at position ``i`` — used
        for degree-based candidate filtering.
    aut_size:
        ``|Aut(G_Q)|`` (label-aware).
    symmetry_enabled, reuse_enabled:
        Which optimizations are active in this plan.
    """

    query: QueryGraph
    order: tuple[int, ...]
    backward: tuple[tuple[int, ...], ...]
    constraints: tuple[tuple[int, ...], ...]
    reuse: tuple[ReuseEntry, ...]
    labels: tuple[int, ...]
    degrees: tuple[int, ...]
    aut_size: int
    symmetry_enabled: bool = True
    reuse_enabled: bool = True
    _pos_of: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_levels(self) -> int:
        """``k = |V_Q|`` — the depth of the state space tree."""
        return len(self.order)

    @property
    def is_labeled(self) -> bool:
        return self.query.is_labeled

    def position_of(self, query_vertex: int) -> int:
        """Order position of a query vertex."""
        return self._pos_of[query_vertex]

    def by_query_vertex(self, collected: list) -> list:
        """Order-position match tuples → tuples indexed by query vertex id."""
        pos = [self._pos_of[u] for u in range(self.num_levels)]
        return [tuple(m[p] for p in pos) for m in collected]

    def describe(self) -> str:
        """Multi-line human-readable plan summary (for examples/docs)."""
        lines = [f"plan for {self.query.name}: order={list(self.order)}"]
        for i in range(self.num_levels):
            parts = [f"  level {i + 1}: u={self.order[i]}"]
            parts.append(f"backward={list(self.backward[i])}")
            if self.constraints[i]:
                parts.append(f"id>positions{list(self.constraints[i])}")
            if self.reuse[i].reuses:
                parts.append(
                    f"reuse level {self.reuse[i].source + 1} "
                    f"+ {list(self.reuse[i].remaining)}"
                )
            lines.append(" ".join(parts))
        lines.append(f"  |Aut| = {self.aut_size}")
        return "\n".join(lines)


def compile_plan(
    query: QueryGraph,
    order: Optional[Sequence[int]] = None,
    enable_symmetry: bool = True,
    enable_reuse: bool = True,
) -> MatchingPlan:
    """Compile a :class:`MatchingPlan` for ``query``.

    Parameters
    ----------
    query:
        The pattern to match.
    order:
        Optional explicit matching order (validated); default chooses the
        greedy connected order of
        :func:`~repro.query.ordering.choose_matching_order`.
    enable_symmetry:
        Generate symmetry-breaking constraints (EGSM runs with this off,
        which is why it recounts every instance ``|Aut|`` times).
    enable_reuse:
        Generate the intersection-reuse table.
    """
    if query.num_vertices < 2:
        raise PlanError("matching needs a query with at least 2 vertices")
    if order is None:
        chosen = choose_matching_order(query)
    else:
        chosen = [int(x) for x in order]
        validate_order(query, chosen)
    back = backward_neighbors(query, chosen)
    if enable_symmetry:
        cond = symmetry_breaking_constraints(query, chosen)
    else:
        cond = [[] for _ in chosen]
    if enable_reuse:
        reuse = compute_reuse_plan(query, chosen)
    else:
        reuse = [ReuseEntry(source=-1, remaining=tuple(b)) for b in back]
    plan = MatchingPlan(
        query=query,
        order=tuple(chosen),
        backward=tuple(tuple(b) for b in back),
        constraints=tuple(tuple(c) for c in cond),
        reuse=tuple(reuse),
        labels=tuple(query.label(u) for u in chosen),
        degrees=tuple(query.degree(u) for u in chosen),
        aut_size=automorphism_group_size(query),
        symmetry_enabled=enable_symmetry,
        reuse_enabled=enable_reuse,
    )
    plan._pos_of.update({u: i for i, u in enumerate(chosen)})
    return plan

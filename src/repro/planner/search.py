"""Cost-based plan search.

Turns order selection into an optimization problem: enumerate connected
matching orders with a beam search, score prefixes with the independence
cardinality model, then fully compile the surviving orders and re-score
them with reuse- and symmetry-aware virtual-cycle costs (optionally
refined by the seeded sampling estimator).  The result is a ranked
:class:`PlanPortfolio` whose members are all *valid* plans — any of them
produces the same match count — differing only in predicted cost.

The legacy greedy order is always a portfolio candidate, so the portfolio
minimum can never be worse than the paper's default heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.gpusim.costmodel import WARP_SIZE, CostModel, DEFAULT_COST_MODEL
from repro.graph.csr import CSRGraph
from repro.planner.estimator import (
    CardinalityEstimator,
    LevelEstimate,
    refine_estimates,
    sample_branch_factors,
)
from repro.planner.stats import DEFAULT_WEDGE_SAMPLES, GraphProfile, profile_graph
from repro.query.ordering import choose_matching_order
from repro.query.pattern import QueryGraph
from repro.query.plan import MatchingPlan, compile_plan


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of the cost-based planner.

    All sampling is seeded, so a fixed config yields identical portfolios
    on every run and process.
    """

    beam_width: int = 16
    """Order prefixes kept per level of the beam search."""
    portfolio_size: int = 3
    """Ranked plans returned (the legacy greedy order is always evaluated
    alongside the searched ones)."""
    samples: int = DEFAULT_WEDGE_SAMPLES
    """Wedge samples for the graph profile's closure-rate estimate."""
    descents: int = 24
    """Random descents of the sampling refiner (0 disables refinement)."""
    seed: int = 0
    """Seed for profile sampling and descent randomness."""

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ReproError("planner: beam_width must be >= 1")
        if self.portfolio_size < 1:
            raise ReproError("planner: portfolio_size must be >= 1")
        if self.samples < 0 or self.descents < 0:
            raise ReproError("planner: samples and descents must be >= 0")


DEFAULT_PLANNER_CONFIG = PlannerConfig()


@dataclass(frozen=True)
class PlanChoice:
    """One ranked portfolio member with its predicted cost breakdown."""

    plan: MatchingPlan
    est_cycles: float
    est_matches: float
    breakdown: dict[str, float] = field(compare=False)
    """Predicted cycles by component (intersect/page/filter/emit/...)."""
    source: str = "beam"
    """How the order was found: ``"beam"`` or ``"greedy"``."""

    @property
    def order(self) -> tuple[int, ...]:
        return self.plan.order


@dataclass(frozen=True)
class PlanPortfolio:
    """Ranked candidate plans for one ``(graph, query)`` pair."""

    query_name: str
    graph_name: str
    choices: tuple[PlanChoice, ...]
    profile: GraphProfile = field(compare=False)

    @property
    def best(self) -> PlanChoice:
        return self.choices[0]

    def describe(self) -> str:
        """Human-readable ranking table (used by ``repro plan --explain``)."""
        lines = [
            f"portfolio for {self.query_name} on {self.graph_name} "
            f"({len(self.choices)} plans)"
        ]
        for rank, c in enumerate(self.choices, start=1):
            lines.append(
                f"  #{rank} order={list(c.order)} source={c.source} "
                f"est_cycles={c.est_cycles:,.0f} est_matches={c.est_matches:,.1f}"
            )
            parts = ", ".join(
                f"{name}={cycles:,.0f}"
                for name, cycles in sorted(c.breakdown.items())
                if cycles > 0
            )
            lines.append(f"      breakdown: {parts}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Cost scoring
# ---------------------------------------------------------------------- #


def _batches(size: float) -> float:
    return max(size, 1.0) / WARP_SIZE + 1.0


def score_plan(
    plan: MatchingPlan,
    levels: list[LevelEstimate],
    cost: CostModel,
) -> tuple[float, dict[str, float]]:
    """Predicted virtual cycles for running ``plan``, given per-level
    estimates.

    Mirrors the simulated device's charge structure: per parent partial
    match at level ``i-1``, the warp builds the candidate set of level
    ``i`` (intersections per extra backward neighbor, or a bulk copy when
    the reuse table provides a seed), pays a page-table check per stack
    batch, scans candidates applying per-element checks, and at the last
    level emits matches.
    """
    nbr = levels[1].set_size if len(levels) > 1 else levels[0].set_size
    intersect = 0.0
    page = 0.0
    filt = 0.0
    copy = 0.0
    step = 0.0
    emit = 0.0
    k = plan.num_levels
    for i in range(1, k):
        parents = levels[i - 1].cardinality
        if parents <= 0:
            continue
        entry = plan.reuse[i]
        cur = nbr
        gen = 0.0
        if entry.reuses:
            seed_size = levels[entry.source].set_size
            gen += cost.copy_cost(int(max(seed_size, 1)))
            copy += parents * cost.copy_cost(int(max(seed_size, 1)))
            cur = max(seed_size, 1.0)
            extra = len(entry.remaining)
        else:
            extra = len(plan.backward[i]) - 1
        for _ in range(max(extra, 0)):
            intersect += parents * cost.intersect_cost(
                int(max(cur, 1)), int(max(nbr, 1))
            )
            cur = max(cur * (levels[i].set_size / max(nbr, 1e-9)), 1e-9)
        set_size = levels[i].set_size
        page += parents * cost.page_check * _batches(set_size)
        filt += parents * cost.check_candidate * max(set_size, 1.0)
        step += parents * cost.step
        if i == k - 1:
            emit += levels[i].cardinality * cost.emit_match
    breakdown = {
        "intersect": intersect,
        "page_check": page,
        "filter": filt,
        "reuse_copy": copy,
        "step": step,
        "emit": emit,
    }
    total = sum(breakdown.values()) + levels[0].cardinality * cost.check_candidate
    breakdown["root_scan"] = levels[0].cardinality * cost.check_candidate
    return total, breakdown


# ---------------------------------------------------------------------- #
# Beam search over connected orders
# ---------------------------------------------------------------------- #


def _beam_orders(
    query: QueryGraph,
    estimator: CardinalityEstimator,
    beam_width: int,
    keep: int,
) -> list[tuple[int, ...]]:
    """Enumerate connected orders, keeping the ``beam_width`` cheapest
    prefixes per level under a cardinality-weighted score.

    The prefix score is the running sum of estimated partial-match counts
    — a cheap proxy for work that needs no plan compilation.  Ties break
    deterministically on the order tuple itself.
    """
    p = estimator.profile
    k = query.num_vertices
    closure = estimator._closure()
    nbr = estimator._neighbor_size()

    def root_card(u: int) -> float:
        return max(p.candidates_with(query.label(u), query.degree(u)), 0.0)

    def branch(u: int, placed: tuple[int, ...]) -> float:
        b = sum(1 for v in query.neighbors(u) if v in placed)
        set_size = nbr * closure ** max(b - 1, 0)
        if p.is_labeled:
            sel = p.freq(query.label(u)) * p.degree_survival(
                query.degree(u), query.label(u)
            )
        else:
            sel = p.degree_survival(query.degree(u), -1)
        return set_size * sel

    # state: (score, order, card)
    beam: list[tuple[float, tuple[int, ...], float]] = []
    for u in range(k):
        card = root_card(u)
        beam.append((card, (u,), card))
    beam.sort(key=lambda s: (s[0], s[1]))
    beam = beam[: max(beam_width, keep)]

    for _ in range(1, k):
        nxt: list[tuple[float, tuple[int, ...], float]] = []
        for score, order, card in beam:
            placed = set(order)
            for u in range(k):
                if u in placed:
                    continue
                if not any(v in placed for v in query.neighbors(u)):
                    continue
                new_card = card * branch(u, order)
                nxt.append((score + new_card, order + (u,), new_card))
        if not nxt:
            break
        nxt.sort(key=lambda s: (s[0], s[1]))
        beam = nxt[: max(beam_width, keep)]

    return [order for _, order, _ in beam if len(order) == k]


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def plan_query(
    graph: CSRGraph,
    query: QueryGraph,
    planner: PlannerConfig = DEFAULT_PLANNER_CONFIG,
    cost: CostModel = DEFAULT_COST_MODEL,
    enable_symmetry: bool = True,
    enable_reuse: bool = True,
    parallelism: int = 1,
) -> PlanPortfolio:
    """Search for the cheapest matching orders of ``query`` on ``graph``.

    Returns a :class:`PlanPortfolio` ranked by predicted virtual cycles.
    Every member is compiled with the same symmetry/reuse flags, so all of
    them yield identical match counts; only the traversal cost differs.

    ``parallelism`` divides the predicted *work* into predicted *wall*
    cycles (the simulated device spreads the search tree over its resident
    warps); it never changes the ranking, only the scale — pass the
    engine's warp count to make ``est_cycles`` comparable to
    ``MatchResult.elapsed_cycles``.
    """
    if query.num_vertices < 2:
        # Same contract as compile_plan: matching needs >= 2 vertices.
        compile_plan(query)
    profile = profile_graph(graph, seed=planner.seed, samples=planner.samples)
    estimator = CardinalityEstimator(profile)

    candidates = {tuple(choose_matching_order(query)): "greedy"}
    keep = max(planner.portfolio_size * 4, planner.portfolio_size)
    for order in _beam_orders(query, estimator, planner.beam_width, keep):
        candidates.setdefault(order, "beam")

    scored: list[PlanChoice] = []
    for order, source in candidates.items():
        plan = compile_plan(
            query,
            order=list(order),
            enable_symmetry=enable_symmetry,
            enable_reuse=enable_reuse,
        )
        levels = estimator.level_estimates(plan)
        if planner.descents > 0:
            sampled = sample_branch_factors(
                graph, plan, planner.descents, planner.seed
            )
            levels = refine_estimates(levels, sampled)
        cycles, breakdown = score_plan(plan, levels, cost)
        if parallelism > 1:
            cycles /= parallelism
            breakdown = {k: v / parallelism for k, v in breakdown.items()}
        scored.append(
            PlanChoice(
                plan=plan,
                est_cycles=cycles,
                est_matches=levels[-1].cardinality,
                breakdown=breakdown,
                source=source,
            )
        )

    # Rank by predicted cycles; deterministic tie-breaks (greedy first,
    # then lexicographic order) keep portfolios process-stable.
    scored.sort(key=lambda c: (c.est_cycles, c.source != "greedy", c.order))
    return PlanPortfolio(
        query_name=query.name,
        graph_name=graph.name,
        choices=tuple(scored[: planner.portfolio_size]),
        profile=profile,
    )

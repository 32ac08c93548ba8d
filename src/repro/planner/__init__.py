"""repro.planner — cost-based, feedback-driven query planning.

The subsystem has four layers (DESIGN.md §11):

* :mod:`repro.planner.stats` — per-graph statistics (:class:`GraphProfile`),
  computed once and cached on the immutable :class:`~repro.graph.csr.CSRGraph`;
* :mod:`repro.planner.estimator` — per-level cardinality estimation
  (closed-form independence model plus a seeded sampling refiner);
* :mod:`repro.planner.search` — beam search over connected matching
  orders, scored in :class:`~repro.gpusim.costmodel.CostModel` virtual
  cycles with reuse- and symmetry-aware discounts, producing a ranked
  :class:`PlanPortfolio`;
* :mod:`repro.planner.feedback` — a :class:`PlanFeedback`, the serving
  layer's plan-cache entry of a planned key: a portfolio and the observed
  cycles/errors of its members, which promote or demote them.

Switched on via ``TDFSConfig.planner``; off (the default) preserves the
legacy greedy planner bit-for-bit.
"""

from repro.planner.estimator import (
    CardinalityEstimator,
    LevelEstimate,
    refine_estimates,
    sample_branch_factors,
)
from repro.planner.feedback import PlanFeedback, PlanObservation
from repro.planner.search import (
    DEFAULT_PLANNER_CONFIG,
    PlanChoice,
    PlannerConfig,
    PlanPortfolio,
    plan_query,
    score_plan,
)
from repro.planner.stats import GraphProfile, compute_profile, profile_graph

__all__ = [
    "CardinalityEstimator",
    "DEFAULT_PLANNER_CONFIG",
    "GraphProfile",
    "LevelEstimate",
    "PlanChoice",
    "PlanFeedback",
    "PlanObservation",
    "PlannerConfig",
    "PlanPortfolio",
    "compute_profile",
    "plan_query",
    "profile_graph",
    "refine_estimates",
    "sample_branch_factors",
    "score_plan",
]

"""Runtime feedback for the planner: observed plan performance.

A :class:`PlanFeedback` is the plan-cache entry of one planned key — one
query under one engine and config on one graph version (see
:func:`repro.serve.cache.plan_key`).  It holds the cost-ranked portfolio
and the observations of its own members' runs (virtual cycles, engine
errors), and answers one question: *which member should run next?*  Its
observations live and die with the entry: a version bump strands it with
the key, and another engine's or config's runs land in another entry.

Promotion policy: orders with recorded runs are compared by mean observed
cycles (same unit as the estimator's predicted cycles, so unobserved
orders compete on their estimates); orders that produced engine errors
are demoted behind everything else.  This converges to the truly best
member after one observation each.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.planner.search import PlanChoice, PlanPortfolio


@dataclass
class PlanObservation:
    """Aggregated runtime observations for one plan order."""

    runs: int = 0
    total_cycles: float = 0.0
    errors: int = 0

    @property
    def avg_cycles(self) -> float:
        return self.total_cycles / self.runs if self.runs else 0.0


class PlanFeedback:
    """A portfolio and the observed runs of its members (thread-safe)."""

    def __init__(self, portfolio: PlanPortfolio) -> None:
        self.portfolio = portfolio
        self.observations: dict[tuple[int, ...], PlanObservation] = {}
        self._lock = threading.Lock()

    def record(self, choice: PlanChoice, cycles: float, error: bool = False) -> bool:
        """Record one run of ``choice``; True when it changed the member
        :meth:`preferred` picks (a re-rank)."""
        with self._lock:
            before = self._preferred()
            obs = self.observations.setdefault(choice.order, PlanObservation())
            if error:
                obs.errors += 1
            else:
                obs.runs += 1
                obs.total_cycles += float(cycles)
            return self._preferred() is not before

    def preferred(self) -> PlanChoice:
        """Pick the portfolio member to run next.

        Each member is ranked by ``(error_demotion, expected_cycles)``
        where expected cycles are the observed mean when available and the
        estimator's prediction otherwise.  Ties break on portfolio rank,
        which keeps the selection deterministic.
        """
        with self._lock:
            return self._preferred()

    def _preferred(self) -> PlanChoice:
        def rank(item: tuple[int, PlanChoice]) -> tuple[int, float, int]:
            idx, choice = item
            obs = self.observations.get(choice.order)
            if obs is None:
                return (0, choice.est_cycles, idx)
            demote = 1 if obs.errors > obs.runs else 0
            expected = obs.avg_cycles if obs.runs else choice.est_cycles
            return (demote, expected, idx)

        return min(enumerate(self.portfolio.choices), key=rank)[1]

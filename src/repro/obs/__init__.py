"""repro.obs — observability: typed metrics, tracing, the ops layer.

A run's statistics live in ``MatchResult.metrics`` (a flat dict, merged
only by :func:`fold_metrics`); a service's in one ``Registry``.  See
DESIGN.md §8 for the store, the fold rule, the snapshot and the checked
name catalogue (``tests/golden/telemetry.tsv``).

The usual entry point is :class:`Observability`, a bundle of one
:class:`Registry` and one :class:`Tracer` that travels through a run:

    obs = Observability(tracing=True, sample_every=10)
    result = match(graph, query, config=cfg, ctx=RunContext(obs=obs))
    print(obs.tracer.summary())
    json.dump(to_chrome(obs.tracer.spans()), open("trace.json", "w"))

Tracing is off by default (``NULL_TRACER``).  A supplied bundle's registry
*accumulates*: each finished run's ``result.metrics`` is folded into it
(:meth:`Registry.fold`), while ``result.metrics`` stays that run alone.
"""

from __future__ import annotations

from typing import Optional

from .ops import (
    FlightRecorder,
    INCIDENT_FORMAT,
    load_incident,
    make_incident,
    ops_tracer,
    render_incident,
    write_incident,
)
from .registry import Counter, Gauge, Histogram, Registry, fold_metrics
from .slo import SLO, OutcomeWindow, SLOStatus, SLOTracker
from .tracer import NULL_TRACER, TraceContext, Tracer, make_span, to_chrome
from .tracer import ascii_timeline, straggler_tail, utilization

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "fold_metrics",
    "TraceContext",
    "Tracer",
    "NULL_TRACER",
    "make_span",
    "to_chrome",
    "utilization",
    "straggler_tail",
    "ascii_timeline",
    "Observability",
    # -- ops layer (host ring + flight recorder + incidents) ------------ #
    "FlightRecorder",
    "INCIDENT_FORMAT",
    "ops_tracer",
    "make_incident",
    "write_incident",
    "load_incident",
    "render_incident",
    # -- SLOs ------------------------------------------------------------ #
    "SLO",
    "SLOStatus",
    "SLOTracker",
    "OutcomeWindow",
]


class Observability:
    """A registry + tracer pair scoped to one run (or one process).

    ``tracing=False`` (the default) installs :data:`NULL_TRACER`, so code
    holding ``obs.tracer`` pays one ``enabled`` check per span site and
    nothing is allocated.
    """

    def __init__(
        self,
        tracing: bool = False,
        sample_every: int = 1,
        max_spans: int = 200_000,
        threaded: bool = False,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else Registry(threaded=threaded)
        if tracer is None and tracing:
            tracer = Tracer(tracing, sample_every, max_spans, threaded)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def flat(self) -> dict:
        return self.registry.flat()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Observability(tracing={self.tracing}, "
            f"instruments={len(self.registry)}, spans={len(self.tracer)})"
        )

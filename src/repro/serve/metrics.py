"""Service metrics: the instruments of one :class:`~repro.serve.MatchService`.

Every instrument lives in a :class:`repro.obs.Registry` built with
``threaded=True``.  Callers move the instruments directly
(``metrics.queue_depth.set(n)``, ``metrics.batch_size.observe(n)``), except at
a request's ending: :meth:`ServeMetrics.settle` moves its counters,
``latency_ms`` and the outcome window together.  Everything is read back
through one :meth:`ServeMetrics.snapshot`, which
:meth:`MatchService.snapshot` extends and
:func:`repro.obs.console.render_top` prints.

Latencies go into obs histograms in milliseconds; percentiles stay exact
over a bounded sliding window of recent observations, so a long-lived
service reports *recent* latency, not all-time latency.  Each window,
like the outcome window, is a typed
:class:`~repro.obs.registry.TimeRing` with a fixed cap: a settled request
holds 24 bytes of the outcome window and 16 of each timed histogram, and
no Python object.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs import Counter, OutcomeWindow, Registry

#: Counter names every snapshot reports (0 until their event occurs), so
#: a reader can index ``snapshot()["counters"]`` without guarding.
COUNTERS = (
    "submitted",
    "completed",
    "errors",
    "shed",
    "rejected",
    "result_cache_hits",
    "plan_compiles",
    "deadline_expired",
    "deadline_missed",
    "degraded",
    "graph_updates",
    # -- dynamic deltas (repro.dynamic) --------------------------------- #
    "delta_requests",
    "delta_incremental",
    "delta_fallbacks",
    "delta_gained",
    "delta_lost",
    # -- planner feedback (repro.planner) ------------------------------- #
    "planner_feedback",
    "plan_reranks",
    # -- supervision (repro.serve.resilience) -------------------------- #
    "supervisor_restarts",
    "worker_crashes",
    "worker_stalls",
    "redeliveries",
    "quarantined",
    "poisoned_rejected",
    "breaker_opens",
    "breaker_rejected",
    "checkpoints",
    "resumed",
    "stranded",
)

#: Registry namespace for every serve instrument.
_PREFIX = "serve."


class _Counters(dict):
    """Serve counters by unprefixed name, each created in the registry on
    first use and then found by one dict lookup."""

    def __init__(self, registry: Registry) -> None:
        super().__init__()
        self.registry = registry

    def __missing__(self, name: str) -> Counter:
        counter = self[name] = self.registry.counter(_PREFIX + name)
        return counter


class ServeMetrics:
    """Counters + histograms for one :class:`~repro.serve.MatchService`."""

    def __init__(
        self,
        latency_window: int = 16384,
        registry: Optional[Registry] = None,
        window_s: Optional[float] = 300.0,
        clock=None,
    ) -> None:
        self.registry = registry if registry is not None else Registry(threaded=True)
        self._clock = clock if clock is not None else time.monotonic
        self.latency_ms = self.registry.histogram(
            _PREFIX + "latency_ms",
            window=latency_window,
            max_age_s=window_s,
            clock=clock,
        )
        """End-to-end wall latency (submit -> response) per completed
        request.  Percentiles rotate by *time* (``window_s``) as well as by
        count, so an idle service's p99 decays instead of pinning to the
        last burst."""
        self.queue_ms = self.registry.histogram(
            _PREFIX + "queue_wait_ms",
            window=latency_window,
            max_age_s=window_s,
            clock=clock,
        )
        """Admission-queue wait per executed request."""
        self.batch_size = self.registry.histogram(_PREFIX + "batch_size")
        """Requests per micro-batch."""
        self.queue_depth = self.registry.gauge(_PREFIX + "queue_depth")
        self.checkpoint_age_ms = self.registry.histogram(_PREFIX + "checkpoint_age_ms")
        """Age of the checkpoint a resumed run continued from (how much
        progress a crash could cost at the configured cadence)."""
        self.breaker_open = self.registry.gauge(_PREFIX + "breaker_open")
        self.pool_size = self.registry.gauge(_PREFIX + "pool_size")
        self.plan_error = self.registry.histogram(_PREFIX + "planner_est_error")
        """Relative estimator-vs-actual cycle error ``|est - actual| / actual``
        per planner-fed run."""
        self.outcomes = OutcomeWindow(
            max_age_s=max(window_s or 0.0, 3600.0),
            clock=self._clock,
            lock=self.registry.lock,
        )
        """Per-request (latency, error) outcome stream over a sliding time
        window — the ground truth :class:`repro.obs.SLOTracker` evaluates
        burn rates against, kept here so gauges and counts reconcile
        exactly (same clock, same stream, same lock).  Its cap is the
        window's default, 65 536 outcomes."""
        self._started = time.monotonic()
        self._counters = _Counters(self.registry)
        self._lock = self.registry.lock

    # ------------------------------------------------------------------ #

    def incr(self, name: str, n: int = 1) -> None:
        self._counters[name].inc(n)

    def settle(
        self,
        total_ms: float,
        response=None,
        kind: Optional[str] = None,
        submitted: bool = False,
    ) -> None:
        """Close one request's books, in one acquisition of the registry
        lock and at one clock reading.  A :class:`~repro.serve.MatchResponse`
        counts as completed (and, by its flags, as an error, a result-cache
        hit, degraded) and lands in ``latency_ms``; without one, the
        admitted request was turned away as ``kind`` (``"shed"`` /
        ``"rejected"``).  Either way the outcome window records it, as an
        error whenever ``kind`` is set.  ``submitted`` also counts the
        submission, for a request that settles inside ``submit``.  The
        clock reading is the time of both ring writes, so their times
        never decrease."""
        counters = self._counters
        with self._lock:
            now = self._clock()
            if submitted:
                counters["submitted"]._inc()
            if response is None:
                counters[kind]._inc()
            else:
                counters["completed"]._inc()
                if response.error is not None and response.error != "DEADLINE":
                    counters["errors"]._inc()
                if response.result_cache_hit:
                    counters["result_cache_hits"]._inc()
                if response.degraded:
                    counters["degraded"]._inc()
                self.latency_ms._observe(total_ms, now)
            self.outcomes._record(now, total_ms, kind is not None)

    def get(self, name: str) -> int:
        counter = self.registry.get(_PREFIX + name)
        return counter.value if counter is not None else 0

    # ------------------------------------------------------------------ #

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    @property
    def qps(self) -> float:
        """Completed requests per wall second since service start."""
        uptime = self.uptime_s
        if uptime <= 0:
            return 0.0
        return self.get("completed") / uptime

    def _counter_values(self) -> dict[str, int]:
        """Every serve counter, prefix stripped, known names defaulted."""
        values = {name: 0 for name in COUNTERS}
        for inst in self.registry:
            if inst.kind == "counter" and inst.name.startswith(_PREFIX):
                values[inst.name[len(_PREFIX) :]] = inst.value
        return values

    def snapshot(self) -> dict:
        """All metrics as one JSON-compatible dict."""
        counters = self._counter_values()
        total_60, _, _ = self.outcomes.counts(60.0)
        return {
            "uptime_s": round(self.uptime_s, 3),
            "qps": round(self.qps, 2),
            "qps_60s": round(total_60 / 60.0, 3),
            "counters": counters,
            "queue": {
                "depth": self.queue_depth.value,
                "peak_depth": self.queue_depth.peak,
            },
            "breaker_open": self.breaker_open.value,
            "pool_size": self.pool_size.value,
            "latency_ms": self.latency_ms.snapshot(),
            "queue_wait_ms": self.queue_ms.snapshot(),
            "batch_size": self.batch_size.snapshot(),
            "checkpoint_age_ms": self.checkpoint_age_ms.snapshot(),
            "planner_est_error": self.plan_error.snapshot(),
        }

"""Service metrics, now published through the shared obs registry.

:class:`ServeMetrics` keeps its original API (``incr``/``get``/
``observe_*``/``snapshot``/``render``) but every instrument lives in a
:class:`repro.obs.Registry` built with ``threaded=True`` — the same
substrate the engines publish into — so a serve deployment exports one
consistent schema (and can dump it as influx line protocol via
:meth:`ServeMetrics.line_protocol`).

Latencies go into obs histograms with millisecond buckets; percentiles
stay exact over a bounded sliding window of recent observations, so a
long-lived service reports *recent* latency, not all-time latency.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs import Counter, LineProtocolSink, OutcomeWindow, Registry

#: Fixed bucket boundaries for latency histograms (milliseconds).
LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Fixed bucket boundaries for batch-size histograms.
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Bucket boundaries for the planner's relative estimator error
#: ``|est - actual| / actual`` (0.1 = within 10 %, 10 = off by 10×).
PLAN_ERROR_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 100.0)


#: Counter names every snapshot reports (missing ones render as 0), so the
#: text report is stable regardless of which events have occurred yet.
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
    "batches",
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
    "drains",
)

#: Registry namespace for every serve instrument.
_PREFIX = "serve."


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
        self.window_s = window_s
        self._clock = clock if clock is not None else time.monotonic
        self.latency_ms = self.registry.histogram(
            _PREFIX + "latency_ms",
            buckets=LATENCY_BUCKETS_MS,
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
            buckets=LATENCY_BUCKETS_MS,
            window=latency_window,
            max_age_s=window_s,
            clock=clock,
        )
        """Admission-queue wait per executed request."""
        self.batch_size = self.registry.histogram(
            _PREFIX + "batch_size", buckets=BATCH_BUCKETS, window=4096
        )
        """Requests per micro-batch."""
        self._depth = self.registry.gauge(_PREFIX + "queue_depth")
        self.checkpoint_age_ms = self.registry.histogram(
            _PREFIX + "checkpoint_age_ms",
            buckets=LATENCY_BUCKETS_MS,
            window=4096,
        )
        """Age of the checkpoint a resumed run continued from (how much
        progress a crash could cost at the configured cadence)."""
        self._breaker_open = self.registry.gauge(_PREFIX + "breaker_open")
        self._pool_size = self.registry.gauge(_PREFIX + "pool_size")
        self.plan_error = self.registry.histogram(
            _PREFIX + "planner_est_error",
            buckets=PLAN_ERROR_BUCKETS,
            window=4096,
        )
        """Relative estimator-vs-actual cycle error per planner-fed run."""
        self.outcomes = OutcomeWindow(
            max_age_s=max(window_s or 0.0, 3600.0), clock=self._clock
        )
        """Per-request (latency, error) outcome stream over a sliding time
        window — the ground truth :class:`repro.obs.SLOTracker` evaluates
        burn rates against, kept here so gauges and counts reconcile
        exactly (same clock, same stream)."""
        self._started = time.monotonic()
        self._counters: dict[str, Counter] = {}  # by unprefixed name, resolved once

    # ------------------------------------------------------------------ #

    def incr(self, name: str, n: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter(_PREFIX + name)
        counter.inc(n)

    def get(self, name: str) -> int:
        counter = self.registry.get(_PREFIX + name)
        return counter.value if counter is not None else 0

    def observe_latency(self, ms: float) -> None:
        self.latency_ms.observe(ms)

    def observe_queue_wait(self, ms: float) -> None:
        self.queue_ms.observe(ms)

    def observe_batch(self, size: int) -> None:
        self.incr("batches")
        self.batch_size.observe(size)

    def set_queue_depth(self, depth: int) -> None:
        self._depth.set(depth)

    def observe_checkpoint_age(self, ms: float) -> None:
        self.checkpoint_age_ms.observe(ms)

    def observe_plan_error(self, rel_error: float) -> None:
        self.plan_error.observe(rel_error)

    def set_breaker_open(self, n: int) -> None:
        self._breaker_open.set(n)

    def set_pool_size(self, n: int) -> None:
        self._pool_size.set(n)

    def record_outcome(
        self, latency_ms: float, error: bool = False, now=None
    ) -> None:
        """Feed one request outcome into the SLO/windowed-qps stream."""
        self.outcomes.record(latency_ms, error=error, now=now)

    def windowed_qps(self, window_s: float = 60.0, now=None) -> float:
        """Completed+errored requests per second over the last window."""
        if window_s <= 0:
            return 0.0
        total, _, _ = self.outcomes.counts(window_s, now=now)
        return total / window_s

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
        total_60, errors_60, _ = self.outcomes.counts(60.0)
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "qps": round(self.qps_locked(counters["completed"]), 2),
            "window_s": self.window_s,
            "windowed": {
                "requests_60s": total_60,
                "errors_60s": errors_60,
                "qps_60s": round(total_60 / 60.0, 3),
            },
            "counters": counters,
            "queue": {
                "depth": self._depth.value,
                "peak_depth": self._depth.peak,
            },
            "breaker_open": self._breaker_open.value,
            "pool_size": self._pool_size.value,
            "latency_ms": self.latency_ms.snapshot(),
            "queue_wait_ms": self.queue_ms.snapshot(),
            "batch_size": self.batch_size.snapshot(),
            "checkpoint_age_ms": self.checkpoint_age_ms.snapshot(),
            "planner_est_error": self.plan_error.snapshot(),
        }

    def qps_locked(self, completed: int) -> float:
        uptime = time.monotonic() - self._started
        return completed / uptime if uptime > 0 else 0.0

    def line_protocol(self, timestamp_ns: int = 0, tags: Optional[dict] = None) -> str:
        """Dump every serve series as influx-style line protocol."""
        sink = LineProtocolSink(measurement="repro_serve", tags=tags)
        sink.emit(self.registry, timestamp_ns=timestamp_ns)
        return sink.render()

    def render(self, cache_stats: Optional[dict] = None) -> str:
        """Human-readable metrics report (the ``repro serve`` output)."""
        s = self.snapshot()
        c = s["counters"]
        lat = s["latency_ms"]
        qw = s["queue_wait_ms"]
        bs = s["batch_size"]
        lines = ["=== repro.serve metrics ==="]
        lines.append(f"uptime           : {s['uptime_s']:.2f} s")
        lines.append(
            "requests         : "
            f"{c['submitted']} submitted, {c['completed']} completed, "
            f"{c['errors']} errors, {c['shed']} shed, {c['rejected']} rejected"
        )
        lines.append(f"throughput       : {s['qps']:.1f} req/s")
        lines.append(
            "latency ms       : "
            f"mean {lat['mean']:.3f}  p50 {lat['p50']:.3f}  "
            f"p95 {lat['p95']:.3f}  p99 {lat['p99']:.3f}  max {lat['max']:.3f}"
        )
        lines.append(
            "queue            : "
            f"depth {s['queue']['depth']}, peak {s['queue']['peak_depth']}, "
            f"wait mean {qw['mean']:.3f} ms"
        )
        lines.append(
            "batches          : "
            f"{c['batches']} (mean size {bs['mean']:.2f}, max {bs['max']:.0f})"
        )
        if cache_stats:
            for name in ("plan_cache", "result_cache"):
                cs = cache_stats.get(name)
                if cs is None:
                    continue
                lines.append(
                    f"{name.replace('_', ' '):<17}: "
                    f"{cs['hits']} hits / {cs['misses']} misses "
                    f"({100.0 * cs['hit_rate']:.1f}%), "
                    f"{cs['evictions']} evictions, size {cs['size']}"
                )
        lines.append(
            "deadlines        : "
            f"{c['deadline_expired']} expired, {c['deadline_missed']} missed, "
            f"{c['degraded']} degraded"
        )
        lines.append(f"graph updates    : {c['graph_updates']}")
        lines.append(
            "deltas           : "
            f"{c['delta_requests']} requests, "
            f"{c['delta_incremental']} incremental, "
            f"{c['delta_fallbacks']} full re-matches "
            f"(+{c['delta_gained']}/-{c['delta_lost']} matches)"
        )
        pe = s["planner_est_error"]
        lines.append(
            "planner          : "
            f"{c['planner_feedback']} feedback, {c['plan_reranks']} reranks, "
            f"est error p50 {pe['p50']:.2f} max {pe['max']:.2f}"
        )
        ck = s["checkpoint_age_ms"]
        lines.append(
            "supervision      : "
            f"{c['supervisor_restarts']} restarts "
            f"({c['worker_crashes']} crashes, {c['worker_stalls']} stalls), "
            f"{c['redeliveries']} redeliveries, {c['stranded']} stranded"
        )
        lines.append(
            "breakers         : "
            f"{s['breaker_open']} open, {c['breaker_opens']} opens, "
            f"{c['breaker_rejected']} rejected"
        )
        lines.append(
            "quarantine       : "
            f"{c['quarantined']} poisoned, {c['poisoned_rejected']} rejected"
        )
        lines.append(
            "checkpoints      : "
            f"{c['checkpoints']} taken, {c['resumed']} resumed "
            f"(age p50 {ck['p50']:.1f} ms, max {ck['max']:.1f} ms)"
        )
        return "\n".join(lines) + "\n"

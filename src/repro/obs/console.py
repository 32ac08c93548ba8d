"""The one text view of a service: the ``repro top`` frame.

:meth:`repro.serve.MatchService.snapshot` is the one JSON view — counters,
histograms, caches, breakers, SLOs, flight counts, shard utilization — and
:func:`render_top` turns it into text.  ``repro serve`` (plain, ``--smoke``,
``--chaos``, the SIGTERM drain report) and ``repro top`` all print it; an
incident bundle carries the same snapshot for a process you cannot import.

Plain text, stdlib only; sections whose keys are absent (a bare
:class:`~repro.serve.ServeMetrics` snapshot has no caches, SLOs or
supervisor) are skipped.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["render_top", "shard_utilization"]


# --------------------------------------------------------------------------- #
# Shard utilization from operational spans
# --------------------------------------------------------------------------- #


def shard_utilization(spans: Iterable[dict]) -> dict:
    """Per-shard work summary from ``shard.run`` spans.

    Returns ``{"s<index>": {"runs": n, "rows": r, "ms": t, "cpu_ms": c,
    "rss_mb": m, "pids": k}}`` — how the dispatched work, wall time and CPU
    spread over shard worker processes, the "per-shard utilization" row of
    ``repro top``.  ``cpu_ms`` and ``rss_mb`` (peak) are each worker's own
    readings: standing workers are never reaped, so the parent's
    ``RUSAGE_CHILDREN`` does not contain them.
    """
    util: dict[str, dict] = {}
    for span in spans:
        if span.get("name") != "shard.run":
            continue
        tags = span.get("tags") or {}
        key = f"s{tags.get('shard', '?')}"
        slot = util.setdefault(
            key,
            {"runs": 0, "rows": 0, "ms": 0.0, "cpu_ms": 0.0, "rss_mb": 0.0, "pids": set()},
        )
        slot["runs"] += 1
        slot["rows"] += int(tags.get("rows", 0) or 0)
        slot["ms"] += float(span.get("dur_ms", 0.0))
        slot["cpu_ms"] += float(tags.get("cpu_ms", 0.0))
        slot["rss_mb"] = max(slot["rss_mb"], float(tags.get("rss_mb", 0.0)))
        slot["pids"].add(span.get("pid"))
    for slot in util.values():
        slot["ms"] = round(slot["ms"], 3)
        slot["cpu_ms"] = round(slot["cpu_ms"], 3)
        slot["pids"] = len(slot["pids"] - {None})
    return dict(sorted(util.items()))


# --------------------------------------------------------------------------- #
# The renderer
# --------------------------------------------------------------------------- #


def _hist_line(h: Optional[dict]) -> str:
    h = h or {}
    return (
        f"p50 {h.get('p50', 0):.3f}  p95 {h.get('p95', 0):.3f}  "
        f"p99 {h.get('p99', 0):.3f}  max {h.get('max', 0):.3f}"
    )


def render_top(snap: dict, title: str = "repro top") -> str:
    """One frame of the service report as text.

    ``snap`` is a :meth:`MatchService.snapshot` dict (or the ``metrics`` of
    an incident bundle, which is one); sections whose keys are absent are
    skipped or read as zero.
    """
    c = snap.get("counters") or {}
    q = snap.get("queue") or {}

    def n(name: str) -> int:
        return c.get(name, 0)

    lines = [f"=== {title} ==="]
    if "uptime_s" in snap:
        drain = "yes" if snap.get("draining") else "no"
        lines.append(
            f"uptime            : {snap['uptime_s']:.2f} s (draining: {drain})"
        )
    rates = [
        f"{snap[key]:.1f} req/s {label}"
        for key, label in (("qps", "all-time"), ("qps_60s", "(60s)"))
        if snap.get(key) is not None
    ]
    if rates:
        lines.append(f"throughput        : {', '.join(rates)}")
    lines.append(
        "requests          : "
        f"{n('submitted')} submitted, {n('completed')} completed, "
        f"{n('errors')} errors, {n('shed')} shed, {n('rejected')} rejected"
    )
    lat = snap.get("latency_ms") or {}
    lines.append(
        f"latency ms        : mean {lat.get('mean', 0):.3f}  {_hist_line(lat)}"
    )
    lines.append(
        "queue             : "
        f"depth {q.get('depth', 0)} (peak {q.get('peak_depth', 0)}), "
        f"wait {_hist_line(snap.get('queue_wait_ms'))}"
    )
    bs = snap.get("batch_size") or {}
    lines.append(
        "batches           : "
        f"{bs.get('count', 0)} (mean size {bs.get('mean', 0):.2f}, "
        f"max {bs.get('max', 0):.0f})"
    )
    for name in ("plan_cache", "result_cache"):
        cs = snap.get(name)
        if cs:
            lines.append(
                f"{name.replace('_', ' '):<18}: "
                f"{cs['hits']} hits / {cs['misses']} misses "
                f"({100.0 * cs['hit_rate']:.1f}%), "
                f"{cs['evictions']} evictions, size {cs['size']}"
            )
    lines.append(
        "deadlines         : "
        f"{n('deadline_expired')} expired, {n('deadline_missed')} missed, "
        f"{n('degraded')} degraded"
    )
    lines.append(
        "deltas            : "
        f"{n('graph_updates')} graph updates, {n('delta_requests')} requests, "
        f"{n('delta_incremental')} incremental, "
        f"{n('delta_fallbacks')} full re-matches "
        f"(+{n('delta_gained')}/-{n('delta_lost')} matches)"
    )
    pe = snap.get("planner_est_error") or {}
    lines.append(
        "planner           : "
        f"{n('planner_feedback')} feedback, {n('plan_reranks')} reranks, "
        f"est error p50 {pe.get('p50', 0):.2f} max {pe.get('max', 0):.2f}"
    )
    lines.append(
        "supervision       : "
        f"{n('supervisor_restarts')} restarts "
        f"({n('worker_crashes')} crashes, {n('worker_stalls')} stalls), "
        f"{n('redeliveries')} redeliveries, {n('stranded')} stranded"
    )
    breakers = (snap.get("resilience") or {}).get("breakers") or {}
    states = ", ".join(f"{sig}: {st}" for sig, st in sorted(breakers.items()))
    lines.append(
        "breakers          : "
        f"{snap.get('breaker_open', 0)} open, {n('breaker_opens')} opens, "
        f"{n('breaker_rejected')} rejected" + (f" [{states}]" if states else "")
    )
    lines.append(
        "quarantine        : "
        f"{n('quarantined')} poisoned, {n('poisoned_rejected')} rejected"
    )
    ck = snap.get("checkpoint_age_ms") or {}
    lines.append(
        "checkpoints       : "
        f"{n('checkpoints')} taken, {n('resumed')} resumed "
        f"(age p50 {ck.get('p50', 0):.1f} ms, max {ck.get('max', 0):.1f} ms)"
    )
    if "workers" in snap:
        lines.append(
            "pool              : "
            f"{snap.get('pool_size', 0)} workers alive "
            f"(configured {snap['workers']})"
        )
    util = snap.get("shard_util") or {}
    if util:
        bits = [
            f"{k} {v['runs']} run(s)/{v['rows']} rows/{v['ms']:.1f} ms"
            f"/{v.get('cpu_ms', 0):.1f} cpu ms/{v.get('rss_mb', 0):.0f} MB"
            for k, v in util.items()
        ]
        lines.append(f"shards            : {'  '.join(bits)}")
    for slo in snap.get("slos") or []:
        status = "BREACH" if slo.get("alerting") else "ok"
        burns = ", ".join(
            f"{w} {b:.2f}"
            for w, b in sorted((slo.get("burn_rates") or {}).items())
        )
        lines.append(
            f"slo {slo.get('name', '?'):<14}: {status} (burn {burns or 'n/a'})"
        )
    if "alerts" in snap:
        lines.append(
            "alerts            : " + (", ".join(snap["alerts"]) or "none")
        )
    flight = snap.get("flight") or {}
    if flight:
        lines.append(
            "flight            : "
            + ", ".join(f"{k}={v}" for k, v in sorted(flight.items()))
        )
    return "\n".join(lines) + "\n"

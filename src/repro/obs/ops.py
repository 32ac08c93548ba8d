"""Operational observability: the host ring, flight recorder, incidents.

The span model lives in :mod:`repro.obs.tracer`; this module holds what
follows one **serve request** across real processes and wall-clock time:

* :func:`ops_tracer` — the process-wide host-clock :class:`Tracer` ring.
  Requests carry a :class:`TraceContext` (re-exported here) AdmissionQueue
  → worker → engine → shard subprocesses → incremental delta runs.
* :class:`FlightRecorder` — a bounded ring of structured operational
  events (admissions, redeliveries, breaker flips, shard deaths, delta
  fallbacks, SLO breaches) with fault-kind callbacks that trigger
  incident dumps.
* incident bundles — one self-contained JSON file per incident: recent
  events, the metric snapshot, active + finished spans, the stitched
  Chrome trace, and the config fingerprints needed to reproduce.

Everything here is wall-clock and stdlib-only; nothing touches the
virtual-time simulation, so tracing on/off cannot change counts.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Callable, Optional

from repro.errors import ReproError

from .tracer import NULL_TRACER, TraceContext, Tracer, to_chrome

__all__ = [
    "TraceContext",
    "FlightRecorder",
    "INCIDENT_FORMAT",
    "ops_tracer",
    "make_incident",
    "write_incident",
    "load_incident",
    "render_incident",
]


_PROCESS_TRACER = Tracer(max_spans=4096, threaded=True)


def ops_tracer(traced: object = True) -> Tracer:
    """The process-wide host-clock tracer (one ring per process).  Call
    sites whose request may be untraced pass its context —
    ``ops_tracer(ctx).span(..., parent=ctx)`` — and get the disabled
    :data:`NULL_TRACER` when there is none, so they need no ``if``."""
    return _PROCESS_TRACER if traced else NULL_TRACER


# --------------------------------------------------------------------------- #
# Flight recorder
# --------------------------------------------------------------------------- #

#: Event kinds that count as faults: recording one fires the recorder's
#: ``on_fault`` callbacks (which is how dump-on-error triggers).
FAULT_EVENT_KINDS = frozenset(
    {
        "worker.crash",
        "worker.stall",
        "request.error",
        "quarantine",
        "shard.failure",
        "slo.breach",
    }
)


class FlightRecorder:
    """Bounded ring buffer of structured operational events.

    Events are plain dicts stamped with a process-local sequence number
    and a unix-epoch-millisecond timestamp.  Kinds in ``fault_kinds``
    fire ``on_fault(event)`` callbacks *after* the event is retained, so
    a dump triggered by the event includes it.
    """

    def __init__(
        self,
        capacity: int = 512,
        clock: Callable[[], float] = time.time,
        fault_kinds: frozenset = FAULT_EVENT_KINDS,
    ) -> None:
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=max(1, int(capacity)))
        self._clock = clock
        self._seq = 0
        self._counts: dict[str, int] = {}
        self.fault_kinds = frozenset(fault_kinds)
        self._on_fault: list[Callable[[dict], None]] = []

    def on_fault(self, callback: Callable[[dict], None]) -> None:
        """Register a callback fired for every fault-kind event."""
        with self._lock:
            self._on_fault.append(callback)

    def record(self, kind: str, **fields) -> dict:
        """Append one event; returns the stored dict."""
        with self._lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "t_unix_ms": round(self._clock() * 1000.0, 3),
                "kind": kind,
            }
            event.update(fields)
            self._events.append(event)
            self._counts[kind] = self._counts.get(kind, 0) + 1
            callbacks = list(self._on_fault) if kind in self.fault_kinds else ()
        for cb in callbacks:
            try:
                cb(event)
            except Exception:  # a dump failure must never break serving
                pass
        return event

    def events(
        self, last: Optional[int] = None, kind: Optional[str] = None
    ) -> list[dict]:
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e.get("kind") == kind]
        if last is not None:
            out = out[-last:]
        return out

    def counts(self) -> dict[str, int]:
        """All-time per-kind event counts (survive ring eviction)."""
        with self._lock:
            return dict(sorted(self._counts.items()))

    def snapshot(self) -> dict:
        return {"counts": self.counts(), "events": self.events()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


# --------------------------------------------------------------------------- #
# Incident bundles
# --------------------------------------------------------------------------- #

INCIDENT_FORMAT = "repro.incident.v1"


def make_incident(
    reason: str,
    recorder: Optional[FlightRecorder] = None,
    tracer: Tracer = NULL_TRACER,
    metrics: Optional[dict] = None,
    slos: Optional[list] = None,
    fingerprints: Optional[dict] = None,
    info: Optional[dict] = None,
) -> dict:
    """Assemble one self-contained incident bundle (a JSON-ready dict)."""
    spans, active = tracer.spans(), tracer.active_spans()
    return {
        "format": INCIDENT_FORMAT,
        "reason": reason,
        "created_unix_ms": round(time.time() * 1000.0, 3),
        "pid": os.getpid(),
        "info": dict(info or {}),
        "fingerprints": dict(fingerprints or {}),
        "metrics": metrics or {},
        "slos": list(slos or []),
        "flight": recorder.snapshot() if recorder is not None else {},
        "active_spans": active,
        "spans": spans,
        "chrome_trace": to_chrome(spans + active),
    }


def write_incident(bundle: dict, path: str) -> str:
    """Write a bundle as pretty JSON; returns the path."""
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=False, default=str)
        fh.write("\n")
    return path


def load_incident(path: str) -> dict:
    """Load + validate an incident bundle; typed error on a bad file."""
    try:
        with open(path) as fh:
            bundle = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read incident bundle {path!r}: {exc}") from None
    if not isinstance(bundle, dict) or bundle.get("format") != INCIDENT_FORMAT:
        raise ReproError(
            f"{path!r} is not a {INCIDENT_FORMAT} bundle "
            f"(format={bundle.get('format') if isinstance(bundle, dict) else '?'!r})"
        )
    return bundle


def render_incident(bundle: dict, last_events: int = 20) -> str:
    """Human-readable incident report (the ``repro incident`` output)."""
    lines = [f"=== repro incident: {bundle.get('reason', '?')} ==="]
    created = bundle.get("created_unix_ms", 0) / 1000.0
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created))
    lines.append(f"captured          : {stamp} (pid {bundle.get('pid', '?')})")
    info = bundle.get("info") or {}
    for key in sorted(info):
        lines.append(f"{key:<18}: {info[key]}")
    fps = bundle.get("fingerprints") or {}
    if fps:
        lines.append(
            "fingerprints      : "
            + ", ".join(f"{k}={v}" for k, v in sorted(fps.items()))
        )
    metrics = bundle.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append(
            "requests          : "
            f"{counters.get('submitted', 0)} submitted, "
            f"{counters.get('completed', 0)} completed, "
            f"{counters.get('errors', 0)} errors"
        )
    slos = bundle.get("slos") or []
    for slo in slos:
        status = "BREACH" if slo.get("alerting") else "ok"
        burns = slo.get("burn_rates") or {}
        burn_txt = ", ".join(
            f"{w}: {b:.2f}" for w, b in sorted(burns.items(), key=lambda kv: kv[0])
        )
        lines.append(f"slo {slo.get('name', '?'):<14}: {status} ({burn_txt})")
    flight = bundle.get("flight") or {}
    kind_counts = flight.get("counts") or {}
    if kind_counts:
        lines.append(
            "event counts      : "
            + ", ".join(f"{k}={v}" for k, v in sorted(kind_counts.items()))
        )
    events = (flight.get("events") or [])[-last_events:]
    if events:
        lines.append(f"last {len(events)} events:")
        for e in events:
            extras = {
                k: v
                for k, v in e.items()
                if k not in ("seq", "t_unix_ms", "kind")
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
            lines.append(f"  #{e.get('seq', '?'):<5} {e.get('kind', '?'):<18} {detail}")
    spans = bundle.get("spans") or []
    active = bundle.get("active_spans") or []
    trace_ids = {s.get("trace_id") for s in spans} - {None}
    pid_set = {s.get("pid") for s in spans} - {None}
    lines.append(
        f"spans             : {len(spans)} finished "
        f"({len(active)} active) across {len(trace_ids)} traces, "
        f"{len(pid_set)} process(es)"
    )
    chrome = bundle.get("chrome_trace") or {}
    lines.append(
        f"chrome trace      : {len(chrome.get('traceEvents', []))} events "
        "(load the bundle's chrome_trace key in about:tracing)"
    )
    return "\n".join(lines) + "\n"

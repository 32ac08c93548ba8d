"""The one span model: record, collector, Chrome exporter, warp timelines.

A span is a plain dict (pickle- and JSON-friendly by construction; spans
cross process boundaries inside ``MatchResult.op_spans``) built by
:func:`make_span` and tagged with the clock it was measured on:

* ``clock == "virtual"`` — the simulator's cycle clock: integer ``start`` /
  ``dur`` cycles, ``pid`` is the device and ``tid`` the warp.  Recorded per
  engine run (``match`` / ``intersect`` / ``steal``) by the :class:`Tracer`
  inside :class:`~repro.obs.Observability`.
* ``clock == "host"`` — wall time: ``start_ms`` / ``dur_ms`` in unix-epoch
  milliseconds, so spans from different processes share one axis, with the
  *recording* process and thread as ``pid`` / ``tid`` and the request's
  :class:`TraceContext` ids.  Recorded by the process-wide ring behind
  :func:`repro.obs.ops.ops_tracer`.  A host span a :class:`Tracer` closes
  itself is retained as a compact record tuple (:func:`_host_record`) and
  becomes this dict only when read (:meth:`Tracer.spans`).

:func:`to_chrome` exports either kind (``chrome://tracing`` / Perfetto;
1 virtual cycle ≈ 1 ns); :meth:`Tracer.summary` is the text view.

Tracing is **off by default**: hot paths hold :data:`NULL_TRACER` unless a
profile run installs an enabled tracer, and guard every span site on
``tracer.enabled`` — the disabled path costs one attribute check and
evaluates nothing else.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from threading import get_ident
from typing import Iterable, NamedTuple, Optional

from .registry import _NULL_LOCK

__all__ = [
    "TraceContext", "Tracer", "NULL_TRACER", "make_span", "to_chrome",
    "utilization", "straggler_tail", "ascii_timeline",
]


def _after_fork() -> None:
    """Ids count up from a per-process random origin — unique like random
    ones, without a ``urandom`` read per id — and host spans are stamped
    with the recording process's pid, read once.  A forked child re-seeds
    and re-reads both, or it would continue its parent's sequence and
    claim its parent's pid."""
    global _next_id, _PID
    _next_id = itertools.count(int.from_bytes(os.urandom(8), "big")).__next__
    _PID = os.getpid()


_after_fork()
os.register_at_fork(after_in_child=_after_fork)

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _span_id() -> str:
    return "%08x" % (_next_id() & _MASK32)


class TraceContext(NamedTuple):
    """Identity of one request's position in a distributed trace.

    Minted per serve request and threaded AdmissionQueue → worker → engine
    → shard subprocesses → incremental delta runs; a shard worker unpickles
    the context it was handed and stamps its spans with the *same* trace
    id, so one timeline stitches out of many processes.

    ``baggage`` is a tuple of ``(key, value)`` string pairs, sorted by key
    (tuples keep the context hashable and cheaply picklable); it is
    inherited by every child context, so a shard subprocess still knows
    which ``request_id`` it is working for.  A named tuple, so minting one
    is a tuple build, and it is immutable.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    baggage: tuple = ()

    @classmethod
    def mint(cls, **baggage: str) -> "TraceContext":
        """A fresh root context (new trace id, no parent)."""
        trace_id = "%016x" % (_next_id() & _MASK64)
        if not baggage:
            return cls(trace_id, _span_id())
        pairs = tuple(sorted((k, str(v)) for k, v in baggage.items()))
        return cls(trace_id, _span_id(), None, pairs)

    def child(self, **extra: str) -> "TraceContext":
        """A child context: same trace, new span id, parent = this span."""
        baggage = dict(self.baggage)
        baggage.update({k: str(v) for k, v in extra.items()})
        return TraceContext(
            self.trace_id, _span_id(), self.span_id, tuple(sorted(baggage.items()))
        )

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.baggage:
            if k == key:
                return v
        return default


def make_span(
    name: str,
    ctx: Optional[TraceContext],
    start: float,
    end: float,
    pid: Optional[int] = None,
    tid: Optional[int] = None,
    **tags,
) -> dict:
    """One finished span as a plain dict (also the cross-process wire format).

    With a ``ctx`` this is a host span: ``start`` / ``end`` are unix-epoch
    milliseconds (``time.time() * 1000``) and ``pid`` is stamped by the
    *recording* process, which is what lets a stitched trace prove it
    crossed process boundaries.  With ``ctx=None`` it is a virtual span:
    integer cycles on device ``pid``, warp ``tid``.
    """
    if ctx is not None:
        return _span_dict(
            _host_record(name, ctx, float(start), float(end), tags, pid, tid)
        )
    span = {
        "name": name,
        "pid": pid or 0,
        "tid": tid or 0,
        "start": start,
        "dur": end - start,
        "clock": "virtual",
    }
    if tags:
        span["tags"] = tags
    return span


def _host_record(name, ctx, start_ms, end_ms, tags, pid=None, tid=None) -> tuple:
    """A finished host span as its compact record — the one place one is
    built: ``(name, trace_id, span_id, parent_id, pid, tid, start_ms,
    dur_ms, tags)``, ``dur_ms`` already rounded.  ``pid`` / ``tid`` default
    to the closing process and thread.  Without a ``ctx`` the span is a
    fresh root whose ids are drawn here as integers; :func:`_span_dict`
    formats them when the span is read."""
    if ctx is None:
        trace_id, span_id, parent_id = _next_id(), _next_id(), None
    else:
        trace_id, span_id, parent_id, _ = ctx
    dur = end_ms - start_ms
    return (
        name,
        trace_id,
        span_id,
        parent_id,
        _PID if pid is None else pid,
        get_ident() & 0xFFFF if tid is None else tid,
        start_ms,
        round(dur, 3) if dur > 0.0 else 0.0,
        tags,
    )


def _span_dict(record: tuple) -> dict:
    """A host record as the span dict every reader sees."""
    name, trace_id, span_id, parent_id, pid, tid, start_ms, dur_ms, tags = record
    if trace_id.__class__ is int:  # a root's ids, drawn when it closed
        trace_id = "%016x" % (trace_id & _MASK64)
        span_id = "%08x" % (span_id & _MASK32)
    span = {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "pid": pid,
        "tid": tid,
        "start_ms": round(start_ms, 3),
        "dur_ms": dur_ms,
        "clock": "host",
    }
    if tags:
        span["tags"] = tags
    return span


class _OpenSpan:
    """An open host span; its own context manager.

    ``close`` closes it once (later calls are no-ops), so a body may
    close early with its outcome tags and still rely on ``with`` to close
    it — tagged ``error=<exception type>`` — on every other exit.  A span
    of a disabled tracer is born closed.
    """

    __slots__ = ("tracer", "name", "ctx", "start_ms", "tags", "closed")

    def __init__(self, tracer, name, ctx, tags) -> None:
        self.tracer = tracer
        self.name = name
        self.ctx = ctx
        self.start_ms = time.time() * 1000.0
        self.tags = tags
        self.closed = not tracer.enabled

    def to_span(self) -> dict:
        """The span so far (``dur_ms`` = elapsed), its tags a copy."""
        return _span_dict(
            _host_record(
                self.name, self.ctx, self.start_ms, time.time() * 1000.0, dict(self.tags)
            )
        )

    def close(self, **tags) -> Optional[tuple]:
        """Close the span; returns its record (None if it was closed
        before).  Closing and recording take the tracer's lock once."""
        if self.closed:  # the unlocked fast path of ``with`` after a close
            return None
        record = _host_record(
            self.name,
            self.ctx,
            self.start_ms,
            time.time() * 1000.0,
            {**self.tags, **tags} if tags else self.tags,
        )
        tracer = self.tracer
        with tracer._lock:
            if self.closed:
                return None
            self.closed = True
            tracer._active.pop(id(self), None)
            tracer._tally(self.name, record[7], record)
        return record

    def finish(self, **tags) -> Optional[dict]:
        """:meth:`close`, returning the span as a dict (for a caller that
        ships it on, e.g. inside ``MatchResult.op_spans``)."""
        record = self.close(**tags)
        return None if record is None else _span_dict(record)

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.closed:
            self.close(**({"error": exc_type.__name__} if exc_type else {}))


class Tracer:
    """Collects spans of either clock: dicts, and the compact records of the
    host spans it closes itself.

    Bounds its own overhead: retains 1 of every ``sample_every`` spans per
    name in a ring of the newest ``max_spans`` (a serving process runs
    forever — unbounded retention is an OOM), while per-name ``counts``
    and ``totals`` (cycles or ms) stay exact through both.  Also tracks
    the currently-open spans, which an incident bundle dumps to show what
    was *in flight* when it happened.  ``threaded=True`` guards all of it
    with a lock; the per-run tracer of the single-threaded simulation
    skips it.
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_every: int = 1,
        max_spans: int = 200_000,
        threaded: bool = False,
    ) -> None:
        self.enabled = enabled
        self.sample_every = max(1, int(sample_every))
        self.max_spans = max(0, int(max_spans))
        self._spans: deque[dict] = deque(maxlen=self.max_spans)
        self.counts: dict[str, int] = {}
        self.totals: dict[str, float] = {}
        self.dropped = 0
        self._active: dict[int, _OpenSpan] = {}
        self._lock = threading.Lock() if threaded else _NULL_LOCK

    # -- recording ------------------------------------------------------ #

    def record(self, span: dict) -> None:
        """Count, total and (sampling permitting) retain a finished span."""
        if not self.enabled:
            return
        with self._lock:
            self._record(span)

    def _record(self, span: dict) -> None:
        """:meth:`record` with the lock held (by the caller)."""
        dur = span["dur"] if span["clock"] == "virtual" else span["dur_ms"]
        self._tally(span["name"], dur, span)

    def _tally(self, name: str, dur, item) -> None:
        """Count and total one finished span, and retain ``item`` (its
        dict or host record) when sampling picks it.  Lock held."""
        n = self.counts.get(name, 0) + 1
        self.counts[name] = n
        self.totals[name] = self.totals.get(name, 0) + dur
        if n % self.sample_every == 0:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
            self._spans.append(item)

    def adopt(self, spans: Optional[Iterable[dict]]) -> int:
        """Retain spans recorded in *another* process (shipped back inside
        ``MatchResult.op_spans``); returns how many."""
        spans = list(spans or ())
        with self._lock:
            self.dropped += max(0, len(self._spans) + len(spans) - self.max_spans)
            self._spans.extend(spans)
        return len(spans)

    def span(
        self,
        name: str,
        ctx: Optional[TraceContext] = None,
        parent: Optional[TraceContext] = None,
        **tags,
    ) -> _OpenSpan:
        """Open a host span: ``with tracer.span("x", parent=c) as s: ...``.

        ``ctx`` *is* the span's identity when given; otherwise a child of
        ``parent`` (or a fresh root) is minted — unless the tracer is
        disabled, whose spans are inert and have no identity.  ``s.tags``
        may be added to until the span closes.
        """
        if ctx is None and self.enabled:
            ctx = parent.child() if parent is not None else TraceContext.mint()
        handle = _OpenSpan(self, name, ctx, tags)
        if self.enabled:
            with self._lock:
                self._active[id(handle)] = handle
        return handle

    def record_root(self, name: str, start_ms: float, **tags) -> None:
        """Record a root host span that opened at ``start_ms`` (unix-epoch
        milliseconds) and closes now, inside the caller's own call.  It
        lives too briefly to matter to an incident's in-flight list, so it
        is never open: no handle, no :meth:`active_spans` entry, no
        :class:`TraceContext` — its ids are drawn here, at close.  It is
        counted, totalled and retained like any other, in one acquisition
        of the lock."""
        if not self.enabled:
            return
        record = _host_record(name, None, start_ms, time.time() * 1000.0, tags)
        with self._lock:
            self._tally(name, record[7], record)

    # -- introspection -------------------------------------------------- #

    def spans(
        self,
        trace_id: Optional[str] = None,
        last: Optional[int] = None,
        name: Optional[str] = None,
    ) -> list[dict]:
        """Retained spans, oldest first, as dicts.  ``name`` filters before
        any host record is turned into a dict."""
        with self._lock:
            out = list(self._spans)
        if name is not None:
            out = [
                s for s in out if (s[0] if s.__class__ is tuple else s["name"]) == name
            ]
        out = [_span_dict(s) if s.__class__ is tuple else s for s in out]
        if trace_id is not None:
            out = [s for s in out if s.get("trace_id") == trace_id]
        if last is not None:
            out = out[-last:]
        return out

    def active_spans(self) -> list[dict]:
        """Open spans as dicts (``dur_ms`` = elapsed so far)."""
        with self._lock:
            handles = list(self._active.values())
        return [dict(h.to_span(), active=True) for h in handles]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._active.clear()

    def __len__(self) -> int:
        return len(self._spans)

    # -- text flamegraph-style summary ---------------------------------- #

    def summary(self, width: int = 40) -> str:
        """Aggregate per-name totals with proportional bars."""
        if not self.counts:
            return "trace: no spans recorded"
        rows = sorted(
            ((self.totals[name], self.counts[name], name) for name in self.counts),
            reverse=True,
        )
        total = sum(c for c, _, _ in rows) or 1
        name_w = max(len(name) for _, _, name in rows)
        lines = [
            f"{'span':<{name_w}}  {'cycles':>12}  {'count':>8}  {'share':>6}",
        ]
        for cyc, cnt, name in rows:
            share = cyc / total
            bar = "#" * max(1, int(round(share * width))) if cyc else ""
            lines.append(
                f"{name:<{name_w}}  {cyc:>12,}  {cnt:>8,}  {share:>6.1%}  {bar}"
            )
        if self.dropped:
            lines.append(f"({self.dropped} spans dropped at max_spans={self.max_spans})")
        return "\n".join(lines)


#: The disabled tracer (stateless, safe to share): what every hot path
#: holds, and what :func:`repro.obs.ops.ops_tracer` hands an untraced run.
NULL_TRACER = Tracer(enabled=False, max_spans=0)


# --------------------------------------------------------------------------- #
# Chrome trace_event export
# --------------------------------------------------------------------------- #


def to_chrome(spans: Iterable[dict]) -> dict:
    """Span dicts (either clock, any mix of processes) → one Chrome trace.

    Timestamps are microseconds — epoch-based for host spans, so a shard
    subprocess lines up with its coordinator on one shared axis, and
    ``cycles / 1000`` for virtual ones.  Each distinct pid (process or
    virtual device) gets one named process row.
    """
    rows: dict[int, str] = {}
    events = []
    for span in spans:
        pid = span.get("pid", 0)
        args = dict(span.get("tags") or {})
        if span.get("clock") == "virtual":
            rows.setdefault(pid, f"virtual-gpu-{pid}")
            ts, dur = span["start"] / 1000.0, max(span["dur"], 0) / 1000.0
            args["cycles"] = span["dur"]
        else:
            rows.setdefault(pid, f"repro pid {pid}")
            ts = round(span.get("start_ms", 0.0) * 1000.0, 1)
            dur = round(span.get("dur_ms", 0.0) * 1000.0, 1)
            for key in ("trace_id", "span_id", "parent_id"):
                args.setdefault(key, span.get(key))
        events.append(
            {
                "name": span.get("name", "?"),
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": pid,
                "tid": span.get("tid", 0),
                "args": args,
            }
        )
    meta = [
        {"name": "process_name", "ph": "M", "pid": p, "tid": 0, "args": {"name": label}}
        for p, label in rows.items()
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------------- #
# Warp timelines: who was working when (paper Section III, Fig. 11)
# --------------------------------------------------------------------------- #


def _match_spans(spans: Iterable[dict]) -> tuple[list, int]:
    """The ``match`` spans and their makespan.  A warp is *working* while
    inside one (a claimed chunk, dequeued task or stolen half); between
    them — queue polls, chunk fetches, steal probes — it is waiting."""
    work = [s for s in spans if s["name"] == "match" and s["dur"] > 0]
    return work, max((s["start"] + s["dur"] for s in work), default=0)


def _raster(spans: Iterable[dict], cells: int) -> tuple[int, dict]:
    """``match`` spans on a grid of ``cells`` cells over the makespan:
    ``(makespan, {(device, warp): set of working cell indexes})``."""
    work, makespan = _match_spans(spans)
    cell = max(1, makespan // cells)
    busy: dict[tuple, set] = {}
    for s in work:
        lo, hi = s["start"] // cell, min((s["start"] + s["dur"]) // cell, cells)
        busy.setdefault((s["pid"], s["tid"]), set()).update(range(lo, hi + 1))
    return makespan, busy


def utilization(spans: Iterable[dict], num_warps: int) -> float:
    """Working fraction of the device over the makespan."""
    work, makespan = _match_spans(spans)
    if makespan == 0 or num_warps == 0:
        return 0.0
    return sum(s["dur"] for s in work) / (makespan * num_warps)


def straggler_tail(spans: Iterable[dict], num_warps: int) -> float:
    """Fraction of the makespan during which < 25 % of warps work.

    A long tail is the signature of an undecomposed straggler — the
    exact pathology the timeout mechanism removes.
    """
    buckets = 100
    makespan, busy = _raster(spans, buckets)
    if makespan == 0:
        return 0.0
    active = [sum(b in cells for cells in busy.values()) for b in range(buckets + 1)]
    quiet = sum(1 for n in active if 0 < n < max(1, num_warps // 4))
    return quiet / len(active)


def ascii_timeline(spans: Iterable[dict], num_warps: int, width: int = 60) -> str:
    """Render warps × time as text: '#' working, '.' waiting, ' ' done."""
    makespan, busy = _raster(spans, width)
    if makespan == 0:
        return "(no activity)"
    lines = []
    for key in sorted(busy)[:num_warps]:
        cells = busy[key]
        row = "".join(
            "#" if x in cells else "." if x < max(cells) else " "
            for x in range(width + 1)
        )
        lines.append(f"w{key[1]:>3} |{row}|")
    lines.append(f"      0{' ' * (width - 8)}{makespan} cycles")
    return "\n".join(lines)

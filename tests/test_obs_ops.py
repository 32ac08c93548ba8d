"""Unit tests for operational observability (repro.obs.ops / repro.obs.slo).

Covers the cross-process trace context (including pickling into a
subprocess running under a *different* ``PYTHONHASHSEED`` — hash
randomization must not leak into trace identity), host span dicts and
their Chrome export (the collector itself is covered by
``tests/test_obs.py::TestTracer``), the flight recorder's fault callbacks,
SLO burn-rate math with exact gauge reconciliation, incident bundle
round-trips, and the time-driven histogram window rotation.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.obs import (
    SLO,
    FlightRecorder,
    OutcomeWindow,
    Registry,
    SLOTracker,
    TraceContext,
    Tracer,
    load_incident,
    make_incident,
    make_span,
    render_incident,
    to_chrome,
    write_incident,
)
from repro.obs.ops import FAULT_EVENT_KINDS, INCIDENT_FORMAT
from repro.obs.registry import Histogram


# --------------------------------------------------------------------------- #
# TraceContext
# --------------------------------------------------------------------------- #


class TestTraceContext:
    def test_mint_is_unique_and_rootless(self):
        a, b = TraceContext.mint(), TraceContext.mint()
        assert a.trace_id != b.trace_id
        assert a.parent_id is None
        assert len(a.trace_id) == 16 and len(a.span_id) == 8

    def test_baggage_is_sorted_string_pairs(self):
        ctx = TraceContext.mint(request_id=7, graph="dblp")
        assert ctx.baggage == (("graph", "dblp"), ("request_id", "7"))
        assert ctx.get("request_id") == "7"
        assert ctx.get("missing", "d") == "d"

    def test_child_links_span_ids_and_merges_baggage(self):
        root = TraceContext.mint(request_id=1)
        child = root.child(stage="run", request_id=2)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        assert child.get("stage") == "run"
        assert child.get("request_id") == "2"  # child overrides win
        assert root.get("stage") is None  # parent untouched

    def test_frozen_and_hashable(self):
        ctx = TraceContext.mint()
        with pytest.raises(Exception):
            ctx.trace_id = "nope"
        assert len({ctx, ctx.child()}) == 2

    def test_pickle_round_trip(self):
        ctx = TraceContext.mint(request_id=3).child(stage="shard")
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx


_CHILD_PROGRAM = """
import base64, json, os, pickle, sys
ctx = pickle.loads(base64.b64decode(sys.argv[1]))
from repro.obs import make_span
span = make_span("child.work", ctx.child(stage="subprocess"), 10.0, 22.5)
print(json.dumps({"span": span, "baggage": dict(ctx.baggage)}))
"""


@pytest.mark.parametrize("hashseed", ["0", "1", "31337"])
def test_trace_context_pickles_across_hashseed(hashseed):
    """A shard subprocess with different hash randomization still stamps
    spans with the parent's trace id — trace identity is value-based."""
    ctx = TraceContext.mint(request_id=9, graph="dblp")
    blob = base64.b64encode(pickle.dumps(ctx)).decode()
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    repro_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(repro_root, "src")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_PROGRAM, blob],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    span = payload["span"]
    assert span["trace_id"] == ctx.trace_id
    assert span["parent_id"] == ctx.span_id
    assert payload["baggage"] == {"graph": "dblp", "request_id": "9"}
    # The child's span stitches into the parent's timeline: same trace,
    # two distinct pids in the Chrome document.
    here = make_span("parent.work", ctx, 0.0, 30.0)
    doc = to_chrome([here, span])
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["args"]["trace_id"] for e in xs} == {ctx.trace_id}
    assert len({e["pid"] for e in xs}) == 2


# --------------------------------------------------------------------------- #
# Host spans + their Chrome export
# --------------------------------------------------------------------------- #


class TestSpans:
    def test_make_span_shape(self):
        ctx = TraceContext.mint()
        span = make_span("s", ctx, 100.0, 103.5, rows=7)
        assert span["pid"] == os.getpid()
        assert span["start_ms"] == 100.0 and span["dur_ms"] == 3.5
        assert span["tags"] == {"rows": 7}
        assert span["span_id"] == ctx.span_id
        assert set(span) == {
            "name", "trace_id", "span_id", "parent_id", "pid", "tid",
            "start_ms", "dur_ms", "tags", "clock",
        } and span["clock"] == "host"
        json.dumps(span)  # wire format must stay JSON-safe

    def test_negative_duration_clamped(self):
        span = make_span("s", TraceContext.mint(), 10.0, 5.0)
        assert span["dur_ms"] == 0.0

    def test_chrome_units_and_process_rows(self):
        ctx = TraceContext.mint()
        spans = [
            make_span("a", ctx, 1.0, 2.0),
            dict(make_span("b", ctx.child(), 2.0, 4.0), pid=999),
        ]
        doc = to_chrome(spans)
        assert doc["displayTimeUnit"] == "ms"
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert xs[0]["ts"] == 1000.0 and xs[0]["dur"] == 1000.0  # ms -> us
        assert {m["args"]["name"] for m in metas} == {
            f"repro pid {os.getpid()}", "repro pid 999",
        }


# --------------------------------------------------------------------------- #
# Flight recorder
# --------------------------------------------------------------------------- #


class TestFlightRecorder:
    def test_sequencing_and_counts_survive_eviction(self):
        rec = FlightRecorder(capacity=2, clock=lambda: 1.5)
        for kind in ("a", "b", "a"):
            rec.record(kind)
        assert len(rec) == 2  # ring evicted the first event
        assert rec.counts() == {"a": 2, "b": 1}  # counts did not
        events = rec.events()
        assert [e["seq"] for e in events] == [2, 3]
        assert events[0]["t_unix_ms"] == 1500.0
        assert [e["kind"] for e in rec.events(kind="a")] == ["a"]
        assert len(rec.events(last=1)) == 1

    def test_on_fault_fires_for_fault_kinds_only(self):
        rec = FlightRecorder()
        seen = []
        rec.on_fault(seen.append)
        rec.record("request.admitted", request_id=1)
        assert seen == []
        event = rec.record("worker.crash", worker=0)
        assert seen == [event]
        assert "worker.crash" in FAULT_EVENT_KINDS

    def test_fault_callback_may_record_reentrantly(self):
        # Callbacks run outside the recorder lock; a dump callback that
        # itself records events must not deadlock.
        rec = FlightRecorder()
        rec.on_fault(lambda e: rec.record("dump.written", cause=e["kind"]))
        rec.record("quarantine", request_id=4)
        assert rec.counts() == {"dump.written": 1, "quarantine": 1}

    def test_fault_callback_exceptions_are_swallowed(self):
        rec = FlightRecorder()
        rec.on_fault(lambda e: (_ for _ in ()).throw(RuntimeError("x")))
        event = rec.record("slo.breach", name="latency")
        assert event["kind"] == "slo.breach"  # recording survived


# --------------------------------------------------------------------------- #
# Outcome window + SLOs
# --------------------------------------------------------------------------- #


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestOutcomeWindow:
    def test_counts_by_window_threshold_and_error(self):
        clock = FakeClock()
        win = OutcomeWindow(max_age_s=3600.0, clock=clock)
        win.record(10.0)
        clock.t += 100.0
        win.record(500.0)           # slow success
        win.record(5.0, error=True)  # errors never count as "over"
        assert win.counts(50.0) == (2, 1, 0)
        assert win.counts(3600.0, threshold_ms=250.0) == (3, 1, 1)
        assert len(win) == 3

    def test_age_pruning(self):
        clock = FakeClock()
        win = OutcomeWindow(max_age_s=10.0, clock=clock)
        win.record(1.0)
        clock.t += 11.0
        win.record(2.0)
        assert len(win) == 1  # the first outcome aged out on record()

    def test_event_cap_and_validation(self):
        win = OutcomeWindow(max_events=2, clock=FakeClock())
        for v in (1.0, 2.0, 3.0):
            win.record(v)
        assert len(win) == 2
        with pytest.raises(ReproError):
            OutcomeWindow(max_age_s=0.0)


class TestSLO:
    def test_validation(self):
        with pytest.raises(ReproError):
            SLO("x", kind="availability")
        with pytest.raises(ReproError):
            SLO("x", objective=1.0)
        with pytest.raises(ReproError):
            SLO("x", threshold_ms=0.0)
        with pytest.raises(ReproError):
            SLO("x", windows_s=())
        with pytest.raises(ReproError):
            SLO("x", burn_alert=0.0)
        assert SLO("x", objective=0.99).budget == pytest.approx(0.01)

    def test_duplicate_names_rejected(self):
        win = OutcomeWindow(clock=FakeClock())
        with pytest.raises(ReproError):
            SLOTracker([SLO("a"), SLO("a")], win)


class TestSLOTracker:
    def test_burn_rate_formula(self):
        assert SLOTracker.burn_rate(0, 0, 0.99) == 0.0
        assert SLOTracker.burn_rate(100, 1, 0.99) == pytest.approx(1.0)
        assert SLOTracker.burn_rate(100, 5, 0.99) == pytest.approx(5.0)
        assert SLOTracker.burn_rate(10, 5, 0.5) == pytest.approx(1.0)

    def _tracker(self, slo: SLO):
        clock = FakeClock()
        window = OutcomeWindow(clock=clock)
        registry = Registry()
        breaches: list = []
        tracker = SLOTracker(
            [slo], window, registry=registry, on_breach=breaches.append
        )
        return clock, window, registry, breaches, tracker

    def test_gauges_reconcile_exactly_with_window_counts(self):
        slo = SLO("lat", kind="latency", objective=0.9, threshold_ms=100.0)
        clock, window, registry, _, tracker = self._tracker(slo)
        for latency, error in ((50.0, False), (150.0, False), (10.0, True)):
            window.record(latency, error=error)
        (status,) = tracker.evaluate()
        flat = registry.flat()
        for window_s in slo.windows_s:
            label = f"{int(window_s)}s"
            total, errors, over = window.counts(
                window_s, threshold_ms=slo.threshold_ms
            )
            expected = SLOTracker.burn_rate(total, errors + over, slo.objective)
            # Exact equality, not approx: the gauge is published unrounded
            # from the same counts the window reports.
            assert flat[f"slo.lat.burn.{label}"] == expected
            assert status.burn_rates[label] == expected
            assert status.window_counts[label] == (total, errors + over)
        assert flat["slo.lat.alert"] == 1  # burn 6.67 >= 2 in both windows
        assert tracker.active_alerts() == ["lat"]

    def test_empty_windows_do_not_alert(self):
        slo = SLO("lat", objective=0.99)
        _, _, _, breaches, tracker = self._tracker(slo)
        (status,) = tracker.evaluate()
        assert status.burn_rates == {"60s": 0.0, "600s": 0.0}
        assert not status.alerting and breaches == []

    def test_breach_fires_on_rising_edge_only(self):
        slo = SLO("err", kind="error_rate", objective=0.9, burn_alert=2.0)
        clock, window, _, breaches, tracker = self._tracker(slo)
        window.record(1.0, error=True)  # burn 10 in both windows
        tracker.evaluate()
        tracker.evaluate()  # still alerting: no second callback
        assert len(breaches) == 1 and breaches[0].name == "err"
        # Recovery then re-breach fires again.
        for _ in range(50):
            window.record(1.0)
        tracker.evaluate()
        assert tracker.active_alerts() == []
        clock.t += 700.0  # age everything out, then fail again
        window.record(1.0, error=True)
        tracker.evaluate()
        assert len(breaches) == 2

    def test_on_breach_exception_is_swallowed(self):
        slo = SLO("err", kind="error_rate", objective=0.9)
        clock = FakeClock()
        window = OutcomeWindow(clock=clock)
        tracker = SLOTracker(
            [slo], window,
            on_breach=lambda s: (_ for _ in ()).throw(RuntimeError("x")),
        )
        window.record(1.0, error=True)
        (status,) = tracker.evaluate()
        assert status.alerting


# --------------------------------------------------------------------------- #
# Incident bundles
# --------------------------------------------------------------------------- #


class TestIncidentBundles:
    def _bundle(self):
        tracer = Tracer()
        ctx = TraceContext.mint(request_id=5)
        tracer.record(make_span("serve.request", ctx, 0.0, 9.0))
        tracer.span("engine.run", ctx=ctx.child(stage="engine"))
        rec = FlightRecorder(clock=lambda: 2.0)
        rec.record("request.admitted", request_id=5)
        rec.record("worker.crash", worker=1)
        return make_incident(
            "worker.crash",
            recorder=rec,
            tracer=tracer,
            metrics={"counters": {"submitted": 5, "completed": 4, "errors": 1}},
            slos=[{"name": "lat", "alerting": True, "burn_rates": {"60s": 3.0}}],
            fingerprints={"config": "abc123"},
            info={"graphs": "dblp"},
        )

    def test_make_round_trip_and_validation(self, tmp_path):
        bundle = self._bundle()
        assert bundle["format"] == INCIDENT_FORMAT
        assert len(bundle["spans"]) == 1 and len(bundle["active_spans"]) == 1
        # stitched trace covers finished AND in-flight spans
        xs = [e for e in bundle["chrome_trace"]["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 2
        path = write_incident(bundle, str(tmp_path / "i.json"))
        loaded = load_incident(path)
        assert loaded["reason"] == "worker.crash"
        assert loaded["flight"]["counts"] == {
            "request.admitted": 1, "worker.crash": 1,
        }

    def test_load_rejects_garbage(self, tmp_path):
        with pytest.raises(ReproError):
            load_incident(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            load_incident(str(bad))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"format": "other.v9"}))
        with pytest.raises(ReproError):
            load_incident(str(wrong))

    def test_render_sections(self):
        text = render_incident(self._bundle(), last_events=5)
        assert text.startswith("=== repro incident: worker.crash ===")
        assert "5 submitted, 4 completed, 1 errors" in text
        assert "slo lat" in text and "BREACH" in text
        assert "worker.crash=1" in text
        assert "2 traces" not in text  # one request = one trace
        assert "1 traces" in text


# --------------------------------------------------------------------------- #
# Time-driven histogram windows (regression: satellite of this PR)
# --------------------------------------------------------------------------- #


class TestHistogramTimeWindow:
    def test_old_observations_rotate_out(self):
        clock = FakeClock()
        hist = Histogram("h", max_age_s=60.0, clock=clock)
        hist.observe(100.0)
        clock.t += 61.0
        hist.observe(1.0)
        snap = hist.snapshot()
        # percentile window holds only the fresh value...
        assert snap["p99"] == 1.0 and snap["max"] == 100.0
        # ...while the cumulative counters keep full history.
        assert snap["count"] == 2

    def test_untimed_histogram_unchanged(self):
        hist = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        assert hist.snapshot()["count"] == 3
        assert hist.snapshot()["p50"] == 2.0

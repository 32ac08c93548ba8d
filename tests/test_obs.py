"""Tests for the unified observability layer (``repro.obs``).

Covers the three instrument kinds, the registry and its fold rule, the
span tracer with its Chrome ``trace_event`` export, and — most importantly —
the engine integration contract:

* ``MatchResult.metrics`` is the one store of a run's statistics: every
  typed view of :data:`~repro.core.result.METRIC_VIEWS` reads it, it is
  exactly this run, and a caller's registry accumulates across runs;
* the tracing-disabled default changes *nothing* about the simulation
  (identical event counts and elapsed cycles, zero spans recorded);
* ``repro profile``'s trace output is valid Chrome JSON with per-warp
  match/steal/intersect spans.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest

from repro import Observability, Registry, RunContext, TDFSConfig, Tracer, match
from repro.core.engine import TDFSEngine
from repro.core.result import METRIC_VIEWS
from repro.obs import (
    NULL_TRACER,
    TraceContext,
    fold_metrics,
    make_span,
    ops_tracer,
    to_chrome,
)
from repro.obs.registry import Counter, Gauge, Histogram
from repro.query.patterns import get_pattern
from tests.fuzz import read_view


# --------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------- #


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.items() == [("x", 5)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_tracks_peak(self):
        g = Gauge("depth")
        for level in (3, 7, 1):
            g.set(level)
        assert g.value == 1
        assert g.peak == 7
        assert dict(g.items()) == {"depth": 1, "depth.peak": 7}


class TestHistogram:
    def test_window_percentiles_exact(self):
        h = Histogram("lat", window=1000)
        for v in range(1, 101):
            h.observe(v)
        snap = h.snapshot()
        assert snap["p50"] in (50.0, 51.0)  # nearest-rank
        assert snap["p95"] == pytest.approx(95.0)
        assert h.count == 100
        assert h.max == 100

    def test_snapshot_schema(self):
        h = Histogram("x")
        h.observe(2.0)
        snap = h.snapshot()
        assert set(snap) == {"count", "mean", "p50", "p95", "p99", "max"}

    def test_snapshot_reads_the_newest_window(self):
        h = Histogram("lat", window=64)
        values = [(i * 37) % 101 / 7.0 for i in range(100)]
        for v in values:  # wraps the window: the newest 64 remain
            h.observe(v)
        window = sorted(values[-64:])
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["mean"] == round(sum(window) / 64, 4)
        for p in (50, 95, 99):
            assert snap[f"p{p}"] == round(window[round(p / 100 * 63)], 4)
        assert snap["max"] == round(max(values), 4)
        assert Histogram("empty").snapshot()["p99"] == 0.0


class TestRegistry:
    def test_get_or_create_shares_by_name(self):
        reg = Registry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1
        assert "a" in reg

    def test_kind_mismatch_raises(self):
        reg = Registry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_flat_schema(self):
        reg = Registry()
        reg.counter("c").inc(2)
        g = reg.gauge("g")
        g.set(4)
        reg.histogram("h").observe(1.5)
        flat = reg.flat()
        assert flat["c"] == 2
        assert flat["g"] == 4
        assert flat["g.peak"] == 4
        assert flat["h.count"] == 1
        assert list(flat) == sorted(flat)

    def test_fold_rule_is_shared_by_dicts_and_registries(self):
        """Values add, ``.peak`` keys take the max — the same answer
        whether two runs fold into a dict or into a registry."""
        runs = [{"n": 2, "level.peak": 5, "x": 1.5}, {"n": 3, "level.peak": 4}]
        folded: dict = {}
        reg = Registry()
        for run in runs:
            fold_metrics(folded, run)
            reg.fold(run)
        assert folded == {"n": 5, "level.peak": 5, "x": 1.5}
        flat = reg.flat()
        assert all(flat[k] == v for k, v in folded.items())
        assert flat["level"] == 4  # the gauge's level is the latest run's


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #


def vspan(name, warp, start, end, device=0):
    return make_span(name, None, start, end, device, warp)


class TestTracer:
    """The one collector: virtual spans of a run and the host-clock ring."""

    def test_records_spans(self):
        t = Tracer()
        t.record(vspan("match", 3, 100, 250, device=1))
        assert len(t) == 1
        (span,) = t.spans()
        assert span == {
            "name": "match", "clock": "virtual",
            "pid": 1, "tid": 3, "start": 100, "dur": 150,
        }
        assert t.counts["match"] == 1
        assert t.totals["match"] == 150

    def test_sampling_keeps_exact_counts(self):
        t = Tracer(sample_every=10)
        for i in range(100):
            t.record(vspan("x", 0, i, i + 1))
        assert t.counts["x"] == 100
        assert t.totals["x"] == 100
        assert len(t.spans()) == 10  # 1 in 10 stored

    def test_max_spans_drops_but_counts(self):
        t = Tracer(max_spans=5)
        for i in range(8):
            t.record(vspan("x", 0, i, i + 1))
        assert len(t.spans()) == 5
        assert t.dropped == 3
        assert t.counts["x"] == 8 and t.totals["x"] == 8
        assert [s["start"] for s in t.spans()] == [3, 4, 5, 6, 7]  # a ring

    def test_ring_is_bounded(self):
        tracer = Tracer(max_spans=3, threaded=True)
        ctx = TraceContext.mint()
        for i in range(10):
            tracer.record(make_span(f"s{i}", ctx, 0.0, 1.0))
        assert [s["name"] for s in tracer.spans()] == ["s7", "s8", "s9"]

    def test_null_tracer_is_pure_noop(self):
        n = Tracer(enabled=False)
        n.record(vspan("x", 0, 0, 10))
        assert len(n) == 0
        assert n.counts == {}
        assert not n.enabled and not NULL_TRACER.enabled
        # An open span on the disabled tracer is inert too.
        with NULL_TRACER.span("work") as span:
            assert NULL_TRACER.active_spans() == []
        assert span.finish() is None
        assert len(NULL_TRACER) == 0 and NULL_TRACER.counts == {}

    def test_start_finish_and_active(self):
        tracer = Tracer(threaded=True)
        handle = tracer.span("work", parent=TraceContext.mint(), rows=3)
        active = tracer.active_spans()
        assert len(active) == 1 and active[0]["active"] is True
        assert active[0]["tags"] == {"rows": 3}
        span = handle.finish(outcome="ok")
        assert span["tags"] == {"rows": 3, "outcome": "ok"}
        assert span["clock"] == "host"
        assert tracer.active_spans() == []
        assert len(tracer) == 1
        assert handle.finish(outcome="again") is None  # closes once
        assert len(tracer) == 1 and tracer.counts == {"work": 1}

    def test_spans_filter_and_adopt(self):
        tracer = Tracer()
        mine, other = TraceContext.mint(), TraceContext.mint()
        tracer.record(make_span("local", mine, 0.0, 1.0))
        assert tracer.adopt([make_span("shipped", other, 0.0, 1.0)]) == 1
        assert tracer.adopt(None) == 0
        assert [s["name"] for s in tracer.spans(trace_id=other.trace_id)] == [
            "shipped"
        ]
        assert len(tracer.spans(last=1)) == 1

    def test_span_context_manager_tags_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = tracer.spans()
        assert span["tags"]["error"] == "ValueError"
        assert tracer.active_spans() == []

    def test_threaded_ring_loses_no_update(self):
        """More threads than cores opening and closing spans on one locked
        tracer: counts stay exact and nothing is left in flight."""
        tracer = Tracer(max_spans=64, threaded=True)
        threads, per_thread = 4 * (os.cpu_count() or 1), 200

        def hammer():
            for _ in range(per_thread):
                with tracer.span("work"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert tracer.counts == {"work": threads * per_thread}
        assert tracer.active_spans() == []
        assert len(tracer) == 64 and tracer.dropped == threads * per_thread - 64

    def test_process_singleton(self):
        assert ops_tracer() is ops_tracer()
        assert ops_tracer(TraceContext.mint()) is ops_tracer()
        assert ops_tracer(None) is NULL_TRACER  # an untraced run

    def test_chrome_export_shape(self):
        t = Tracer()
        t.record(vspan("match", 2, 1000, 4000, device=0))
        t.record(vspan("steal", 5, 2000, 2500, device=1))
        # Valid JSON round-trip.
        doc = json.loads(json.dumps(to_chrome(t.spans())))
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["pid"] for m in meta} == {0, 1}
        assert {m["args"]["name"] for m in meta} == {
            "virtual-gpu-0", "virtual-gpu-1",
        }
        assert len(spans) == 2
        m = next(e for e in spans if e["name"] == "match")
        assert m["pid"] == 0 and m["tid"] == 2
        assert m["ts"] == 1.0 and m["dur"] == 3.0  # cycles/1000 = us
        assert m["args"]["cycles"] == 3000

    def test_summary_text(self):
        t = Tracer()
        t.record(vspan("match", 0, 0, 900))
        t.record(vspan("steal", 0, 0, 100))
        text = t.summary()
        assert "match" in text and "steal" in text
        assert "90.0%" in text
        assert Tracer().summary() == "trace: no spans recorded"


class _StepClock:
    """``time.time`` stand-in: each reading is ``step`` seconds later."""

    def __init__(self, step: float) -> None:
        self.now, self.step = 1_700_000_000.0, step

    def time(self) -> float:
        self.now += self.step
        return self.now


def _eager_host_span(name, trace_id, span_id, start_ms, end_ms, tags) -> dict:
    """A root host span as a tracer built it eagerly at close, before host
    spans were kept as records — the reference the records must read as."""
    dur = end_ms - start_ms
    return {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": None,
        "pid": os.getpid(),
        "tid": threading.get_ident() & 0xFFFF,
        "start_ms": round(start_ms, 3),
        "dur_ms": round(dur, 3) if dur > 0.0 else 0.0,
        "clock": "host",
        "tags": tags,
    }


class TestHostRecords:
    """Host spans a tracer closes are kept as compact records and read back
    as the dicts it used to build eagerly."""

    @pytest.mark.parametrize("sample_every, max_spans", [(1, 100), (3, 4)])
    def test_closed_roots_read_as_eager_dicts(self, monkeypatch, sample_every, max_spans):
        clock = _StepClock(2.0**-9)  # 1.953125 ms: exact on the epoch axis
        monkeypatch.setattr("repro.obs.tracer.time", clock)
        tracer = Tracer(sample_every=sample_every, max_spans=max_spans, threaded=True)
        starts = []
        for rid in range(20):
            starts.append(clock.time() * 1000.0)
            tags = {"error": "X"} if rid == 7 else {}
            tracer.record_root(
                "serve.request", starts[-1], request_id=rid, cache="hit", **tags
            )
        total = 0
        for _ in range(20):
            total += round(1.953125, 3)
        assert tracer.counts == {"serve.request": 20}
        assert tracer.totals == {"serve.request": total}
        retained = [rid for rid in range(20) if (rid + 1) % sample_every == 0]
        kept = retained[-max_spans:]
        assert tracer.dropped == len(retained) - len(kept)
        spans = tracer.spans()
        assert len(spans) == len(kept) == len(tracer)
        for rid, span in zip(kept, spans):
            assert len(span["trace_id"]) == 16 and len(span["span_id"]) == 8
            int(span["trace_id"], 16), int(span["span_id"], 16)
            tags = {"request_id": rid, "cache": "hit"}
            if rid == 7:
                tags["error"] = "X"
            start = starts[rid]
            assert span == _eager_host_span(
                "serve.request", span["trace_id"], span["span_id"],
                start, start + 1.953125, tags,
            )
            assert list(span) == list(_eager_host_span("", "", "", 0.0, 0.0, tags))
        # Formatted once per read, the same on every read; one trace per span.
        assert tracer.spans() == spans
        assert len({s["trace_id"] for s in spans}) == len(spans)
        assert json.loads(json.dumps(to_chrome(spans)))["traceEvents"]

    def test_records_and_dicts_share_the_ring(self):
        tracer = Tracer(max_spans=10)
        other = TraceContext.mint()
        tracer.record(vspan("match", 1, 0, 10))
        tracer.record_root("serve.request", time.time() * 1000.0, cache="hit")
        shipped = make_span("shard.run", other, 1.0, 2.5, pid=4242, tid=7, shard=0)
        assert tracer.adopt([shipped]) == 1
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["match", "serve.request", "shard.run"]
        assert spans[2] is shipped  # an adopted dict passes through unchanged
        assert tracer.spans(name="shard.run") == [shipped]
        assert tracer.spans(trace_id=other.trace_id) == [shipped]
        assert [s["name"] for s in tracer.spans(last=2)] == ["serve.request", "shard.run"]

    def test_adopt_counts_what_the_ring_drops(self):
        tracer = Tracer(max_spans=3)
        ctx = TraceContext.mint()
        assert tracer.adopt([make_span(f"s{i}", ctx, 0.0, 1.0) for i in range(5)]) == 5
        assert tracer.dropped == 2
        assert [s["name"] for s in tracer.spans()] == ["s2", "s3", "s4"]
        tracer.adopt([make_span("s5", ctx, 0.0, 1.0)])
        assert tracer.dropped == 3 and tracer.counts == {}

    def test_name_filter_reads_no_other_record(self, monkeypatch):
        from repro.obs import tracer as tracer_module

        tracer = Tracer(threaded=True)
        for _ in range(50):
            tracer.record_root("serve.request", time.time() * 1000.0, cache="hit")
        with tracer.span("shard.run", shard=1):
            pass
        built = []
        real = tracer_module._span_dict
        monkeypatch.setattr(
            tracer_module, "_span_dict", lambda rec: built.append(rec) or real(rec)
        )
        (span,) = tracer.spans(name="shard.run")
        assert span["tags"] == {"shard": 1} and len(built) == 1


def _virtual_spans(graph):
    obs = Observability(tracing=True)
    TDFSEngine(TDFSConfig(num_warps=4), RunContext(obs=obs)).run(
        graph, get_pattern("P3")
    )
    return obs.tracer.spans()


def _host_spans(graph):
    config = TDFSConfig(num_warps=4, shards=2, trace_context=TraceContext.mint())
    return TDFSEngine(config).run(graph, get_pattern("P3")).op_spans


@pytest.mark.parametrize("clock, make", [("virtual", _virtual_spans), ("host", _host_spans)])
def test_one_exporter_one_event_schema(small_plc, clock, make):
    """A traced virtual run and a sharded host trace that crossed process
    boundaries go through the same exporter and yield the same schema."""
    spans = make(small_plc)
    assert spans and {s["clock"] for s in spans} == {clock}
    doc = json.loads(json.dumps(to_chrome(spans)))
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert len(xs) == len(spans)
    for e in xs:
        assert set(e) == {"name", "ph", "ts", "dur", "pid", "tid", "args"}
        assert e["ts"] >= 0 and e["dur"] >= 0
    # Exactly one named process row per pid.
    assert sorted(m["pid"] for m in meta) == sorted({e["pid"] for e in xs})
    assert all(m["name"] == "process_name" and m["args"]["name"] for m in meta)
    if clock == "host":
        assert len({e["pid"] for e in xs}) >= 2
        assert {"shard.run", "shard.dispatch"} <= {e["name"] for e in xs}


class TestObservabilityBundle:
    def test_default_is_null_tracer(self):
        obs = Observability()
        assert not obs.tracing
        assert obs.tracer is NULL_TRACER

    def test_tracing_on(self):
        obs = Observability(tracing=True, sample_every=3)
        assert obs.tracing
        assert obs.tracer.sample_every == 3

    def test_flat_delegates(self):
        obs = Observability()
        obs.registry.counter("c").inc()
        assert obs.flat() == {"c": 1}


# --------------------------------------------------------------------- #
# Engine integration (the acceptance contract)
# --------------------------------------------------------------------- #

#: Forces timeout decompositions on the test graphs: τ far below the
#: default so the straggler subtrees split into Q_task.
STEAL_CFG = TDFSConfig(num_warps=8, tau_cycles=500, chunk_size=2)


class TestEngineMetrics:
    def test_result_carries_metrics_snapshot(self, small_plc):
        result = TDFSEngine(TDFSConfig(num_warps=8)).run(
            small_plc, get_pattern("P1")
        )
        m = result.metrics
        assert m["engine.matches"] == result.count
        assert m["sim.events"] > 0
        assert m["queue.enqueued"] == m["queue.dequeued"]

    @pytest.mark.parametrize("view", sorted(METRIC_VIEWS))
    def test_typed_view_reads_the_store(self, straggler_graph, view):
        """Every typed statistic is a view: some engine writes its key (the
        host-filter cycles are STMatch's), and the attribute (``timeouts``,
        ``queue.peak_tasks``, …) reads exactly that, read-only."""
        key = METRIC_VIEWS[view]
        runs = [
            match(straggler_graph, "P3", engine=name, config=STEAL_CFG)
            for name in ("tdfs", "stmatch")
        ]
        wrote = [r for r in runs if key in r.metrics]
        assert wrote, f"no engine writes {key}"
        for result in wrote:
            assert read_view(result, view) == result.metrics[key]
            with pytest.raises(AttributeError):
                setattr(result, view.split(".")[0], 0)

    def test_metrics_match_result_under_steals(self, straggler_graph):
        result = TDFSEngine(STEAL_CFG).run(straggler_graph, get_pattern("P3"))
        assert result.timeouts > 0  # the config must actually decompose
        assert result.queue.enqueued == result.queue.dequeued > 0
        assert result.intersections > 0

    def test_caller_obs_accumulates_across_runs(self, small_plc):
        obs = Observability()
        cfg, ctx = TDFSConfig(num_warps=8), RunContext(obs=obs)
        r1 = TDFSEngine(cfg, ctx).run(small_plc, get_pattern("P1"))
        r2 = TDFSEngine(cfg, ctx).run(small_plc, get_pattern("P1"))
        assert obs.flat()["engine.matches"] == r1.count + r2.count
        # ... while each result stays exactly its own run.
        assert r2.metrics == r1.metrics
        assert r2.metrics["engine.matches"] == r2.count

    def test_tracing_off_changes_nothing(self, straggler_graph):
        """Zero-overhead contract: an armed-but-not-tracing Observability
        yields the byte-identical simulation (event counts, cycles, counts)
        as the default path, and records no spans."""
        plain = TDFSEngine(STEAL_CFG).run(straggler_graph, get_pattern("P3"))
        obs = Observability(tracing=False)
        instrumented = TDFSEngine(STEAL_CFG, RunContext(obs=obs)).run(
            straggler_graph, get_pattern("P3")
        )
        assert instrumented.count == plain.count
        assert instrumented.elapsed_cycles == plain.elapsed_cycles
        assert instrumented.timeouts == plain.timeouts
        assert (
            instrumented.metrics["sim.events"] == plain.metrics["sim.events"]
        )
        assert len(obs.tracer) == 0

    def test_tracing_on_does_not_perturb_the_simulation(self, straggler_graph):
        plain = TDFSEngine(STEAL_CFG).run(straggler_graph, get_pattern("P3"))
        obs = Observability(tracing=True)
        traced = TDFSEngine(STEAL_CFG, RunContext(obs=obs)).run(
            straggler_graph, get_pattern("P3")
        )
        assert traced.count == plain.count
        assert traced.elapsed_cycles == plain.elapsed_cycles
        assert traced.metrics["sim.events"] == plain.metrics["sim.events"]

    def test_traced_run_has_per_warp_spans(self, straggler_graph, tmp_path):
        """The `repro profile --trace` acceptance shape, driven directly."""
        obs = Observability(tracing=True)
        result = TDFSEngine(STEAL_CFG, RunContext(obs=obs)).run(
            straggler_graph, get_pattern("P3")
        )
        names = set(obs.tracer.counts)
        assert {"match", "intersect"} <= names
        assert result.timeouts > 0 and "steal" in names
        # Steal spans account for every decomposition and work steal.
        assert obs.tracer.counts["steal"] == result.timeouts + result.steals
        # Spans are attributed to real warps of this run.
        warps = {s["tid"] for s in obs.tracer.spans()}
        assert warps <= set(range(STEAL_CFG.num_warps))
        assert len(warps) > 1
        # And the export is valid Chrome trace JSON.
        out = tmp_path / "trace.json"
        out.write_text(json.dumps(to_chrome(obs.tracer.spans())))
        doc = json.loads(out.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in spans} == names
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in spans)

    def test_reuse_hits_counted(self, small_plc):
        result = TDFSEngine(TDFSConfig(num_warps=8)).run(
            small_plc, get_pattern("P5")  # has reusable intersections
        )
        assert result.reuse_hits > 0
        off = TDFSEngine(TDFSConfig(num_warps=8, enable_reuse=False)).run(
            small_plc, get_pattern("P5")
        )
        assert off.reuse_hits == 0 and off.count == result.count

    def test_metrics_excluded_from_cache_fingerprint(self):
        """The obs bundle is run wiring: it lives on ``RunContext``, which no
        fingerprint ever sees, and no config field shadows a context field."""
        from dataclasses import fields

        assert "obs" in {f.name for f in fields(RunContext)}
        assert not {f.name for f in fields(TDFSConfig)} & {
            f.name for f in fields(RunContext)
        }

    def test_match_api_passes_obs_through(self, small_plc):
        obs = Observability()
        result = match(
            small_plc,
            get_pattern("P1"),
            config=TDFSConfig(num_warps=8),
            ctx=RunContext(obs=obs),
        )
        flat = obs.flat()
        assert all(flat[k] == v for k, v in result.metrics.items())

    def test_to_dict_includes_metrics(self, small_plc):
        result = TDFSEngine(TDFSConfig(num_warps=8)).run(
            small_plc, get_pattern("P1")
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["metrics"]["engine.matches"] == result.count

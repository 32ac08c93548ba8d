"""Integration tests for serving-stack observability (repro.obs.ops PR).

The acceptance criteria of the PR are asserted here directly:

* the ``slo.*`` burn-rate gauges published by a live service reconcile
  **exactly** with the windowed counts in ``ServeMetrics`` (no second
  bookkeeping path);
* a faulted run produces an incident bundle whose stitched Chrome trace
  contains the failing request's spans across at least two processes
  (coordinator + shard worker);
* worker-kill faults (the ``repro.faults`` axis) trigger dump-on-error
  with a parseable, renderable bundle.

Plus: time-driven ServeMetrics windows, the one service report renderer,
and the ``repro top`` / ``repro incident`` CLI.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import TDFSConfig, from_edges
from repro.cli import main
from repro.core.engine import match
from repro.faults import WorkerFaultKind, WorkerFaultPlan, WorkerFaultSpec
from repro.obs import SLO, SLOTracker, load_incident
from repro.obs.console import render_top, shard_utilization
from repro.serve import MatchRequest, MatchService, ServeConfig, ServeMetrics


@pytest.fixture
def k5():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    return from_edges(edges, name="k5")


def _service(**overrides) -> MatchService:
    defaults = dict(
        workers=1,
        match_config=TDFSConfig(num_warps=4),
    )
    defaults.update(overrides)
    return MatchService(ServeConfig(**defaults))


# --------------------------------------------------------------------------- #
# ServeMetrics time windows
# --------------------------------------------------------------------------- #


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestServeMetricsWindows:
    def test_latency_percentiles_rotate_with_time(self):
        clock = FakeClock()
        metrics = ServeMetrics(window_s=60.0, clock=clock)
        metrics.latency_ms.observe(500.0)
        clock.t += 61.0
        metrics.latency_ms.observe(2.0)
        snap = metrics.snapshot()
        assert snap["latency_ms"]["p99"] == 2.0  # the spike aged out
        assert snap["latency_ms"]["count"] == 2  # cumulative count kept

    def test_windowed_qps_and_snapshot_reconcile(self):
        clock = FakeClock()
        metrics = ServeMetrics(clock=clock)
        for _ in range(6):
            metrics.outcomes.record(10.0)
        metrics.outcomes.record(10.0, error=True)
        clock.t += 30.0
        assert metrics.snapshot()["qps_60s"] == pytest.approx(7 / 60.0, abs=1e-3)
        assert metrics.outcomes.counts(60.0)[:2] == (7, 1)
        clock.t += 31.0  # everything now older than 60 s
        assert metrics.snapshot()["qps_60s"] == 0.0

    def test_render_format_is_stable(self):
        # CI's drain smoke greps the CLI's own drain line; the report
        # renders from a bare metrics snapshot (no caches, SLOs, supervisor).
        text = render_top(ServeMetrics().snapshot(), title="repro serve")
        assert "graceful drain complete" not in text  # drain line is CLI's
        assert text.startswith("=== repro serve ===")
        assert "requests          : 0 submitted, 0 completed" in text
        assert "plan cache" not in text and "alerts" not in text


# --------------------------------------------------------------------------- #
# SLO gauges reconcile with the live service (acceptance criterion)
# --------------------------------------------------------------------------- #


class TestServiceSLOs:
    def test_gauges_reconcile_exactly_with_serve_metrics(self, k5):
        slos = (
            SLO("lat", kind="latency", objective=0.9, threshold_ms=0.0001),
            SLO("err", kind="error_rate", objective=0.999),
        )
        with _service(slos=slos) as service:
            service.register_graph("g", k5)
            for _ in range(4):
                assert service.query("g", "P1").ok
            flat = service.metrics.registry.flat()
            outcomes = service.metrics.outcomes
            for slo in slos:
                for window_s in slo.windows_s:
                    label = f"{int(window_s)}s"
                    if slo.kind == "latency":
                        total, errors, over = outcomes.counts(
                            window_s, threshold_ms=slo.threshold_ms
                        )
                        bad = errors + over
                    else:
                        total, errors, _ = outcomes.counts(window_s)
                        bad = errors
                    expected = SLOTracker.burn_rate(total, bad, slo.objective)
                    assert flat[f"slo.{slo.name}.burn.{label}"] == expected
            # The impossible latency threshold makes every request "bad":
            # burn = 1/budget = 10 >= burn_alert in every window.
            assert flat["slo.lat.alert"] == 1
            assert flat["slo.err.alert"] == 0
            assert service.slo_tracker.active_alerts() == ["lat"]
            snap = service.snapshot()
            assert snap["alerts"] == ["lat"]
            assert any(e["kind"] == "slo.breach"
                       for e in service.flight.events())

    def test_slo_breach_can_trigger_incident_dump(self, k5, tmp_path):
        slos = (SLO("lat", objective=0.9, threshold_ms=0.0001),)
        with _service(slos=slos, dump_on_error=str(tmp_path)) as service:
            service.register_graph("g", k5)
            assert service.query("g", "P1").ok
            path = service.incident_path
            assert path is not None and os.path.exists(path)
            bundle = load_incident(path)
            assert bundle["reason"] == "slo.breach"
            assert bundle["slos"][0]["name"] == "lat"


# --------------------------------------------------------------------------- #
# Cross-process stitching through shards (acceptance criterion)
# --------------------------------------------------------------------------- #


class TestCrossProcessTraces:
    def test_faulted_sharded_request_stitches_two_processes(self, k5, tmp_path):
        config = TDFSConfig(num_warps=4, shards=2)
        with _service(
            match_config=config,
            shard_faults=(0,),
            dump_on_error=str(tmp_path / "bundle.json"),
            enable_result_cache=False,
        ) as service:
            service.tracer.clear()  # the ring is process-wide
            service.register_graph("g", k5)
            response = service.query("g", "P1")
            assert response.ok
            baseline = match(k5, "P1", config=TDFSConfig(num_warps=4))
            assert response.count == baseline.count
            path = service.incident_path
        # The injected shard-0 kill is a fault event -> auto dump fired.
        assert path == str(tmp_path / "bundle.json")
        bundle = load_incident(path)
        assert bundle["reason"] == "shard.failure"
        (fail,) = [e for e in bundle["flight"]["events"]
                   if e["kind"] == "shard.failure"]
        trace_id = fail["trace_id"]
        # The failing request's spans cross >= 2 processes in the stitched
        # Chrome trace: the coordinator pid plus shard-worker pid(s).
        events = [
            e for e in bundle["chrome_trace"]["traceEvents"]
            if e.get("ph") == "X" and e["args"].get("trace_id") == trace_id
        ]
        pids = {e["pid"] for e in events}
        assert len(pids) >= 2, f"expected >=2 pids, got {pids}"
        names = {e["name"] for e in events}
        assert "shard.run" in names and "shard.dispatch" in names
        # Shard-utilization aggregation sees the same child processes.
        util = shard_utilization(bundle["spans"])
        assert set(util) == {"s0", "s1"}
        assert util["s0"]["runs"] >= 2  # killed attempt + re-execution
        # Each worker measured itself (the parent cannot see unreaped ones),
        # and `repro top` prints it.
        assert all(u["cpu_ms"] > 0 and u["rss_mb"] > 1 for u in util.values())
        assert "cpu ms" in render_top({"shard_util": util})

    def test_trace_context_threads_through_queue_and_worker(self, k5):
        with _service() as service:
            service.tracer.clear()  # the ring is process-wide
            service.register_graph("g", k5)
            assert service.query("g", "P2").ok
            spans = service.tracer.spans()
            request_spans = [s for s in spans if s["name"] == "serve.request"]
            engine_spans = [s for s in spans if s["name"] == "engine.run"]
            assert request_spans and engine_spans
            # worker span and engine span belong to the same trace
            assert (request_spans[0]["trace_id"]
                    == engine_spans[0]["trace_id"])
            assert engine_spans[0]["tags"]["engine"] == "tdfs"


# --------------------------------------------------------------------------- #
# Flight recorder + dump-on-error under worker kills
# --------------------------------------------------------------------------- #


class TestDumpOnWorkerFault:
    def test_worker_kill_produces_parseable_bundle(self, k5, tmp_path):
        from repro.serve import SupervisorConfig

        plan = WorkerFaultPlan(schedule=(
            WorkerFaultSpec(WorkerFaultKind.KILL, request_id=1, delivery=1),
        ))
        with _service(
            worker_faults=plan,
            supervisor=SupervisorConfig(
                checkpoint_every_events=5,
                watchdog_interval_s=0.02,
                seed=0,
            ),
            dump_on_error=str(tmp_path),
            enable_result_cache=False,
        ) as service:
            service.register_graph("g", k5)
            service.tracer.clear()  # the ring is process-wide
            response = service.query("g", "P1", timeout=60.0)
            assert response.ok  # redelivered after the kill
            path = service.incident_path
            assert path is not None
            # Every ticket is settled: nothing may still look in flight.
            assert service.tracer.active_spans() == []
        bundle = load_incident(path)
        assert bundle["reason"] == "worker.crash"
        # The killed delivery is a finished span tagged with its error,
        # not a phantom in-flight request.
        assert not [s for s in bundle["active_spans"] if s["name"] == "serve.request"]
        (killed,) = [s for s in bundle["spans"] if s["name"] == "serve.request"]
        assert killed["tags"]["delivery"] == 0
        assert killed["tags"]["error"] == "WorkerCrash"
        kinds = bundle["flight"]["counts"]
        assert kinds.get("worker.crash", 0) >= 1
        assert kinds.get("request.admitted", 0) >= 1
        # Only the FIRST fault dumps; later faults must not overwrite it.
        assert bundle["pid"] == os.getpid()

    def test_dump_incident_explicit_reason(self, k5, tmp_path):
        with _service() as service:
            service.register_graph("g", k5)
            service.query("g", "P1")
            path = service.dump_incident(
                "manual", path=str(tmp_path / "manual.json")
            )
        bundle = load_incident(path)
        assert bundle["reason"] == "manual"
        assert bundle["metrics"]["counters"]["completed"] >= 1
        assert bundle["info"]["graphs"] == "g"


# --------------------------------------------------------------------------- #
# Console rendering
# --------------------------------------------------------------------------- #


class TestHitPath:
    """A result-cache hit: its span is a record read back as the eager dict,
    and its books are those of every earlier version of the service."""

    def test_fixed_script_books(self):
        from repro.errors import ReproError

        edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if (i + j) % 4]
        svc = _service()
        svc.register_graph("g", from_edges(edges, name="g6"))
        hits = [svc.query("g", q).result_cache_hit for q in ("P1", "P1", "P2", "P1", "P2", "P2")]
        assert hits == [False, True, False, True, True, True]
        assert not svc.query("g", "P1", use_result_cache=False).result_cache_hit
        with pytest.raises(ReproError):
            svc.submit(MatchRequest("g", "P1", engine="nope"))
        svc.apply_edges("g", add=[(0, 4)])
        assert [svc.query("g", "P1").count for _ in range(2)] == [42, 42]
        delta = svc.match_delta("g", "P1", remove=[(0, 4)])
        assert (delta.count, delta.incremental) == (20, True)
        hits = [svc.query("g", q).result_cache_hit for q in ("P1", "P2", "P2")]
        assert hits == [True, False, True]
        tickets = [svc.submit(MatchRequest("g", "P2")) for _ in range(5)]
        assert [t.result().count for t in tickets] == [2] * 5
        svc.stop()
        snap = svc.metrics.snapshot()
        counters = {k: v for k, v in snap["counters"].items() if v}
        assert counters == {
            "completed": 17, "delta_incremental": 1, "delta_lost": 22,
            "delta_requests": 1, "graph_updates": 2, "plan_compiles": 2,
            "result_cache_hits": 12, "submitted": 17,
        }
        assert snap["batch_size"]["count"] == 5
        assert svc.cache_stats() == {
            "plan_cache": {
                "hits": 3, "misses": 2, "evictions": 0,
                "size": 2, "capacity": 256, "hit_rate": 0.6,
            },
            "result_cache": {
                "hits": 13, "misses": 8, "evictions": 0,
                "size": 5, "capacity": 1024, "hit_rate": 0.619,
            },
        }

    @pytest.mark.parametrize("sample_every, max_spans", [(1, 64), (4, 3)])
    def test_hit_spans_read_as_eager_dicts(self, k5, sample_every, max_spans):
        from repro.obs import Tracer

        svc = _service()
        svc.register_graph("k5", k5)
        svc.query("k5", "P1")
        svc.tracer = Tracer(sample_every=sample_every, max_spans=max_spans, threaded=True)
        rids = [svc.submit(MatchRequest("k5", "P1")).result().request_id for _ in range(12)]
        svc.stop()
        tracer = svc.tracer
        assert tracer.counts == {"serve.request": 12}
        kept = [r for i, r in enumerate(rids) if (i + 1) % sample_every == 0][-max_spans:]
        spans = tracer.spans()
        assert [s["tags"] for s in spans] == [{"request_id": r, "cache": "hit"} for r in kept]
        assert tracer.totals["serve.request"] >= sum(s["dur_ms"] for s in spans)
        for span in spans:
            assert list(span) == [
                "name", "trace_id", "span_id", "parent_id", "pid", "tid",
                "start_ms", "dur_ms", "clock", "tags",
            ]
            assert span["name"] == "serve.request" and span["clock"] == "host"
            assert len(span["trace_id"]) == 16 and len(span["span_id"]) == 8
            assert span["parent_id"] is None and span["pid"] == os.getpid()
            assert span["start_ms"] == round(span["start_ms"], 3)
            assert span["dur_ms"] == round(span["dur_ms"], 3) >= 0.0

    def test_snapshot_reads_no_hit_record(self, k5, monkeypatch):
        from repro.obs import tracer as tracer_module

        svc = _service()
        svc.register_graph("k5", k5)
        for _ in range(20):
            svc.query("k5", "P1")
        svc.stop()
        built = []
        real = tracer_module._span_dict
        monkeypatch.setattr(
            tracer_module, "_span_dict", lambda rec: built.append(rec) or real(rec)
        )
        assert svc.snapshot()["counters"]["result_cache_hits"] == 19
        assert all(rec[0] == "shard.run" for rec in built)  # none of the hits


class TestConsole:
    def test_ops_snapshot_renders(self, k5):
        with _service(slos=(SLO("lat", objective=0.9),)) as service:
            service.register_graph("g", k5)
            service.query("g", "P1")
            frame = render_top(service.snapshot())
        assert frame.startswith("=== repro top ===")
        assert "requests          : 1 submitted, 1 completed" in frame
        assert "slo lat" in frame
        assert "alerts            :" in frame


# --------------------------------------------------------------------------- #
# CLI: repro top / repro incident / serve flags
# --------------------------------------------------------------------------- #


class TestOpsCLI:
    def test_top_in_process(self, capsys):
        rc = main([
            "top", "--dataset", "dblp", "--requests", "4", "--frames", "2",
            "--workers", "1", "--slo", "error_rate:0.999",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top (frame 1/2)" in out
        assert "repro top (frame 2/2)" in out
        assert "slo error-rate" in out

    def test_incident_command(self, tmp_path, capsys):
        with _service() as service:
            service.register_graph(
                "g",
                from_edges([(0, 1), (1, 2), (2, 0)], name="t"),
            )
            service.query("g", "P1")
            path = service.dump_incident(
                "cli-test", path=str(tmp_path / "b.json")
            )
        assert main(["incident", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("=== repro incident: cli-test ===")

    def test_incident_command_bad_file(self, tmp_path, capsys):
        rc = main(["incident", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_slo_spec_parsing(self):
        from repro.cli import _parse_slo
        from repro.errors import ReproError

        slo = _parse_slo("latency:0.95:50")
        assert (slo.name, slo.kind, slo.objective, slo.threshold_ms) == (
            "latency-50ms", "latency", 0.95, 50.0,
        )
        assert _parse_slo("error_rate:0.999").name == "error-rate"
        for bad in ("latency", "availability:0.9", "latency:fast"):
            with pytest.raises(ReproError):
                _parse_slo(bad)

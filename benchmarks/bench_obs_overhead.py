"""Observability overhead: what tracing off and tracing on cost.

The ops-tracing path (PR: ``repro.obs.ops``) is armed per-request by
setting ``TDFSConfig.trace_context``; when it is ``None`` the only added
work is a handful of constant-count ``is not None`` guards per dispatch.
This bench measures both sides; the host-clock record is the benchmark
spine's ``trace.overhead_ratio`` row (``benchmarks/spine``), so nothing
here asserts on a timing:

* **tracing off** — for each cell, two independent min-of-N series with
  tracing disabled (one labeled *baseline*, one *off*) are timed in
  interleaved rounds; their gap is the noise floor the *on* column is
  read against.
* **tracing on** — the per-cell overhead of a minted
  :class:`TraceContext` (spans recorded inside shard worker processes,
  pickled back, adopted by the tracer) is recorded to the session metrics
  TSV (``results/bench-metrics.tsv``) as ``obs.on_overhead_pct`` so the
  fig-9 grid documents the price of a fully traced request.

Cells run with ``shards=2`` — the configuration where tracing-on does
real cross-process work; with one shard both modes are near-identical
and the comparison would be vacuous.  Counts must agree across all three
series: tracing must never change results.

* **a cached hit** — host µs per result-cache hit with the process ops
  tracer (:func:`repro.obs.ops_tracer`, where a hit records its
  ``serve.request`` span) enabled and disabled, the fastest of
  ``HIT_REPEATS`` replays each, alternating, and their ratio: the share
  of a hit's cost its span takes.  Printed only; the tracer's switch is
  restored afterwards.
"""

import time

import pytest
from bench_serve_throughput import HIT_REPEATS, PATTERNS, replay, us_per_hit
from conftest import pedantic

from repro.bench.harness import SESSION_METRICS, patterns_for
from repro.bench.reporting import Table
from repro.core.config import TDFSConfig
from repro.core.engine import match
from repro.graph.datasets import DATASETS, load_dataset
from repro.obs import TraceContext, ops_tracer
from repro.serve import MatchService, ServeConfig

ROUNDS = 3

CELLS = [("dblp", None), ("web-google", None)]


def _time_series(graph, pattern, config):
    t0 = time.perf_counter()
    result = match(graph, pattern, engine="tdfs", config=config)
    return time.perf_counter() - t0, result


def run_overhead(dataset: str) -> Table:
    graph = load_dataset(dataset)
    patterns = patterns_for(["P1", "P2", "P3"], quick=["P1"])
    cfg_off = TDFSConfig(
        num_warps=16, shards=2, device_memory=DATASETS[dataset].device_memory
    )
    table = Table(
        f"Obs overhead on {dataset} (shards=2)",
        ["pattern", "instances", "baseline", "tracing off", "tracing on",
         "off ovh", "on ovh", "spans"],
    )
    for pname in patterns:
        cfg_on = cfg_off.replace(
            trace_context=TraceContext.mint(bench="obs-overhead", cell=pname)
        )
        t_base, t_off, t_on = [], [], []
        counts = set()
        spans = 0
        for _ in range(ROUNDS):
            for series, cfg in ((t_base, cfg_off), (t_off, cfg_off),
                                (t_on, cfg_on)):
                elapsed, result = _time_series(graph, pname, cfg)
                series.append(elapsed)
                counts.add(result.count)
                if cfg is cfg_on:
                    spans = len(result.op_spans or [])
        assert len(counts) == 1, (
            f"{dataset}/{pname}: tracing changed the match count: {counts}"
        )
        base, off, on = min(t_base), min(t_off), min(t_on)
        off_ratio = off / base if base > 0 else 1.0
        assert spans > 0, (
            f"{dataset}/{pname}: tracing-on run recorded no spans; the "
            "overhead column would be measuring nothing"
        )
        off_pct = (off_ratio - 1.0) * 100.0
        on_pct = (on / off - 1.0) * 100.0 if off > 0 else 0.0
        table.add_row(
            pname, next(iter(counts)),
            f"{base * 1e3:.1f} ms", f"{off * 1e3:.1f} ms",
            f"{on * 1e3:.1f} ms",
            f"{off_pct:+.1f}%", f"{on_pct:+.1f}%", spans,
        )
        SESSION_METRICS.append((dataset, pname, "tdfs[obs]", {
            "obs.host_ms_base": round(base * 1e3, 3),
            "obs.host_ms_off": round(off * 1e3, 3),
            "obs.host_ms_on": round(on * 1e3, 3),
            "obs.off_overhead_pct": round(off_pct, 2),
            "obs.on_overhead_pct": round(on_pct, 2),
            "obs.spans": spans,
        }))
    table.add_note(
        f"min of {ROUNDS} interleaved rounds per series; counts and span "
        "presence asserted, timings recorded only"
    )
    table.add_note(
        "tracing-on overhead is recorded per cell in bench-metrics.tsv "
        "(obs.on_overhead_pct)"
    )
    return table


@pytest.mark.parametrize("dataset", [d for d, _ in CELLS])
def test_obs_overhead(benchmark, report, dataset):
    report(pedantic(benchmark, lambda: run_overhead(dataset)))


def run_hit_overhead() -> Table:
    dataset, n_requests = "dblp", 300
    config = TDFSConfig(num_warps=8, device_memory=DATASETS[dataset].device_memory)
    tracer = ops_tracer()
    enabled = tracer.enabled
    us = {True: float("inf"), False: float("inf")}
    with MatchService(ServeConfig(match_config=config, max_queue=n_requests)) as svc:
        svc.register_graph(dataset, load_dataset(dataset))
        replay(svc, dataset, len(PATTERNS))  # the cold runs fill the cache
        try:
            for _ in range(HIT_REPEATS):
                for spans_on in (True, False):
                    tracer.enabled = spans_on
                    us[spans_on] = min(us[spans_on], us_per_hit(svc, dataset, n_requests))
        finally:
            tracer.enabled = enabled
    table = Table(
        f"Obs overhead on {dataset} cached hits",
        ["requests", "us/hit spans on", "us/hit spans off", "on / off"],
    )
    table.add_row(
        n_requests, f"{us[True]:.2f}", f"{us[False]:.2f}", f"{us[True] / us[False]:.3f}"
    )
    table.add_note(
        f"fastest of {HIT_REPEATS} alternating replays per arm; timings "
        "printed only, no bound yet"
    )
    return table


def test_obs_hit_overhead(benchmark, report):
    report(pedantic(benchmark, run_hit_overhead))

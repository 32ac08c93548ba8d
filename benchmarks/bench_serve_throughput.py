"""Serving-layer throughput: plan/result caching vs cold execution.

Not a paper table — this measures the ``repro.serve`` subsystem added on
top of the reproduction: a repeated workload (3 patterns cycled) replayed
against a :class:`~repro.serve.MatchService`, once with the plan and
result caches enabled and once fully cold.  The cached arm should show a
large throughput win (most requests are result-cache hits; nearly all
plan compiles are amortized) at identical match counts.  The cached arm
then replays five more times, every request a hit, and reports the
fastest replay's host microseconds per hit: the serving layer's fixed
cost, where a regression in the hit path shows.  The SLO arm prices that
hit with no SLO and with one latency SLO as the service's outcome window
fills: every settle ticks the SLOs over that window (gauges and rising
edges, no status objects), so the second column must not grow with the
first.  The cold-burst arm queues three uncached requests of different
patterns before a fresh service's pool starts, checks that one worker
takes them as one batch, and prices the burst against bare ``match()`` of
the same cells: the serving layer's overhead on a cold run.

Wall-clock here is *host* time — the service, queue, and caches are real
concurrent code even though each match runs on the virtual GPU.
"""

import time
from unittest import mock

from conftest import pedantic

from repro.bench.harness import quick_mode
from repro.bench.reporting import Table
from repro.core.config import TDFSConfig
from repro.core.engine import match
from repro.graph.datasets import DATASETS, load_dataset
from repro.obs import SLO
from repro.serve import MatchRequest, MatchService, ServeConfig

DATASET = "web-google"
PATTERNS = ["P1", "P2", "P7"]
#: Replays of hits timed per cell; each arm keeps the fastest (the hit's
#: own cost, not a slow spell of the host).
HIT_REPEATS = 5
#: Outcomes the SLO arm's window holds when it times a replay of hits.
RETAINED = (1_000, 10_000, 60_000)
#: The cold-burst arm's cells (the spine's serve-churn cold burst) and the
#: times it runs each side (it keeps the fastest).
COLD_PATTERNS = ("P2", "P5", "P7")
COLD_REPEATS = 5


def replay(service, graph_id: str, n_requests: int):
    tickets = [
        service.submit(
            MatchRequest(graph_id=graph_id, query=PATTERNS[i % len(PATTERNS)])
        )
        for i in range(n_requests)
    ]
    return [t.result(timeout=600.0) for t in tickets]


def us_per_hit(service, graph_id: str, n_requests: int) -> float:
    """Host µs per request of a replay that the result cache answers whole."""
    t0 = time.perf_counter()
    responses = replay(service, graph_id, n_requests)
    elapsed = time.perf_counter() - t0
    assert all(r.result_cache_hit for r in responses)
    return elapsed / n_requests * 1e6


def run_serve_throughput() -> Table:
    n_requests = 60 if quick_mode() else 300
    graph = load_dataset(DATASET)
    match_config = TDFSConfig(
        num_warps=8, device_memory=DATASETS[DATASET].device_memory
    )
    expected = {
        p: match(graph, p, config=match_config).count for p in PATTERNS
    }

    table = Table(
        f"serve throughput: {DATASET}, {'x'.join(PATTERNS)} x {n_requests}",
        ["caches", "req/s", "mean ms", "p95 ms", "result hits", "compiles", "us/hit"],
    )
    counts_ok = True
    for cached in (True, False):
        service = MatchService(
            ServeConfig(
                workers=2,
                max_queue=n_requests,  # a replay queues every request at once
                enable_plan_cache=cached,
                enable_result_cache=cached,
                match_config=match_config,
            )
        )
        with service:
            service.register_graph(DATASET, graph)
            responses = replay(service, DATASET, n_requests)
            snap = service.snapshot()
            hit_us = (
                min(us_per_hit(service, DATASET, n_requests) for _ in range(HIT_REPEATS))
                if cached
                else None
            )
        counts_ok &= all(r.count == expected[r.query_name] for r in responses)
        table.add_row(
            "on" if cached else "off",
            f"{snap['qps']:.1f}",
            f"{snap['latency_ms']['mean']:.2f}",
            f"{snap['latency_ms']['p95']:.2f}",
            str(snap["counters"]["result_cache_hits"]),
            str(snap["counters"]["plan_compiles"]),
            "-" if hit_us is None else f"{hit_us:.1f}",
        )
    table.add_note(
        "counts identical to one-shot match() on both arms: "
        + ("yes" if counts_ok else "NO")
    )
    assert counts_ok
    return table


def run_slo_cost() -> Table:
    n_requests = 20 if quick_mode() else 100
    graph = load_dataset(DATASET)
    match_config = TDFSConfig(
        num_warps=8, device_memory=DATASETS[DATASET].device_memory
    )
    arms = {"none": (), "latency": (SLO("lat", threshold_ms=250.0),)}
    services = {
        arm: MatchService(ServeConfig(workers=2, match_config=match_config, slos=slos))
        for arm, slos in arms.items()
    }
    us = {(arm, retained): float("inf") for arm in arms for retained in RETAINED}
    with services["none"], services["latency"]:
        for service in services.values():
            service.register_graph(DATASET, graph)
            replay(service, DATASET, len(PATTERNS))  # the cold runs
        for retained in RETAINED:
            for _ in range(HIT_REPEATS):
                # The arms alternate, so a slow spell of the host hits both.
                for arm, service in services.items():
                    outcomes = service.metrics.outcomes
                    for _ in range(retained - len(outcomes)):
                        outcomes.record(1.0)
                    hit_us = us_per_hit(service, DATASET, n_requests)
                    us[arm, retained] = min(us[arm, retained], hit_us)
    table = Table(
        f"serve slo cost: {DATASET} hits, best of {HIT_REPEATS} x {n_requests}",
        ["retained outcomes", "us/hit no slo", "us/hit 1 latency slo", "ratio"],
    )
    for retained in RETAINED:
        bare, slo = us["none", retained], us["latency", retained]
        table.add_row(str(retained), f"{bare:.1f}", f"{slo:.1f}", f"{slo / bare:.2f}")
    return table


def cold_burst(graph, match_config) -> tuple[float, list]:
    """Host seconds from the first submission to the last answer of the
    cold cells, queued uncached before a fresh service's pool starts."""
    service = MatchService(ServeConfig(workers=2, match_config=match_config))
    service.register_graph(DATASET, graph)
    start = MatchService.start
    t0 = time.perf_counter()
    with mock.patch.object(MatchService, "start", lambda self: self):
        tickets = [
            service.submit(
                MatchRequest(graph_id=DATASET, query=p, use_result_cache=False)
            )
            for p in COLD_PATTERNS
        ]
    start(service)
    responses = [t.result(timeout=600.0) for t in tickets]
    elapsed = time.perf_counter() - t0
    service.stop()
    return elapsed, responses


def run_cold_burst() -> Table:
    graph = load_dataset(DATASET)
    match_config = TDFSConfig(
        num_warps=8, device_memory=DATASETS[DATASET].device_memory
    )
    expected = {p: match(graph, p, config=match_config).count for p in COLD_PATTERNS}
    bare_s = service_s = float("inf")
    for _ in range(COLD_REPEATS):
        # The sides alternate, so a slow spell of the host hits both.
        t0 = time.perf_counter()
        for p in COLD_PATTERNS:
            match(graph, p, config=match_config)
        bare_s = min(bare_s, time.perf_counter() - t0)
        elapsed, responses = cold_burst(graph, match_config)
        service_s = min(service_s, elapsed)
        assert [r.count for r in responses] == [expected[p] for p in COLD_PATTERNS]
        assert [r.batch_size for r in responses] == [len(COLD_PATTERNS)] * len(
            COLD_PATTERNS
        )
    table = Table(
        f"serve cold burst: {DATASET}, {'/'.join(COLD_PATTERNS)} queued uncached, "
        f"best of {COLD_REPEATS}",
        ["bare match() ms", "service cold ms", "ratio", "batch size"],
    )
    table.add_row(
        f"{bare_s * 1e3:.2f}",
        f"{service_s * 1e3:.2f}",
        f"{service_s / bare_s:.3f}",
        str(len(COLD_PATTERNS)),
    )
    table.add_note("counts identical to one-shot match(); one batch per burst")
    return table


def test_serve_throughput(benchmark, report):
    report(pedantic(benchmark, run_serve_throughput))


def test_serve_slo_cost(benchmark, report):
    report(pedantic(benchmark, run_slo_cost))


def test_serve_cold_burst(benchmark, report):
    report(pedantic(benchmark, run_cold_burst))

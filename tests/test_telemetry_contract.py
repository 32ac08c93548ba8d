"""The telemetry contract: every name a run or a service produces is in a
checked catalogue, and every catalogued name has a reader.

``tests/golden/telemetry.tsv`` (``kind  name  fold  read_by``) lists what a
fixed scenario set produces — one ``match`` per engine, two devices, two
shards, a ``match_delta`` on each path, a supervised service taking one
worker kill and one shed:

* ``metric`` — a key of ``MatchResult.metrics`` (``fold``: ``sum``, or
  ``max`` for ``.peak`` keys — the rule of ``repro.obs.fold_metrics``);
* ``counter`` / ``snapshot`` — a serve counter / a top-level key of
  ``MatchService.snapshot()``;
* ``span`` / ``flight`` — a span name / a flight-recorder event kind;
* ``tag`` — ``shard.run.<tag>``: a tag of the span a shard worker ships
  back (its reader quotes the bare tag name).

``read_by`` names a file *other than the writer* that mentions the name as
a quoted literal (the spine layer table, ``render_top``, the view table, a
test of behaviour); the test checks the file really does.  A new, renamed
or no-longer-read name fails by name.  To regenerate after a deliberate
change::

    PYTHONPATH=src python -m tests.test_telemetry_contract > tests/golden/telemetry.tsv

(new rows come out with an empty ``read_by``: fill it in, or drop the name).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import Observability, RunContext, TDFSConfig, available_engines, match
from repro.faults import WorkerFaultKind, WorkerFaultPlan, WorkerFaultSpec
from repro.graph.generators import power_law_cluster
from repro.obs import TraceContext, ops_tracer
from repro.serve import (
    AdmissionRejected,
    MatchRequest,
    MatchService,
    ServeConfig,
    SupervisorConfig,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "telemetry.tsv"
HEADER = "kind\tname\tfold\tread_by"

#: The names ``benchmarks/spine`` reads (``layers.COUNTERS`` /
#: ``PEAK_COUNTER`` and two lookups): BENCHMARK.json rows depend on them.
SPINE_METRICS = (
    "sim.events",
    "engine.intersections",
    "engine.reuse_hits",
    "queue.enqueued",
    "queue.dequeued",
    "queue.enqueue_failures",
    "queue.dequeue_failures",
    "warp.timeouts",
    "warp.steals",
    "shard.process_failures",
    "alloc.pages_in_use.peak",
)

#: Tiny τ and chunk: timeouts, ``Q_task`` traffic and steal spans are live.
STEAL = TDFSConfig(num_warps=8, tau_cycles=400, chunk_size=2)


def produced() -> set[tuple[str, str, str]]:
    """Run the scenario set; returns ``(kind, name, fold)`` rows."""
    graph = power_law_cluster(200, 3, p_triangle=0.6, seed=42, name="small-plc")
    rows: set[tuple[str, str, str]] = set()

    def metrics_of(result) -> None:
        assert result.error is None, result.error
        for key in result.metrics:
            rows.add(("metric", key, "max" if key.endswith(".peak") else "sum"))

    ops_tracer().clear()  # the ring is process-wide
    for engine in available_engines():
        metrics_of(match(graph, "P3", engine=engine, config=STEAL))
    obs = Observability(tracing=True)
    metrics_of(match(graph, "P3", config=STEAL, ctx=RunContext(obs=obs)))
    rows.update(("span", name, "-") for name in obs.tracer.counts)
    metrics_of(match(graph, "P3", config=STEAL.replace(num_gpus=2)))
    traced = STEAL.replace(shards=2, trace_context=TraceContext.mint(test="contract"))
    sharded = match(graph, "P3", config=traced)
    metrics_of(sharded)
    # The one span whose tags are read by name on the far side of a process
    # boundary (`repro top`'s per-shard row, the scaling bench's CPU ratio).
    rows.update(
        ("tag", f"shard.run.{tag}", "-")
        for span in sharded.op_spans
        if span["name"] == "shard.run"
        for tag in span["tags"]
    )

    def service_rows(service: MatchService) -> None:
        snap = service.snapshot()
        rows.update(("counter", name, "sum") for name in snap["counters"])
        rows.update(("snapshot", key, "-") for key in snap)
        rows.update(("flight", kind, "-") for kind in snap["flight"])
        for cache in service.cache_stats().values():  # the spine's hit ratios
            assert {"hits", "misses"} <= set(cache)

    kill = WorkerFaultPlan(
        schedule=(WorkerFaultSpec(WorkerFaultKind.KILL, request_id=1, at_checkpoint=1),)
    )
    supervised = MatchService(
        ServeConfig(
            workers=1,
            match_config=TDFSConfig(num_warps=8),
            supervisor=SupervisorConfig(
                watchdog_interval_s=0.02,
                heartbeat_timeout_s=0.4,
                checkpoint_every_events=30,
            ),
            worker_faults=kill,
        )
    )
    with supervised:
        supervised.register_graph("g", graph)
        killed = supervised.submit(MatchRequest(graph_id="g", query="P1"))
        assert killed.result(timeout=60.0).redeliveries == 1
        assert supervised.query("g", "P1").ok  # a cached base for the delta
        far = graph.num_vertices - 1
        assert supervised.match_delta("g", "P1", add=[(0, far)]).incremental
        assert not supervised.match_delta("g", "P2", add=[(1, far)]).incremental
        service_rows(supervised)

    overloaded = MatchService(ServeConfig(max_queue=2))  # never started
    overloaded.register_graph("g", graph)
    low = overloaded.submit(MatchRequest(graph_id="g", query="P1", priority=0))
    for _ in range(2):
        overloaded.submit(MatchRequest(graph_id="g", query="P1", priority=5))
    try:
        low.result(timeout=5.0)
    except AdmissionRejected:
        pass
    assert overloaded.snapshot()["counters"]["shed"] == 1
    service_rows(overloaded)
    overloaded.stop()

    rows.update(("span", span["name"], "-") for span in ops_tracer().spans())
    return rows


def golden() -> dict[tuple[str, str, str], str]:
    """``(kind, name, fold) -> read_by`` from the committed catalogue."""
    lines = GOLDEN.read_text().splitlines()
    assert lines[0] == HEADER, lines[0]
    table = {}
    for line in lines[1:]:
        kind, name, fold, read_by = line.split("\t")
        table[(kind, name, fold)] = read_by
    return table


def catalogue(rows: set[tuple[str, str, str]]) -> str:
    """The catalogue text for ``rows``, readers taken from the golden file."""
    readers = golden() if GOLDEN.exists() else {}
    lines = [HEADER] + [
        "\t".join(row + (readers.get(row, ""),)) for row in sorted(rows)
    ]
    return "\n".join(lines) + "\n"


def test_produced_names_equal_the_catalogue_and_every_row_has_a_reader():
    rows = produced()
    table = golden()
    assert rows - set(table) == set(), "produced but not catalogued"
    assert set(table) - rows == set(), "catalogued but no longer produced"
    assert catalogue(rows) == GOLDEN.read_text()
    for (kind, name, _fold), read_by in table.items():
        assert read_by, f"{kind} {name}: no reader — drop the name"
        assert read_by != "tests/test_telemetry_contract.py", (kind, name)
        text = (ROOT / read_by).read_text()
        # Spans and flight events all reach the incident bundle and the
        # Chrome export by kind; a statistic needs a reader that names it.
        literal = name.rpartition(".")[2] if kind == "tag" else name
        assert kind in ("span", "flight") or (
            f'"{literal}"' in text or f"'{literal}'" in text
        ), f"{kind} {name}: {read_by} does not mention it"
    # What BENCHMARK.json's per-layer rows are computed from.
    names = {(kind, name) for kind, name, _ in rows}
    assert {("metric", key) for key in SPINE_METRICS} <= names
    assert ("counter", "shed") in names


if __name__ == "__main__":
    sys.stdout.write(catalogue(produced()))

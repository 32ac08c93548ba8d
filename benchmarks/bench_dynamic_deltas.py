"""Dynamic deltas: incremental counting vs full re-match on small batches.

The point of :mod:`repro.dynamic` is that a small edge delta should cost
work proportional to the *affected* matches, not to the whole graph.  This
bench replays a seeded delta stream (the same generator the conformance
suite uses) against each cell, counts every successor graph twice — once
through the delta-anchored incremental path, once from scratch — and
asserts:

* **exactness** — the incremental count equals the full re-match on every
  batch (the hard invariant; a miss fails the bench);
* **work proportional to the delta** — summed over the stream, the
  incremental path seeds the engine with fewer initial tasks (delta-edge-
  anchored rows) than the full re-matches' directed-edge rows.  An exact
  count, the same on every host and every run.

Printed next to it, not asserted: virtual cycles and host wall-clock.  The
cycle columns are makespans — ``2·|E_Q|`` small kernels one after another,
each with its launch and idle-poll tail, against one 64-warp kernel — so
their sums do not compare work (the anchored side reads *higher* on every
cell here).  Host time on this path is measured and bounded by the spine's
``serve-churn`` workload (``benchmarks/spine``).  Per-cell task counts,
cycles and host timings land in ``results/bench-metrics.tsv`` via the
session dump.
"""

from __future__ import annotations

import time

import pytest
from conftest import pedantic

from repro.bench.harness import SESSION_METRICS, patterns_for, quick_mode
from repro.bench.reporting import Table
from repro.core.config import TDFSConfig
from repro.core.engine import TDFSEngine
from repro.dynamic import IncrementalMatcher, random_delta_stream
from repro.graph.datasets import DATASETS, load_dataset
from repro.query.patterns import get_pattern

#: Small-delta cells where matching dwarfs per-batch setup.  dblp and
#: web-google are the cheapest fig-9 datasets with non-trivial counts.
CELLS = ("dblp", "web-google")

BATCHES = 4
MAX_EDGES = 4
SEED = 9


def run_deltas(dataset: str) -> tuple[Table, dict[str, tuple[int, int]]]:
    config = TDFSConfig(device_memory=DATASETS[dataset].device_memory)
    graph = load_dataset(dataset)
    engine = TDFSEngine(config)
    matcher = IncrementalMatcher(config)
    patterns = patterns_for(["P1", "P3"], quick=["P1"])
    batches = 2 if quick_mode() else BATCHES
    table = Table(
        f"Incremental deltas on {dataset} ({batches} batches, "
        f"<= {MAX_EDGES} edges each)",
        [
            "pattern", "final count", "inc (tasks)", "full (tasks)",
            "inc (cycles)", "full (cycles)",
            "inc (host)", "full (host)", "host speedup",
        ],
    )
    tasks: dict[str, tuple[int, int]] = {}
    for pname in patterns:
        query = get_pattern(pname)
        base = engine.run(graph, query)
        assert base.error is None, f"{dataset}/{pname}: {base.error}"
        current, count = graph, base.count
        inc_s = full_s = 0.0
        inc_cycles = full_cycles = 0
        anchored = full_tasks = 0
        stream = random_delta_stream(
            current, batches, seed=SEED, max_edges=MAX_EDGES
        )
        for batch, successor in stream:
            t0 = time.perf_counter()
            out = matcher.count_delta(current, successor, batch, query, count)
            inc_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            full = engine.run(successor, query)
            full_s += time.perf_counter() - t0
            assert out.count == full.count, (
                f"{dataset}/{pname}: incremental {out.count} != "
                f"full {full.count} after {batch}"
            )
            assert out.incremental, (
                f"{dataset}/{pname}: small delta fell back to full "
                f"re-match ({out.fallback_reason})"
            )
            anchored += out.anchored_tasks
            full_tasks += successor.num_directed_edges
            inc_cycles += out.elapsed_cycles
            full_cycles += full.elapsed_cycles
            current, count = successor, out.count
        speedup = full_s / inc_s if inc_s else float("inf")
        tasks[pname] = (anchored, full_tasks)
        table.add_row(
            pname,
            count,
            f"{anchored:,}",
            f"{full_tasks:,}",
            f"{inc_cycles:,}",
            f"{full_cycles:,}",
            f"{inc_s * 1000:.1f} ms",
            f"{full_s * 1000:.1f} ms",
            f"{speedup:.2f}x",
        )
        SESSION_METRICS.append(
            (
                dataset,
                pname,
                "tdfs[delta]",
                {
                    "dynamic.inc_cycles": inc_cycles,
                    "dynamic.full_cycles": full_cycles,
                    "dynamic.inc_host_ms": round(inc_s * 1000.0, 3),
                    "dynamic.full_host_ms": round(full_s * 1000.0, 3),
                    "dynamic.anchored_tasks": anchored,
                    "dynamic.full_tasks": full_tasks,
                    "dynamic.batches": batches,
                },
            )
        )
    table.add_note(
        "counts asserted equal to from-scratch re-matching on every batch; "
        "every batch asserted to take the incremental path"
    )
    return table, tasks


@pytest.mark.parametrize("dataset", CELLS)
def test_dynamic_deltas(benchmark, report, dataset):
    table, tasks = pedantic(benchmark, lambda: run_deltas(dataset))
    report(table)
    # The acceptance bar: on small deltas, the engine is seeded with work
    # proportional to the delta, not to the graph — otherwise the subsystem
    # has no reason to exist.
    for pname, (anchored, full_tasks) in tasks.items():
        assert 0 < anchored < full_tasks, (
            f"{dataset}/{pname}: {anchored} anchored initial tasks against "
            f"{full_tasks} for full re-matching"
        )

"""Shard scaling: host wall-clock vs shard count on kernel-bound cells.

Sharding (:mod:`repro.shard`) exists to buy *host* throughput — the
virtual-GPU simulation is pure Python, so one process caps matching at
one core no matter how good the kernels are.  This bench measures host
wall-clock for N ∈ {1, 2, 4} process shards on the kernel-bound fig-9
cells (P3 on the high-degree datasets, the same slice the kernel
ablation uses), asserts counts are invariant at every N, and records
each cell's merged obs snapshot (including the ``shard.*`` accounting)
into ``results/bench-metrics.tsv`` via the session dump.

The shard workers are one standing pool per process, launched by the
warm-up run below, so a cell pays what every sharded request after the
first pays: shard planning, one pickled ``(graph, plan, config, rows)``
per shard, the hand-off to an idle worker, and the merge.  What that
costs in CPU is the ``cpu@N`` column: this process's CPU plus the
``cpu_ms`` every worker measured for itself (``shard.run`` span tags —
the workers are never reaped, so ``RUSAGE_CHILDREN`` cannot see them),
over the unsharded run's CPU.

Speedup is hardware-bounded: N processes cannot beat the core count.
The curve is measured and recorded, not asserted — the host-clock record
is the benchmark spine's ``shard.speedup_vs_inline`` row
(``benchmarks/spine``).
"""

from __future__ import annotations

import time

import pytest
from conftest import pedantic

from repro import match
from repro.bench.harness import SESSION_METRICS, patterns_for, run_cell
from repro.bench.reporting import Table
from repro.core.config import TDFSConfig
from repro.graph.datasets import load_dataset
from repro.obs import TraceContext
from repro.obs.console import shard_utilization
from repro.shard.coordinator import cpu_budget

SHARD_COUNTS = (1, 2, 4)

#: Kernel-bound fig-9 slice: high-degree datasets where matching work
#: dwarfs the per-shard cost (plan + graph pickle + hand-off + merge).
CELLS = ("pokec", "web-google", "youtube")

#: Host parallelism actually available to the pool (its size).
CPUS = cpu_budget()


def shard_config(n: int) -> TDFSConfig:
    if n == 1:
        return TDFSConfig()
    # Traced, so the workers' shard.run spans (cpu_ms) come back.
    return TDFSConfig(shards=n, trace_context=TraceContext.mint(bench="shard-scaling"))


def worker_cpu_s(result) -> float:
    """CPU seconds the shard workers spent on ``result``, by their own clocks."""
    per_shard = shard_utilization(result.op_spans or ()).values()
    return sum(shard["cpu_ms"] for shard in per_shard) / 1e3


def run_scaling(dataset: str) -> Table:
    # Warm the dataset cache and launch the standing workers: time matching,
    # not generation or process start-up.
    match(load_dataset(dataset), "P1", config=TDFSConfig(shards=2))
    patterns = patterns_for(["P3", "P4"], quick=["P3"])
    table = Table(
        f"Shard scaling on {dataset} ({CPUS} CPUs)",
        ["pattern", "instances"]
        + [f"N={n} (host)" for n in SHARD_COUNTS]
        + [f"speedup@{n}" for n in SHARD_COUNTS[1:]]
        + [f"cpu@{n}" for n in SHARD_COUNTS[1:]],
    )
    for pname in patterns:
        host_s: dict[int, float] = {}
        cpu_s: dict[int, float] = {}
        results = {}
        for n in SHARD_COUNTS:
            t0, c0 = time.perf_counter(), time.process_time()
            r = run_cell(
                dataset,
                pname,
                "tdfs",
                config=shard_config(n),
                record_as=f"tdfs[shards={n}]",
            )
            host_s[n] = time.perf_counter() - t0
            cpu_s[n] = time.process_time() - c0 + worker_cpu_s(r)
            results[n] = r
            # The scaling curve itself, one TSV row per (cell, N).
            SESSION_METRICS.append(
                (
                    dataset,
                    pname,
                    f"tdfs[shards={n}]",
                    {
                        "shard.host_ms": round(host_s[n] * 1000.0, 3),
                        "shard.cpu_ms": round(cpu_s[n] * 1000.0, 3),
                    },
                )
            )
        base = results[1]
        for n in SHARD_COUNTS[1:]:
            assert results[n].count == base.count, (
                f"{dataset}/{pname}: sharding changed the count at N={n} "
                f"({results[n].count} vs {base.count})"
            )
            assert results[n].shards == n
        table.add_row(
            pname,
            base.count,
            *[f"{host_s[n] * 1000:.1f} ms" for n in SHARD_COUNTS],
            *[f"{host_s[1] / host_s[n]:.2f}x" for n in SHARD_COUNTS[1:]],
            *[f"{cpu_s[n] / cpu_s[1]:.2f}x" for n in SHARD_COUNTS[1:]],
        )
    table.add_note(
        f"counts asserted invariant across N; host has {CPUS} CPU(s), so "
        f"the attainable ceiling is ~{min(4, CPUS)}x at N=4; cpu@N = (this "
        "process + the workers' own shard.run cpu_ms) / the N=1 run's CPU"
    )
    return table


@pytest.mark.parametrize("dataset", CELLS)
def test_shard_scaling(benchmark, report, dataset):
    report(pedantic(benchmark, lambda: run_scaling(dataset)))

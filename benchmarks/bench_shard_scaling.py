"""Shard scaling: host wall-clock vs shard count on kernel-bound cells.

Sharding (:mod:`repro.shard`) exists to buy *host* throughput — the
virtual-GPU simulation is pure Python, so one process caps matching at
one core no matter how good the kernels are.  This bench measures host
wall-clock for N ∈ {1, 2, 4} process shards on the kernel-bound fig-9
cells (P3 on the high-degree datasets, the same slice the kernel
ablation uses), asserts counts are invariant at every N, and records
each cell's merged obs snapshot (including the ``shard.*`` accounting)
into ``results/bench-metrics.tsv`` via the session dump.

Speedup is hardware-bounded: N processes cannot beat the core count.
The curve is measured and recorded, not asserted — the host-clock record
is the benchmark spine's ``shard.speedup_vs_inline`` row
(``benchmarks/spine``).
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import pedantic

from repro.bench.harness import SESSION_METRICS, patterns_for, run_cell
from repro.bench.reporting import Table
from repro.core.config import TDFSConfig
from repro.graph.datasets import load_dataset

SHARD_COUNTS = (1, 2, 4)

#: Kernel-bound fig-9 slice: high-degree datasets where matching work
#: dwarfs the per-shard setup (fork + graph pickle + merge).
CELLS = ("pokec", "web-google", "youtube")

#: Host parallelism actually available to the pool.
CPUS = os.cpu_count() or 1


def shard_config(n: int) -> TDFSConfig:
    return TDFSConfig(shards=n) if n > 1 else TDFSConfig()


def run_scaling(dataset: str) -> Table:
    load_dataset(dataset)  # warm the lru cache: time matching, not generation
    patterns = patterns_for(["P3", "P4"], quick=["P3"])
    table = Table(
        f"Shard scaling on {dataset} ({CPUS} CPUs)",
        ["pattern", "instances"]
        + [f"N={n} (host)" for n in SHARD_COUNTS]
        + ["speedup@4"],
    )
    for pname in patterns:
        host_s: dict[int, float] = {}
        results = {}
        for n in SHARD_COUNTS:
            t0 = time.perf_counter()
            r = run_cell(
                dataset,
                pname,
                "tdfs",
                config=shard_config(n),
                record_as=f"tdfs[shards={n}]",
            )
            host_s[n] = time.perf_counter() - t0
            results[n] = r
            # The scaling curve itself, one TSV row per (cell, N).
            SESSION_METRICS.append(
                (
                    dataset,
                    pname,
                    f"tdfs[shards={n}]",
                    {"shard.host_ms": round(host_s[n] * 1000.0, 3)},
                )
            )
        base = results[1]
        for n in SHARD_COUNTS[1:]:
            assert results[n].count == base.count, (
                f"{dataset}/{pname}: sharding changed the count at N={n} "
                f"({results[n].count} vs {base.count})"
            )
            assert results[n].shards == n
        speedup4 = host_s[1] / host_s[4]
        table.add_row(
            pname,
            base.count,
            *[f"{host_s[n] * 1000:.1f} ms" for n in SHARD_COUNTS],
            f"{speedup4:.2f}x",
        )
    table.add_note(
        f"counts asserted invariant across N; host has {CPUS} CPU(s), so "
        f"the attainable ceiling is ~{min(4, CPUS)}x at N=4"
    )
    return table


@pytest.mark.parametrize("dataset", CELLS)
def test_shard_scaling(benchmark, report, dataset):
    report(pedantic(benchmark, lambda: run_scaling(dataset)))

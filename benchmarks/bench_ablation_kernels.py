"""Ablation: kernel backends (scalar vs vectorized).

The kernel backend (:mod:`repro.kernels`) only changes *host* execution —
scalar fills one stack level for one partial match at a time, vectorized
resolves a level for a whole window of partial matches per NumPy pass — so
scalar and vectorized must agree on counts AND
simulated cycles exactly (the conformance suite asserts the same).

Reported here: per-pattern host wall-clock for each backend and the
vectorized speedup.  The bench asserts count and cycle equality of scalar
vs vectorized on every cell.

Cells are the kernel-bound slice of the fig-9 smoke workload: P3 on the
high-degree datasets (pokec, youtube, web-google), where leaf frontiers
average dozens of candidates and one NumPy pass replaces dozens of scalar
loop iterations.  On frontier-bound cells (P1/P2 everywhere — mean leaf
batch below the vectorization threshold) sync-window leaf blocks decline;
what the backend saves there comes from prefix windows and the child cells
below them, which resolve every level of a row per window (DESIGN.md §9),
and the full (non-quick) run includes those cells to show both.  The P3
cells time out at the default τ: the rows and level-2 candidates they ship
to ``Q_task`` keep the block slot that resolved them, so the dequeuing warp
replays slots too (edge tasks always; three-vertex tasks where no reuse
seed sits at position 2 — not P1 / P2, whose tasks run the scalar path).
"""

import time

import pytest
from conftest import pedantic

from repro.bench.harness import (
    KERNEL_VARIANTS,
    kernel_variant_config,
    patterns_for,
    run_cell,
)
from repro.bench.reporting import Table, geo_mean
from repro.graph.datasets import load_dataset


def run_ablation(dataset: str) -> Table:
    load_dataset(dataset)  # warm the lru cache: time matching, not generation
    patterns = patterns_for(
        ["P1", "P2", "P3", "P4", "P8"], quick=["P3"]
    )
    table = Table(
        f"Ablation: kernel backends on {dataset}",
        ["pattern", "instances"]
        + [f"{label} (host)" for label, _ in KERNEL_VARIANTS]
        + ["vec speedup"],
    )
    speedups = []
    for pname in patterns:
        host_s = {}
        results = {}
        for label, backend in KERNEL_VARIANTS:
            t0 = time.perf_counter()
            r = run_cell(
                dataset,
                pname,
                "tdfs",
                config=kernel_variant_config(backend),
                record_as=f"tdfs[{label}]",
            )
            host_s[label] = time.perf_counter() - t0
            results[label] = r
        scalar, vec = results["scalar"], results["vectorized"]
        assert scalar.count == vec.count, (
            f"{dataset}/{pname}: backend changed the count "
            f"({scalar.count} vs {vec.count})"
        )
        assert scalar.elapsed_cycles == vec.elapsed_cycles, (
            f"{dataset}/{pname}: backend changed virtual time "
            f"({scalar.elapsed_cycles} vs {vec.elapsed_cycles})"
        )
        speedup = host_s["scalar"] / host_s["vectorized"]
        speedups.append(speedup)
        table.add_row(
            pname,
            vec.count,
            *[f"{host_s[label] * 1000:.1f} ms" for label, _ in KERNEL_VARIANTS],
            f"{speedup:.2f}x",
        )
    table.add_note(
        f"geo-mean vectorized host speedup: {geo_mean(speedups):.2f}x"
    )
    table.add_note(
        "scalar and vectorized: identical counts and virtual cycles (asserted)"
    )
    return table


@pytest.mark.parametrize("dataset", ["pokec", "youtube", "web-google"])
def test_ablation_kernels(benchmark, report, dataset):
    report(pedantic(benchmark, lambda: run_ablation(dataset)))

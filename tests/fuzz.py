"""Shared seeded case generators for the conformance/differential suites.

Every property-style suite in this repo (engine differential, kernel
conformance, shard conformance) sweeps the same case space: small seeded
graphs from two families, seeded random queries, and a handful of engine
configs chosen to keep distinct machinery live (timeout-steal Q_task
traffic, half-steal, reuse off).  This module is the single source of that
case space, so a new suite gets the sweep by importing it — and a tweak to
the generators re-tunes every suite at once.

``REPRO_DIFF_SEED`` offsets the whole grid: CI runs each suite under two
fixed offsets, so every push explores a fresh but reproducible slice.
Suites address disjoint regions of a slice via the ``base`` offsets they
pass to :func:`case_graph`/:func:`case_query` (0 unlabeled, +500 labeled,
+900 steal, …) — keep new suites on fresh offsets so slices never overlap.
"""

from __future__ import annotations

import os

from repro import TDFSConfig
from repro.core.config import Strategy
from repro.core.result import METRIC_VIEWS
from repro.graph.builder import relabel_random
from repro.graph.generators import erdos_renyi, power_law_cluster
from repro.query.random_queries import random_query

#: CI sets REPRO_DIFF_SEED to shift the whole grid; default slice is 0.
SEED_BASE = int(os.environ.get("REPRO_DIFF_SEED", "0")) * 10_000

FAST = TDFSConfig(num_warps=8)

#: Aggressive decomposition: tiny τ and chunk so the timeout-steal path
#: (Q_task enqueue/dequeue, stack rebuilds) is live on these small graphs.
STEAL = TDFSConfig(num_warps=8, tau_cycles=400, chunk_size=2)

#: STMatch-style work stealing, exercised as a distinct engine schedule.
HALF_STEAL = TDFSConfig(
    num_warps=8, strategy=Strategy.HALF_STEAL, chunk_size=2
)

#: Named config variants for sweeps that iterate regimes rather than
#: hand-pick them (the shard conformance suite does).
CONFIG_VARIANTS: dict[str, TDFSConfig] = {
    "fast": FAST,
    "steal": STEAL,
    "half-steal": HALF_STEAL,
    "no-reuse": FAST.replace(enable_reuse=False),
    "scalar-kernel": FAST.replace(kernel_backend="scalar"),
}


#: A ``Q_task`` of eight tasks under an aggressive τ: enqueues *and*
#: dequeues fail, so every queue statistic is non-zero on a skewed graph.
TIGHT_QUEUE = TDFSConfig(num_warps=8, tau_cycles=400, queue_capacity_tasks=8)


def read_view(result, view: str):
    """``result.<view>`` for a (possibly dotted) :data:`METRIC_VIEWS` name."""
    for part in view.split("."):
        result = getattr(result, part)
    return result


def assert_views_fold(merged, parts) -> None:
    """Every typed view of a merged result equals the fold of its parts:
    sums, except views over ``.peak`` keys, which take the max."""
    for view, key in METRIC_VIEWS.items():
        values = [read_view(p, view) for p in parts]
        want = max(values) if key.endswith(".peak") else sum(values)
        assert read_view(merged, view) == want, (view, values)


def case_graph(seed: int):
    """Deterministic small graph, alternating family by seed."""
    if seed % 2 == 0:
        return erdos_renyi(90 + seed % 5 * 10, 6.0, seed=seed, name=f"er-{seed}")
    return power_law_cluster(
        100 + seed % 3 * 20, 3, p_triangle=0.5, seed=seed, name=f"plc-{seed}"
    )


def case_query(seed: int, num_labels=None):
    k = 3 + seed % 3  # 3..5 query vertices
    density = (seed % 7) / 6.0
    return random_query(
        k, extra_edge_prob=density, num_labels=num_labels, seed=seed
    )


def case_labeled_graph(seed: int, num_labels: int = 4):
    """The seed's graph with deterministic random labels attached."""
    graph = case_graph(seed)
    return relabel_random(
        graph, num_labels, seed=seed, name=f"{graph.name}-L{num_labels}"
    )


def fuzz_cases(count: int, base: int = 0, num_labels=None):
    """Yield ``(seed, graph, query)`` tuples for one suite's sweep.

    ``base`` offsets this sweep within the slice (so suites don't re-run
    each other's cases); ``num_labels`` switches to labeled graphs and
    label-constrained queries.
    """
    for case in range(count):
        seed = SEED_BASE + base + case
        if num_labels:
            graph = case_labeled_graph(seed, num_labels)
        else:
            graph = case_graph(seed)
        yield seed, graph, case_query(seed, num_labels=num_labels)


def delta_stream_cases(
    count: int,
    base: int = 0,
    num_labels=None,
    batches: int = 4,
    max_edges: int = 5,
):
    """Yield ``(seed, graph, query, stream)`` for dynamic-graph sweeps.

    ``stream`` is the seeded delta stream of :func:`repro.dynamic.
    random_delta_stream` over the case's graph — a list of ``(batch,
    successor_graph)`` pairs whose batches deliberately include duplicate
    adds of existing edges, remove-then-re-add within one batch, removals
    of absent edges, and vertex-growing adds.  Shared by the dynamic
    conformance suite and the serve tests so both walk identical streams.
    """
    for seed, graph, query in fuzz_cases(count, base=base, num_labels=num_labels):
        from repro.dynamic import random_delta_stream

        stream = list(
            random_delta_stream(
                graph, batches, seed=seed, max_edges=max_edges
            )
        )
        yield seed, graph, query, stream

"""Experiment execution helpers shared by all benchmark files.

``run_cell`` executes one (dataset, pattern, engine) cell with the dataset's
recommended device budget, catching the failure modes the paper reports as
table entries (``OOM``, ``ERR``) instead of crashing the whole grid.

Set ``REPRO_BENCH_QUICK=1`` to run reduced pattern grids (the cheap subset
of each experiment) — useful for smoke-testing the harness.  The full grids
are the default and regenerate the complete tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.core.config import RunContext, TDFSConfig
from repro.core.engine import match
from repro.core.result import MatchResult
from repro.errors import ReproError, UnsupportedError
from repro.graph.datasets import DATASETS, load_dataset
from repro.query.patterns import get_pattern
from repro.query.pattern import QueryGraph


#: Per-session obs snapshots collected by :func:`run_cell`: rows of
#: ``(dataset, pattern, engine, metrics_dict)``.  The benchmark conftest
#: dumps them as ``results/bench-metrics.tsv`` at session end, giving every
#: bench run the same metrics schema as ``MatchResult.metrics``.
SESSION_METRICS: list[tuple[str, str, str, dict]] = []


def record_cell_metrics(
    dataset: str, pattern_name: str, engine: str, result: MatchResult
) -> None:
    """Collect a cell's obs snapshot for the session-end TSV dump."""
    if result.metrics:
        SESSION_METRICS.append((dataset, pattern_name, engine, result.metrics))


def dump_session_metrics(path: Optional[str] = None) -> Optional[str]:
    """Write collected cell snapshots as a long-format TSV; returns path."""
    if not SESSION_METRICS:
        return None
    if path is None:
        path = os.path.join(results_dir(), "bench-metrics.tsv")
    with open(path, "w") as fh:
        fh.write("# obs registry snapshots per benchmark cell\n")
        fh.write("dataset\tpattern\tengine\tmetric\tvalue\n")
        for dataset, pattern, engine, metrics in SESSION_METRICS:
            for metric, value in metrics.items():
                fh.write(f"{dataset}\t{pattern}\t{engine}\t{metric}\t{value}\n")
    return path


#: Expected header of ``results/bench-metrics.tsv`` (long format).
BENCH_METRICS_HEADER = ("dataset", "pattern", "engine", "metric", "value")


def validate_bench_metrics(path: str) -> int:
    """Schema-check a ``bench-metrics.tsv`` dump; returns the row count.

    The TSV is the interchange surface between benchmark runs and the
    analysis/console tooling, so a malformed dump should fail the session
    that produced it, not the later reader.  Checks: the header row is
    exactly :data:`BENCH_METRICS_HEADER`, every data row has five fields
    with non-empty keys, and every ``value`` parses as a number.  Raises
    :class:`~repro.errors.ReproError` on the first violation.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ReproError(f"cannot read bench metrics {path!r}: {exc}") from None
    rows = [
        (i + 1, ln) for i, ln in enumerate(lines)
        if ln.strip() and not ln.startswith("#")
    ]
    if not rows:
        raise ReproError(f"{path}: no header row (empty metrics dump)")
    header_no, header = rows[0]
    if tuple(header.split("\t")) != BENCH_METRICS_HEADER:
        raise ReproError(
            f"{path}:{header_no}: bad header {header!r}; expected "
            + "\\t".join(BENCH_METRICS_HEADER)
        )
    for line_no, row in rows[1:]:
        parts = row.split("\t")
        if len(parts) != len(BENCH_METRICS_HEADER):
            raise ReproError(
                f"{path}:{line_no}: expected {len(BENCH_METRICS_HEADER)} "
                f"tab-separated fields, got {len(parts)}: {row!r}"
            )
        if any(not p.strip() for p in parts[:4]):
            raise ReproError(f"{path}:{line_no}: empty key field in {row!r}")
        value = parts[4]
        if value not in ("True", "False"):
            try:
                float(value)
            except ValueError:
                raise ReproError(
                    f"{path}:{line_no}: non-numeric value {value!r} "
                    f"for metric {parts[3]!r}"
                ) from None
    return len(rows) - 1


def quick_mode() -> bool:
    """True when REPRO_BENCH_QUICK requests the reduced grids."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def fault_seed() -> Optional[int]:
    """Fault-plan seed from ``REPRO_FAULT_SEED`` (unset/empty = no chaos).

    Setting it runs every bench cell under the default seeded chaos mix
    with the resilient retry policy armed — a fleet-wide robustness sweep;
    identical seeds reproduce identical fault sequences.
    """
    raw = os.environ.get("REPRO_FAULT_SEED", "")
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ReproError(
            f"REPRO_FAULT_SEED must be an integer seed, got {raw!r}"
        ) from None


def patterns_for(full: list[str], quick: Optional[list[str]] = None) -> list[str]:
    """Pick the full or quick pattern list based on the environment."""
    if quick_mode():
        return quick or full[:3]
    return full


def uniform_labeled(pattern_name: str, label: int = 0) -> QueryGraph:
    """P1–P11 variant where every query vertex takes the same label.

    This is how the paper runs P1–P11 against the labeled big graphs
    ("we let all the query vertices in P1–P11 take the same label").
    """
    base = get_pattern(pattern_name)
    return base.with_labels([label] * base.num_vertices, name=pattern_name)


def run_cell(
    dataset: str,
    pattern,
    engine: str,
    config: Optional[TDFSConfig] = None,
    num_labels: Optional[int] = None,
    chaos_seed: Optional[int] = None,
    record_as: Optional[str] = None,
) -> MatchResult:
    """Run one experiment cell; failures become result markers, not crashes.

    ``chaos_seed`` (or the ``REPRO_FAULT_SEED`` environment variable) arms
    the deterministic chaos harness for the cell: the default seeded fault
    mix plus the resilient retry policy (see :mod:`repro.faults`).
    ``record_as`` overrides the engine label in the session-metrics TSV —
    ablations that sweep a config knob under one engine use it to keep
    their variants' rows distinct (e.g. ``tdfs[scalar]``).
    """
    graph = load_dataset(dataset, num_labels=num_labels)
    spec = DATASETS[dataset]
    cfg = config or TDFSConfig()
    if cfg.device_memory is None:
        cfg = cfg.replace(device_memory=spec.device_memory)
    seed = chaos_seed if chaos_seed is not None else fault_seed()
    ctx = None
    if seed is not None:
        from repro.faults import FaultPlan, RetryPolicy

        ctx = RunContext(fault_plan=FaultPlan.seeded(seed), retry=RetryPolicy())
    if isinstance(pattern, str):
        pattern = get_pattern(pattern)
    try:
        result = match(graph, pattern, engine=engine, config=cfg, ctx=ctx)
        record_cell_metrics(dataset, pattern.name, record_as or engine, result)
        return result
    except UnsupportedError:
        result = MatchResult(
            engine=engine,
            graph_name=graph.name,
            query_name=pattern.name,
            count=0,
            elapsed_cycles=0,
        )
        result.error = "N/A"
        return result
    except ReproError as exc:
        result = MatchResult(
            engine=engine,
            graph_name=graph.name,
            query_name=pattern.name,
            count=0,
            elapsed_cycles=0,
        )
        result.error = f"ERR ({type(exc).__name__})"
        return result


#: Kernel-backend ablation variants (see ``benchmarks/bench_ablation_kernels``):
#: label → ``TDFSConfig.kernel_backend`` value.  Both are conformance-
#: tested to identical counts and identical virtual cycles.
KERNEL_VARIANTS: tuple[tuple[str, str], ...] = (
    ("scalar", "scalar"),
    ("vectorized", "vectorized"),
)


def kernel_variant_config(
    backend: str, base: Optional[TDFSConfig] = None
) -> TDFSConfig:
    """Cell config for one kernel-backend ablation variant."""
    cfg = base or TDFSConfig()
    return cfg.replace(kernel_backend=backend)


@dataclass
class ExperimentGrid:
    """A (datasets × patterns × engines) sweep with result collection."""

    datasets: list[str]
    patterns: list
    engines: list[str]
    config: Optional[TDFSConfig] = None
    num_labels: Optional[int] = None

    def run(self) -> dict[tuple[str, str, str], MatchResult]:
        results: dict[tuple[str, str, str], MatchResult] = {}
        for dataset in self.datasets:
            for pattern in self.patterns:
                pname = pattern if isinstance(pattern, str) else pattern.name
                for engine in self.engines:
                    results[(dataset, pname, engine)] = run_cell(
                        dataset,
                        pattern,
                        engine,
                        config=self.config,
                        num_labels=self.num_labels,
                    )
        return results


def results_dir() -> str:
    """Directory where benchmark TSV outputs are collected."""
    path = os.environ.get("REPRO_RESULTS_DIR", "results")
    os.makedirs(path, exist_ok=True)
    return path

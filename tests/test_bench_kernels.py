"""Smoke tests for the kernel-backend ablation plumbing.

Runs the ablation's cell recipe end-to-end on a tiny dataset (every
backend variant through :func:`run_cell` with a ``record_as`` label) and
asserts the session-metrics TSV carries one row set per backend with
identical simulated cycles — the artifact EXPERIMENTS.md points at.
"""

from __future__ import annotations

import pytest

from repro.bench import harness
from repro.bench.harness import (
    KERNEL_VARIANTS,
    dump_session_metrics,
    kernel_variant_config,
    run_cell,
)


@pytest.fixture
def session_metrics(monkeypatch):
    """A private SESSION_METRICS list so the test leaves no residue."""
    fresh: list = []
    monkeypatch.setattr(harness, "SESSION_METRICS", fresh)
    return fresh


class TestKernelVariants:
    def test_variant_labels_cover_all_backends(self):
        labels = [label for label, _ in KERNEL_VARIANTS]
        assert labels == ["scalar", "vectorized"]

    def test_variant_config_sets_backend(self):
        cfg = kernel_variant_config("scalar")
        assert cfg.kernel_backend == "scalar"


class TestAblationEndToEnd:
    def test_cells_agree_and_land_in_metrics_tsv(self, session_metrics, tmp_path):
        results = {}
        for label, backend in KERNEL_VARIANTS:
            results[label] = run_cell(
                "facebook",
                "P1",
                "tdfs",
                config=kernel_variant_config(backend),
                record_as=f"tdfs[{label}]",
            )
        scalar, vec = results["scalar"], results["vectorized"]
        assert not scalar.failed and not vec.failed
        assert scalar.count == vec.count > 0
        assert scalar.elapsed_cycles == vec.elapsed_cycles

        path = tmp_path / "bench-metrics.tsv"
        assert dump_session_metrics(str(path)) == str(path)
        rows = [
            line.split("\t")
            for line in path.read_text().splitlines()
            if line and not line.startswith("#")
        ][1:]  # drop the header row
        by_engine_metric = {
            (engine, metric): value
            for _, _, engine, metric, value in rows
        }
        # Both backends' cycle totals are in the dump, and they are equal.
        scalar_busy = by_engine_metric[("tdfs[scalar]", "sim.busy_cycles")]
        vec_busy = by_engine_metric[("tdfs[vectorized]", "sim.busy_cycles")]
        assert scalar_busy == vec_busy
        assert by_engine_metric[("tdfs[scalar]", "sim.idle_cycles")] == (
            by_engine_metric[("tdfs[vectorized]", "sim.idle_cycles")]
        )
        assert by_engine_metric[("tdfs[scalar]", "engine.matches")] == (
            by_engine_metric[("tdfs[vectorized]", "engine.matches")]
        )

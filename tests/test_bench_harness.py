"""Tests for the benchmark harness and reporting utilities."""

import os

import pytest

from repro.bench.harness import (
    fault_seed,
    patterns_for,
    quick_mode,
    run_cell,
    uniform_labeled,
)
from repro.errors import ReproError
from repro.bench.reporting import Table, format_ms, geo_mean, speedup


class TestReporting:
    def test_format_ms_ranges(self):
        assert format_ms(None) == "-"
        assert format_ms(0.0005) == "0us"  # rounds to whole microseconds
        assert format_ms(0.5) == "500us"
        assert format_ms(2.5) == "2.50ms"
        assert format_ms(50) == "50ms"
        assert format_ms(2500) == "2.50s"

    def test_speedup(self):
        assert speedup(2.0, 6.0) == "3.0x"
        assert speedup(0, 6.0) == "-"

    def test_geo_mean(self):
        assert geo_mean([1, 4]) == pytest.approx(2.0)
        assert geo_mean([]) == 0.0
        assert geo_mean([0, 2]) == pytest.approx(2.0)  # zeros skipped

    def test_table_render(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, "xx")
        t.add_note("hello")
        text = t.render()
        assert "demo" in text
        assert "xx" in text
        assert "note: hello" in text

    def test_table_rejects_bad_row(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_table_tsv(self, tmp_path):
        t = Table("demo table", ["a", "b"])
        t.add_row(1, 2)
        path = tmp_path / "out.tsv"
        t.save_tsv(path)
        content = path.read_text()
        assert "# demo table" in content
        assert "1\t2" in content


class TestHarness:
    def test_quick_mode_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_QUICK", raising=False)
        assert not quick_mode()
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        assert quick_mode()
        assert patterns_for(["P1", "P2", "P3", "P4"]) == ["P1", "P2", "P3"]
        monkeypatch.setenv("REPRO_BENCH_QUICK", "0")
        assert patterns_for(["P1", "P2", "P3", "P4"]) == ["P1", "P2", "P3", "P4"]

    def test_fault_seed_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert fault_seed() is None
        monkeypatch.setenv("REPRO_FAULT_SEED", "42")
        assert fault_seed() == 42

    def test_fault_seed_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "banana")
        with pytest.raises(ReproError, match="REPRO_FAULT_SEED.*'banana'"):
            fault_seed()

    def test_uniform_labeled(self):
        q = uniform_labeled("P3", label=2)
        assert q.is_labeled
        assert all(q.label(u) == 2 for u in range(q.num_vertices))
        assert q.name == "P3"

    def test_run_cell_basic(self):
        result = run_cell("dblp", "P1", "tdfs")
        assert result.count > 0
        assert not result.failed

    def test_run_cell_unsupported_marked(self):
        # PBE cannot run labeled queries: cell becomes 'N/A', not a crash.
        result = run_cell("orkut", "P12", "pbe")
        assert result.error == "N/A"

    def test_run_cell_label_override(self):
        result = run_cell("orkut", "P1", "pbe", num_labels=0)
        assert not result.failed


class TestPairsVerdict:
    """``python -m tests.pairs``: one verdict per end-to-end metric."""

    def test_verdicts(self):
        from tests.pairs import verdict

        # A gap inside the parent's IQR settles nothing, either way.
        assert verdict(0.05, 0.06, 0.1, 10, 10) == "unresolved"
        assert verdict(-0.5, 0.6, 0.1, 0, 10) == "unresolved"
        # A gain needs the gap past the IQR and nine pairs in ten, of ten
        # or more.
        assert verdict(0.04, 0.01, 0.1, 9, 10) == "gain"
        assert verdict(0.04, 0.01, 0.1, 8, 10) == "unresolved"
        assert verdict(0.04, 0.01, 0.1, 5, 5) == "unresolved"
        # A regression is a gap worse than both the IQR and the bound.
        assert verdict(-0.11, 0.01, 0.1, 0, 10) == "regression"
        assert verdict(-0.09, 0.01, 0.1, 0, 10) == "unresolved"

    def test_report_row_reads_the_better_direction(self):
        from tests.pairs import report

        def runs(*values):
            return [{"metrics": {"m": {"value": v}}} for v in values]

        parent = [10.0 + k / 10 for k in range(10)]
        side = {"parent": runs(*parent), "change": runs(*(v + 2 for v in parent))}
        lower = report(side, [{"name": "m", "better": "lower", "bound": 0.1}])[-1]
        higher = report(side, [{"name": "m", "better": "higher", "bound": 0.1}])[-1]
        assert lower.endswith("| 0/10 | 10% | regression |"), lower
        assert higher.endswith("| 10/10 | 10% | gain |"), higher

"""Property-based differential harness: every engine vs the CPU oracle.

Seeded ``random_query`` patterns run against seeded generated graphs
through T-DFS, STMatch, EGSM and PBE, asserting all exact engines report
identical instance counts (and EGSM reports
``instances × |Aut|``, since it skips symmetry breaking).  The case seed
is threaded into :func:`repro.verify.verify_engines` so any divergence
prints the exact engine pair and the seed that reproduces it.

``REPRO_DIFF_SEED`` offsets the whole case grid — CI runs the suite twice
with two fixed offsets, so every push explores a fresh slice of the case
space while staying reproducible.
"""

from __future__ import annotations

import pytest

from repro.verify import VerificationReport, verify_engines
from tests.fuzz import (  # shared case space (see tests/fuzz.py)
    FAST,
    HALF_STEAL,
    SEED_BASE,
    STEAL,
    case_graph,
    case_query,
)


def check(graph, query, config, seed):
    report = verify_engines(graph, query, config=config, seed=seed)
    assert report.ok, report.summary()
    return report


class TestUnlabeledDifferential:
    """20 seeded unlabeled cases across both graph families."""

    @pytest.mark.parametrize("case", range(20))
    def test_engines_agree(self, case):
        seed = SEED_BASE + case
        graph = case_graph(seed)
        query = case_query(seed)
        report = check(graph, query, FAST, seed)
        # The harness actually compared several engines, not a single one.
        assert len(report.results) + len(report.skipped) >= 4


class TestLabeledDifferential:
    """10 seeded labeled cases (PBE must be skipped, not failed)."""

    @pytest.mark.parametrize("case", range(10))
    def test_engines_agree(self, case):
        seed = SEED_BASE + 500 + case
        graph = case_graph(seed)
        from repro.graph.builder import relabel_random

        labeled = relabel_random(graph, 4, seed=seed, name=f"{graph.name}-L4")
        query = case_query(seed, num_labels=4)
        report = check(labeled, query, FAST, seed)
        assert any(e == "pbe" for e, _ in report.skipped)


class TestStealConfigDifferential:
    """10 seeded cases under aggressive timeout-steal decomposition.

    The counts must be invariant to *how* the search tree is split
    across warps — the core T-DFS correctness claim.
    """

    @pytest.mark.parametrize("case", range(6))
    def test_timeout_steal_agrees(self, case):
        seed = SEED_BASE + 900 + case
        graph = case_graph(seed)
        query = case_query(seed)
        report = check(graph, query, STEAL, seed)
        assert report.results["tdfs"].count == report.reference_count

    def test_slice_actually_decomposes(self):
        """Guard against a silent no-op: within the current seed slice, at
        least one steal-config case must trigger timeout decomposition."""
        from repro.core.engine import TDFSEngine
        from repro.query.plan import compile_plan

        for case in range(6):
            seed = SEED_BASE + 900 + case
            plan = compile_plan(case_query(seed))
            result = TDFSEngine(STEAL).run(case_graph(seed), plan)
            if result.timeouts > 0:
                return
        pytest.fail("no steal-config case decomposed; τ/chunk too lax")

    @pytest.mark.parametrize("case", range(4))
    def test_half_steal_agrees(self, case):
        seed = SEED_BASE + 950 + case
        graph = case_graph(seed)
        query = case_query(seed)
        check(graph, query, HALF_STEAL, seed)


class TestDivergenceReporting:
    """Unit tests for the verify fix: reports name the pair and the seed."""

    def _report(self):
        return VerificationReport(
            graph_name="g",
            query_name="P3",
            reference_count=10,
            aut_size=2,
            results={},
            mismatches=[("stmatch", 7, 10)],
            seed=1234,
        )

    def test_divergences_pairs(self):
        report = self._report()
        assert report.divergences() == [("stmatch", "cpu", 7, 10)]
        assert not report.ok

    def test_summary_names_pair_and_seed(self):
        text = self._report().summary()
        assert "stmatch vs cpu diverged" in text
        assert "stmatch reported 7, cpu expects 10" in text
        assert "(seed 1234)" in text
        assert "MISMATCH" in text

    def test_summary_without_seed(self):
        report = self._report()
        report.seed = None
        text = report.summary()
        assert "diverged" in text and "seed" not in text

    def test_live_report_records_seed(self, small_plc):
        report = verify_engines(
            small_plc, "P1", config=FAST, engines=["tdfs"], seed=77
        )
        assert report.ok
        assert report.seed == 77
        assert "seed=77" in report.summary()

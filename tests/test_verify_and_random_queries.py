"""Tests for the verification harness and random query generation."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import TDFSConfig, match
from repro.baselines.cpu import cpu_count
from repro.core import config as config_module
from repro.core.engine import TDFSEngine
from repro.errors import QueryError, UnsupportedError
from repro.query.plan import compile_plan
from repro.query.random_queries import random_query
from repro.verify import verify_engines

FAST = TDFSConfig(num_warps=8)


class TestRandomQuery:
    def test_connected_and_sized(self):
        for seed in range(20):
            q = random_query(5, extra_edge_prob=0.4, seed=seed)
            assert q.num_vertices == 5
            assert q.num_edges >= 4  # spanning tree

    def test_deterministic(self):
        assert random_query(6, seed=3) == random_query(6, seed=3)

    def test_labels_in_range(self):
        q = random_query(5, num_labels=3, seed=4)
        assert q.is_labeled
        assert all(0 <= q.label(u) < 3 for u in range(5))

    def test_rejects_bad_args(self):
        with pytest.raises(QueryError):
            random_query(1)
        with pytest.raises(QueryError):
            random_query(4, extra_edge_prob=2.0)
        with pytest.raises(QueryError):
            random_query(4, num_labels=0)

    def test_full_density_is_clique(self):
        q = random_query(5, extra_edge_prob=1.0, seed=1)
        assert q.num_edges == 10


class TestVerifyEngines:
    def test_ok_on_standard_pattern(self, small_plc):
        report = verify_engines(small_plc, "P1", config=FAST)
        assert report.ok
        assert report.reference_count > 0
        assert "tdfs" in report.results
        assert "OK" in report.summary()

    def test_labeled_skips_pbe(self, labeled_plc):
        report = verify_engines(labeled_plc, "P12", config=FAST)
        assert report.ok
        assert any(e == "pbe" for e, _ in report.skipped)

    def test_labeled_query_on_unlabeled_graph_is_refused(self, small_plc):
        # Every engine refuses it, so a count would be the reference's alone
        # — and that one would have ignored the labels.
        with pytest.raises(UnsupportedError):
            verify_engines(small_plc, "P12", config=FAST)

    def test_overflow_flagged_not_failed(self, skewed_graph, monkeypatch):
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        report = verify_engines(skewed_graph, "P3", config=FAST)
        assert report.ok  # overflow is flagged, not a mismatch
        assert any(e == "stmatch" for e, _ in report.flagged)

    def test_engine_subset(self, small_plc):
        report = verify_engines(small_plc, "P2", config=FAST, engines=["tdfs"])
        assert list(report.results) == ["tdfs"]


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(3, 5),
    density=st.floats(0.0, 1.0),
    qseed=st.integers(0, 500),
)
def test_random_patterns_cross_engine(small_er, k, density, qseed):
    """Fuzz: arbitrary connected patterns agree across engines."""
    query = random_query(k, extra_edge_prob=density, seed=qseed)
    plan = compile_plan(query)
    expect = cpu_count(small_er, plan)
    got = TDFSEngine(TDFSConfig(num_warps=4)).run(small_er, plan)
    assert got.count == expect
    pbe = match(small_er, query, engine="pbe", config=TDFSConfig(num_warps=4))
    assert pbe.count == expect


@settings(max_examples=10, deadline=None)
@given(qseed=st.integers(0, 300))
def test_random_labeled_patterns(labeled_plc, qseed):
    query = random_query(4, extra_edge_prob=0.5, num_labels=4, seed=qseed)
    plan = compile_plan(query)
    expect = cpu_count(labeled_plc, plan)
    got = TDFSEngine(TDFSConfig(num_warps=4)).run(labeled_plc, plan)
    assert got.count == expect


class TestResultSerialization:
    def test_to_dict_json_roundtrip(self, small_plc):
        from repro.query.patterns import get_pattern

        result = TDFSEngine(FAST).run(small_plc, get_pattern("P1"))
        payload = result.to_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["count"] == result.count
        assert back["engine"] == "tdfs"
        assert back["memory"]["stack_bytes"] == result.memory.stack_bytes

    def test_to_dict_counts_collected(self, small_plc):
        from repro.query.patterns import get_pattern

        result = TDFSEngine(FAST).run(
            small_plc, get_pattern("P1"), collect_matches=7
        )
        assert result.to_dict()["num_matches_collected"] == 7

"""Unit tests for serve-layer caches, fingerprints, metrics, and the
deadline-fitted retry policy."""

from __future__ import annotations

import dataclasses

import pytest

from repro import StackMode, Strategy, TDFSConfig, compile_plan, get_pattern
from repro.gpusim.costmodel import DEFAULT_COST_MODEL
from repro.obs.ops import TraceContext
from repro.planner import PlannerConfig
from repro.faults import (
    RUNG_CPU_FALLBACK,
    RetryPolicy,
    deadline_policy,
)
from repro.query.pattern import QueryGraph
from repro.obs.console import render_top
from repro.obs.registry import Histogram
from repro.serve import (
    LRUCache,
    ServeMetrics,
    config_fingerprint,
    plan_fingerprint,
    plan_key,
    result_key,
)


class TestLRUCache:
    def test_hit_miss_counters(self):
        c = LRUCache(4)
        assert c.get(("g", 1)) is None
        c.put(("g", 1), "x")
        assert c.get(("g", 1)) == "x"
        s = c.stats()
        assert (s.hits, s.misses, s.size) == (1, 1, 1)
        assert s.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        c = LRUCache(2)
        c.put(("g", 1), 1)
        c.put(("g", 2), 2)
        c.get(("g", 1))  # refresh 1 -> 2 is now LRU
        c.put(("g", 3), 3)
        assert c.get(("g", 2)) is None
        assert c.get(("g", 1)) == 1
        assert c.stats().evictions == 1

    def test_items_least_recent_first(self):
        c = LRUCache(4)
        c.put(("g", 1), "x")
        c.put(("g", 2), "y")
        assert c.items() == [(("g", 1), "x"), (("g", 2), "y")]
        c.get(("g", 1))
        assert c.items() == [(("g", 2), "y"), (("g", 1), "x")]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)


#: One non-default value per ``TDFSConfig`` field.  A field added without an
#: entry here fails the parametrised test below with a ``KeyError`` — it
#: cannot be silently left out of the fingerprint.
CHANGED = dict(
    num_warps=7,
    chunk_size=3,
    strategy=Strategy.NONE,
    tau_cycles=77,
    queue_capacity_tasks=99,
    stack_mode=StackMode.ARRAY_DMAX,
    page_table_size=8,
    arena_pages=1024,
    release_pages=True,
    enable_symmetry=False,
    enable_reuse=False,
    enable_edge_filter=False,
    kernel_backend="scalar",
    device_memory=1 << 20,
    num_gpus=2,
    cost=dataclasses.replace(
        DEFAULT_COST_MODEL, chunk_fetch=DEFAULT_COST_MODEL.chunk_fetch * 50
    ),
    shards=2,
    planner=PlannerConfig(),
    trace_context=TraceContext.mint(),
)


class TestFingerprints:
    def test_plan_fp_ignores_name(self):
        a = QueryGraph(3, [(0, 1), (1, 2), (2, 0)], name="tri")
        b = QueryGraph(3, [(2, 0), (0, 1), (1, 2)], name="other")
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_plan_fp_distinguishes_structure(self):
        tri = QueryGraph(3, [(0, 1), (1, 2), (2, 0)])
        path = QueryGraph(3, [(0, 1), (1, 2)])
        assert plan_fingerprint(tri) != plan_fingerprint(path)

    def test_precompiled_plan_pins_flags(self):
        q = get_pattern("P1")
        on = compile_plan(q, enable_symmetry=True)
        off = compile_plan(q, enable_symmetry=False)
        assert plan_fingerprint(on) != plan_fingerprint(off)
        assert plan_fingerprint(on) != plan_fingerprint(q)

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(TDFSConfig)]
    )
    def test_config_fp_covers_every_field_but_trace_context(self, name):
        base = TDFSConfig()
        changed = base.replace(**{name: CHANGED[name]})
        assert getattr(changed, name) != getattr(base, name)
        same = config_fingerprint(changed) == config_fingerprint(base)
        assert same == (name == "trace_context")

    def test_keys_include_version_and_collect(self):
        # Rewritten for the plan-key rule: graph identity and version are
        # in a plan key iff a planner produced the plan (it used to pin the
        # version in every plan key).
        assert plan_key("g", 1, "fp", "tdfs", "cfg") != plan_key(
            "g", 2, "fp", "tdfs", "cfg"
        )
        assert plan_key("g", 1, "fp", "tdfs", "cfg", planned=True) == plan_key(
            "g", 1, "fp", "tdfs", "cfg"
        )
        unplanned = plan_key("g", 1, "fp", "tdfs", "cfg", planned=False)
        assert unplanned == plan_key("h", 2, "fp", "tdfs", "cfg", planned=False)
        assert unplanned != plan_key("g", 1, "fp", "tdfs", "cfg2", planned=False)
        assert unplanned != plan_key("g", 1, "fp2", "tdfs", "cfg", planned=False)
        assert unplanned != plan_key("g", 1, "fp", "egsm", "cfg", planned=False)
        assert result_key("g", 1, "fp", "tdfs", "cfg", 0) != result_key(
            "g", 2, "fp", "tdfs", "cfg", 0
        )
        assert result_key("g", 1, "fp", "tdfs", "cfg", 0) != result_key(
            "g", 1, "fp", "tdfs", "cfg", 10
        )


class TestFingerprintMemo:
    """A fingerprint is computed once per (immutable) object."""

    @pytest.fixture
    def digests(self, monkeypatch):
        from repro.serve import cache

        calls = []
        real = cache._digest

        def counting(payload):
            calls.append(payload)
            return real(payload)

        monkeypatch.setattr(cache, "_digest", counting)
        return calls

    def test_same_object_is_digested_once(self, digests):
        cfg = TDFSConfig(num_warps=5)
        query = QueryGraph(3, [(0, 1), (1, 2), (2, 0)])
        plan = compile_plan(query)
        for obj, fingerprint in (
            (cfg, config_fingerprint),
            (query, plan_fingerprint),
            (plan, plan_fingerprint),
        ):
            del digests[:]
            first = fingerprint(obj)
            assert [fingerprint(obj) for _ in range(3)] == [first] * 3
            assert len(digests) == 1

    def test_replace_yields_a_fresh_fingerprint(self, digests):
        base = TDFSConfig(num_warps=5)
        fp = config_fingerprint(base)
        assert config_fingerprint(base.replace(num_warps=6)) != fp
        # The one non-fingerprinted field: a new object, digested again,
        # same string.
        traced = base.replace(trace_context=TraceContext.mint())
        assert config_fingerprint(traced) == fp
        assert len(digests) == 3

    def test_equal_configs_fingerprint_equal(self, digests):
        assert config_fingerprint(TDFSConfig(num_warps=5)) == config_fingerprint(
            TDFSConfig(num_warps=5)
        )
        assert len(digests) == 2

    def test_memo_dies_with_its_object(self, digests):
        # The memo is a slot on the object, so a collected config's entry
        # cannot be served to a new object that recycles its ``id``.
        seen = {}
        for warps in range(2, 40):
            cfg = TDFSConfig(num_warps=warps)
            seen[config_fingerprint(cfg)] = warps
            del cfg
        assert len(seen) == len(digests) == 38
        assert not hasattr(TDFSConfig(num_warps=2), "_fingerprint")


class TestMetrics:
    def test_histogram_percentiles(self):
        h = Histogram(window=100)
        for v in range(1, 101):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["p50"] == pytest.approx(50.0, abs=1.0)
        assert snap["p95"] == pytest.approx(95.0)
        assert snap["max"] == pytest.approx(100.0)

    def test_empty_histogram(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0

    def test_counters_and_render(self):
        m = ServeMetrics()
        m.incr("submitted")
        m.incr("completed")
        m.latency_ms.observe(5.0)
        m.batch_size.observe(4)
        snap = m.snapshot()
        assert snap["counters"]["submitted"] == 1
        assert snap["batch_size"]["max"] == 4.0
        text = render_top(snap, title="repro serve")
        assert "=== repro serve ===" in text
        assert "1 submitted" in text
        assert "batches           : 1 (mean size 4.00, max 4)" in text


class TestDeadlinePolicy:
    def test_no_deadline_passthrough(self):
        base = RetryPolicy()
        assert deadline_policy(None, None, base=base) == (base, ())

    def test_plenty_of_budget_untouched(self):
        base = RetryPolicy()
        policy, rungs = deadline_policy(80.0, 100.0, base=base)
        assert policy is base
        assert rungs == ()

    def test_tight_budget_trims_ladder(self):
        base = RetryPolicy(max_attempts=6, backoff_base_cycles=500)
        policy, rungs = deadline_policy(20.0, 100.0, base=base)
        assert policy.max_attempts == 2
        assert policy.backoff_base_cycles == 0
        assert policy.ladder == (RUNG_CPU_FALLBACK,)
        assert rungs  # pre-degradation requested

    def test_tight_budget_without_base(self):
        policy, rungs = deadline_policy(-5.0, 100.0, base=None)
        assert policy is not None
        assert policy.ladder == (RUNG_CPU_FALLBACK,)
        assert rungs

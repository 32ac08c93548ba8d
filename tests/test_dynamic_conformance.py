"""Dynamic-graph conformance: incremental counts == from-scratch counts.

The hard invariant of :mod:`repro.dynamic`: after every batch of a delta
stream, the incrementally maintained count (``count(G') = count(G) +
gained − lost`` via delta-edge-anchored runs) is bit-equal to matching the
successor graph from scratch — across unlabeled and labeled cases, the
steal-heavy and no-steal engine schedules, sharded configs, and the
generator's deliberately awkward batches (duplicate adds, remove-then-
re-add in one batch, vertex-growing adds).

Walks the shared seeded case space of :mod:`tests.fuzz` (offsets 2000+;
``REPRO_DIFF_SEED`` shifts the slice in CI).
"""

from __future__ import annotations

from repro.core.engine import TDFSEngine
from repro.dynamic import IncrementalConfig, IncrementalMatcher
from tests.fuzz import FAST, HALF_STEAL, STEAL, delta_stream_cases


def assert_stream_conformant(graph, query, stream, config, label=""):
    """Every batch's incremental count equals a full re-match."""
    engine = TDFSEngine(config)
    matcher = IncrementalMatcher(config)
    base = engine.run(graph, query)
    assert base.error is None, f"{label}: base run failed: {base.error}"
    current, count = graph, base.count
    for i, (batch, successor) in enumerate(stream):
        out = matcher.count_delta(current, successor, batch, query, count)
        full = engine.run(successor, query)
        assert full.error is None, f"{label}: full run failed: {full.error}"
        assert out.count == full.count, (
            f"{label}: batch {i} ({batch}): incremental {out.count} != "
            f"from-scratch {full.count} (gained {out.gained}, "
            f"lost {out.lost}, base {count})"
        )
        current, count = successor, out.count


class TestDynamicConformance:
    def test_unlabeled_streams(self):
        for seed, graph, query, stream in delta_stream_cases(4, base=2000):
            assert_stream_conformant(
                graph, query, stream, FAST, label=f"seed={seed}"
            )

    def test_labeled_streams(self):
        for seed, graph, query, stream in delta_stream_cases(
            3, base=2100, num_labels=4
        ):
            assert_stream_conformant(
                graph, query, stream, FAST, label=f"seed={seed} labeled"
            )

    def test_steal_schedule(self):
        # Aggressive timeout decomposition: the incremental base counts come
        # from runs with live Q_task traffic; anchored runs must agree.
        for seed, graph, query, stream in delta_stream_cases(
            2, base=2200, batches=3
        ):
            assert_stream_conformant(
                graph, query, stream, STEAL, label=f"seed={seed} steal"
            )

    def test_half_steal_schedule(self):
        for seed, graph, query, stream in delta_stream_cases(
            2, base=2230, batches=3
        ):
            assert_stream_conformant(
                graph, query, stream, HALF_STEAL, label=f"seed={seed} half"
            )

    def test_no_steal_schedule(self):
        cfg = FAST.no_timeout()
        for seed, graph, query, stream in delta_stream_cases(
            2, base=2260, batches=3
        ):
            assert_stream_conformant(
                graph, query, stream, cfg, label=f"seed={seed} nosteal"
            )

    def test_sharded_config(self):
        # Sharded base/full runs (fan-out over worker processes); the
        # anchored runs themselves drop to a single in-process device.
        cfg = FAST.replace(shards=2)
        for seed, graph, query, stream in delta_stream_cases(
            1, base=2290, batches=2
        ):
            assert_stream_conformant(
                graph, query, stream, cfg, label=f"seed={seed} sharded"
            )

    def test_symmetry_off_semantics(self):
        # With symmetry breaking off, counts are raw embeddings; the
        # incremental path must maintain that semantics too (no aut_size
        # division).
        cfg = FAST.replace(enable_symmetry=False)
        for seed, graph, query, stream in delta_stream_cases(
            2, base=2320, batches=3
        ):
            assert_stream_conformant(
                graph, query, stream, cfg, label=f"seed={seed} nosym"
            )


class TestFallbacks:
    def test_delta_too_large_falls_back_exact(self):
        seed, graph, query, stream = next(
            iter(delta_stream_cases(1, base=2350, batches=1, max_edges=6))
        )
        cfg = FAST.replace(incremental=IncrementalConfig(max_delta_edges=1))
        engine = TDFSEngine(cfg)
        base = engine.run(graph, query)
        batch, successor = stream[0]
        out = IncrementalMatcher(cfg).count_delta(
            graph, successor, batch, query, base.count
        )
        full = engine.run(successor, query)
        assert out.count == full.count
        # The gate is on the *net* delta (duplicate adds and cancelling
        # remove-then-re-add pairs don't count against the budget).
        if batch.normalize(graph).size > 1:
            assert not out.incremental
            assert out.fallback_reason == "delta-too-large"

    def test_anchor_overflow_falls_back_exact(self):
        seed, graph, query, stream = next(
            iter(delta_stream_cases(1, base=2360, batches=1))
        )
        # A 1-match enumeration cap trips on any non-trivially affected
        # stream; either way the returned count must stay exact.
        cfg = FAST.replace(
            incremental=IncrementalConfig(max_anchor_matches=1)
        )
        engine = TDFSEngine(cfg)
        base = engine.run(graph, query)
        batch, successor = stream[0]
        out = IncrementalMatcher(cfg).count_delta(
            graph, successor, batch, query, base.count
        )
        full = engine.run(successor, query)
        assert out.count == full.count

    def test_incremental_config_validation(self):
        import pytest

        from repro.errors import ReproError

        with pytest.raises(ReproError):
            IncrementalConfig(max_delta_edges=0)
        with pytest.raises(ReproError):
            IncrementalConfig(max_anchor_matches=0)
        with pytest.raises(ReproError):
            FAST.replace(incremental="not-a-config")


class TestPerQueryConstants:
    """What a delta does not pay for: anchored plans and ``|Aut|`` are
    constants of the query, and an anchored run skips only bookkeeping."""

    def test_second_delta_compiles_and_enumerates_nothing(self, monkeypatch):
        from repro.dynamic import incremental
        from repro.query import symmetry

        compiles, enumerations = [], []
        real_compile, real_aut = incremental.compile_plan, symmetry.automorphisms
        monkeypatch.setattr(
            incremental,
            "compile_plan",
            lambda *a, **kw: compiles.append(kw["order"]) or real_compile(*a, **kw),
        )
        monkeypatch.setattr(
            symmetry,
            "automorphisms",
            lambda q: enumerations.append(q) or real_aut(q),
        )
        seed, graph, query, stream = next(
            iter(delta_stream_cases(1, base=2000, batches=3))
        )
        query = query.relabeled_by(range(query.num_vertices))  # a fresh object
        matcher = IncrementalMatcher(FAST)
        current, count = graph, TDFSEngine(FAST).run(graph, query).count
        del enumerations[:]  # the base run's compile sized the group already
        for batch, successor in stream:
            out = matcher.count_delta(current, successor, batch, query, count)
            assert out.incremental
            current, count = successor, out.count
        assert len(compiles) <= 2 * query.num_edges  # one per (anchor, flags)
        assert len(set(map(tuple, compiles))) == len(compiles)
        assert enumerations == []

    def test_anchored_run_equals_the_plain_engine(self):
        import numpy as np

        from repro.dynamic.incremental import _anchored_plan

        seed, graph, query, stream = next(iter(delta_stream_cases(1, base=2010)))
        anchored = IncrementalMatcher(FAST)._anchor_engine()
        plain = TDFSEngine(anchored.config)
        groups = [(graph.directed_edge_array()[:12].astype(np.int64), 2)]
        for a, b in query.edges():
            plan = _anchored_plan(query, a, b, anchored.config.enable_reuse)
            assert plan is _anchored_plan(query, a, b, anchored.config.enable_reuse)
            assert plan.order[:2] == (a, b) and not plan.symmetry_enabled
            got = anchored._run_single(graph, plan, groups, "gpu0", 10_000)
            ref = plain._run_single(graph, plan, groups, "gpu0", 10_000)
            assert (got.count, got.matches, got.elapsed_cycles, got.error) == (
                ref.count, ref.matches, ref.elapsed_cycles, ref.error
            )
            assert ref.metrics and not got.metrics  # the only work skipped

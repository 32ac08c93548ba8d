"""Serialization round-trips for everything that crosses a shard boundary.

Shard workers receive ``(graph, plan, config)`` pickled through a process
pool; these tests pin that (a) each object survives a pickle round-trip
with full semantic equality, (b) derived caches are *not* shipped (the
pickle stays lean and the far side rebuilds them lazily), and (c) the
cache fingerprints computed from unpickled objects are identical across
interpreter hash seeds — a shard-aware result-cache key minted in one
process must mean the same thing in every other (same scheme as the
planner's fingerprint stability test).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro import IncrementalConfig, RunContext, TDFSConfig, compile_plan, get_pattern
from repro.core.config import StackMode, Strategy
from repro.serve import config_fingerprint, plan_fingerprint
from tests.fuzz import case_graph, case_labeled_graph, case_query


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestCSRGraphPickle:
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_roundtrip_equality(self, seed):
        g = case_graph(seed)
        h = roundtrip(g)
        assert h == g
        assert h.name == g.name
        assert np.array_equal(h.row_ptr, g.row_ptr)
        assert np.array_equal(h.col_idx, g.col_idx)
        assert h.max_degree == g.max_degree

    def test_labeled_roundtrip(self):
        g = case_labeled_graph(3, num_labels=4)
        h = roundtrip(g)
        assert h == g and h.is_labeled
        assert np.array_equal(h.labels, g.labels)

    def test_memo_caches_not_shipped(self):
        g = case_graph(2)
        g.directed_edge_array()  # populate the memo
        state = g.__getstate__()
        assert set(state) == {"row_ptr", "col_idx", "labels", "name"}
        h = roundtrip(g)
        # The far side rebuilds the memo lazily — and identically.
        assert np.array_equal(
            h.directed_edge_array(), g.directed_edge_array()
        )

    def test_roundtripped_graph_matches_identically(self):
        from repro import match

        g = case_graph(6)
        q = case_query(6)
        cfg = TDFSConfig(num_warps=8)
        a = match(g, q, config=cfg)
        b = match(roundtrip(g), q, config=cfg)
        assert (a.count, a.elapsed_cycles) == (b.count, b.elapsed_cycles)


class TestPlanPickle:
    @pytest.mark.parametrize("pattern", ["P1", "P3", "P7"])
    def test_roundtrip_fingerprint_stable(self, pattern):
        plan = compile_plan(get_pattern(pattern))
        again = roundtrip(plan)
        assert plan_fingerprint(again) == plan_fingerprint(plan)
        assert again.num_levels == plan.num_levels

    def test_random_query_plan_roundtrip(self):
        plan = compile_plan(case_query(11))
        assert plan_fingerprint(roundtrip(plan)) == plan_fingerprint(plan)


class TestConfigPickle:
    def test_roundtrip_fingerprint_stable(self):
        cfg = TDFSConfig(
            num_warps=16,
            chunk_size=4,
            strategy=Strategy.HALF_STEAL,
            stack_mode=StackMode.ARRAY_DMAX,
            shards=3,
            shard_strategy="degree",
        )
        again = roundtrip(cfg)
        assert again == cfg
        assert config_fingerprint(again) == config_fingerprint(cfg)

    def test_any_named_backend_config_roundtrips(self):
        """A config holds only what a run computes, so it pickles whole —
        planner, incremental thresholds and trace identity included."""
        from repro.obs.ops import TraceContext
        from repro.planner import PlannerConfig

        cfg = TDFSConfig(
            num_warps=8,
            kernel_backend="scalar",
            planner=PlannerConfig(),
            incremental=IncrementalConfig(max_delta_edges=3),
            trace_context=TraceContext.mint(bench="pickle"),
        )
        again = roundtrip(cfg)
        assert again == cfg
        assert config_fingerprint(again) == config_fingerprint(cfg)

    def test_shard_child_config_is_picklable(self):
        """The exact config and context the coordinator ships to workers."""
        from repro.faults import FaultPlan, RetryPolicy
        from repro.kernels import make_backend
        from repro.obs import Observability
        from repro.shard.coordinator import _child_config

        cfg = TDFSConfig(
            num_warps=8, shards=4, kernel_backend=make_backend("scalar")
        )
        ctx = RunContext(
            obs=Observability(),  # holds locks: would not pickle
            fault_plan=FaultPlan.seeded(1),
            retry=RetryPolicy(),
            shard_faults=(0,),
            checkpoint_every_events=10,
            checkpoint_hook=lambda job, now: None,
            max_events=12345,
        )
        child = roundtrip(_child_config(cfg))
        assert child.shards == 1 and child.kernel_backend == "scalar"
        sent = roundtrip(ctx.for_child_process())
        assert sent == RunContext(
            fault_plan=ctx.fault_plan, retry=ctx.retry, max_events=12345
        )


class TestCrossProcessFingerprints:
    """Fingerprints survive unpickling in a differently-hash-seeded
    interpreter — the property shard-aware cache keys rely on."""

    _SNIPPET = (
        "import pickle, sys;"
        "from repro.serve import config_fingerprint, plan_fingerprint;"
        "graph, plan, cfg = pickle.load(open(sys.argv[1], 'rb'));"
        "print(plan_fingerprint(plan));"
        "print(config_fingerprint(cfg));"
        "print(len(graph.directed_edge_array()))"
    )

    def _run(self, payload_path: str, hash_seed: str) -> list[str]:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.path.abspath("src")
        out = subprocess.run(
            [sys.executable, "-c", self._SNIPPET, payload_path],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return out.stdout.split()

    def test_stable_across_hash_seeds(self, tmp_path):
        graph = case_graph(4)
        plan = compile_plan(get_pattern("P3"))
        cfg = TDFSConfig(num_warps=8, shards=2, shard_strategy="degree")
        payload = tmp_path / "shard_payload.pkl"
        payload.write_bytes(pickle.dumps((graph, plan, cfg)))

        a = self._run(str(payload), "1")
        b = self._run(str(payload), "2")
        assert a == b
        assert a[0] == plan_fingerprint(plan)
        assert a[1] == config_fingerprint(cfg)
        assert int(a[2]) == len(graph.directed_edge_array())

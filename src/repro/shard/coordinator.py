"""Shard fan-out over processes, failure recovery, and exact merging.

The coordinator's exactness contract has two halves:

* **Partition invariance** — counts: initial tasks root independent
  subtrees, so the summed per-shard counts equal the unsharded count for
  *any* partition (the same argument that makes multi-GPU round-robin and
  timeout-steal decomposition exact).
* **Process invariance** — everything: a shard's run is a deterministic
  simulation of a pickled ``(graph, plan, config, rows)`` tuple, so
  executing it in a worker process is bit-identical to executing it in
  the coordinator's process.  The merged result (counts sum, makespan is
  the max, counters sum, ``.peak`` metrics max — the one
  :func:`~repro.core.multi_gpu.merge_results`) is therefore identical
  whether the shards ran over a ``ProcessPoolExecutor`` or inline, which
  is what ``tests/test_shard_conformance.py`` sweeps.

Failure path: a shard process that dies (a killed worker, a poisoned
pickle, an injected :class:`ShardProcessError`) hands nothing back, so
:func:`repro.core.multi_gpu.fan_out` re-runs its whole shard in the
coordinator process and does the recovery accounting (DESIGN.md "Work
groups").  What lives here is only what is process-specific: the pool, the
child config and context, the ``shard.dispatch`` / ``shard.run`` spans and
the ``shard.*`` keys of the merged ``metrics``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.core.multi_gpu import fan_out
from repro.core.result import MatchResult
from repro.errors import ReproError, UnsupportedError
from repro.faults.recovery import WorkGroup, pending_rows
from repro.graph.csr import CSRGraph
from repro.obs.ops import ops_tracer
from repro.obs.tracer import Tracer
from repro.query.plan import MatchingPlan
from repro.shard.planner import ShardPlanner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import TDFSEngine


class ShardProcessError(ReproError):
    """A shard worker process died before returning its result."""


def _child_config(config):
    """The config a shard worker process executes: ``shards=1`` prevents
    recursion, the planner goes (the plan is already resolved and pinned by
    the coordinator), and a constructed kernel-backend instance degrades to
    its registry name (backends are stateless, so nothing is lost) — which
    is all a :class:`~repro.core.TDFSConfig` needs to pickle.
    """
    backend = config.kernel_backend
    if not isinstance(backend, str):
        backend = getattr(backend, "name", "vectorized")
    return config.replace(shards=1, planner=None, kernel_backend=backend)


def _run_shard(
    engine_name: str,
    config,
    ctx,
    graph: CSRGraph,
    plan: MatchingPlan,
    groups: list[WorkGroup],
    shard_index: int,
    collect_matches: int = 0,
    fail: bool = False,
) -> MatchResult:
    """Execute one shard; module-level so process pools can pickle it.

    ``fail=True`` is the shard-kill fault axis: the worker raises instead
    of running, exercising the coordinator's reshard/re-execute path with
    a deterministic trigger.
    """
    if fail:
        raise ShardProcessError(f"injected shard-process death (shard {shard_index})")
    from repro.core.engine import make_engine

    engine = make_engine(engine_name, config, ctx)
    # A shard is one share of the initial-task space: whatever groups the
    # planner's pre-split or a re-run's reshard delivered it in, its rows
    # (all width 2, see ShardPlanner.plan) are fetched as one edge array.
    rows = np.empty((0, 2), dtype=np.int64)
    if groups:
        rows = np.concatenate([r for r, _ in groups])
    trace = config.trace_context
    # Recorded here — inside the (possibly forked) worker process — so the
    # span's pid proves which process ran the shard.  It travels back to the
    # coordinator inside the pickled result, hence the throwaway collector.
    tracer = Tracer(enabled=trace is not None, max_spans=1)
    with tracer.span("shard.run", ctx=trace, shard=shard_index, rows=len(rows)) as span:
        result = engine._run_single(
            graph, plan, [(rows, 2)], f"shard{shard_index}", collect_matches
        )
        span.tags["count"] = int(result.count)
    result.op_spans = (result.op_spans or []) + tracer.spans() or None
    return result


class ShardCoordinator:
    """Plans, dispatches, recovers, and merges one sharded matching job."""

    def __init__(
        self,
        engine: "TDFSEngine",
        mode: str = "process",
        max_workers: Optional[int] = None,
    ) -> None:
        cfg = engine.config
        if getattr(engine, "host_filter", False):
            raise UnsupportedError(
                f"engine {engine.name!r} filters initial edges on the host "
                "and cannot be sharded; sharding partitions the unfiltered "
                "initial-task space"
            )
        if mode not in ("process", "inline"):
            raise ReproError(f"shard mode must be 'process' or 'inline', got {mode!r}")
        self.engine = engine
        self.num_shards = cfg.shards
        self.mode = mode
        self.max_workers = max_workers
        self.planner = ShardPlanner(cfg.shards, cfg.shard_strategy)
        self.child_config = _child_config(cfg)
        self.child_ctx = engine.ctx.for_child_process()

    # ------------------------------------------------------------------ #

    def run(
        self,
        graph: CSRGraph,
        query: Union[MatchingPlan, object],
        collect_matches: int = 0,
    ) -> MatchResult:
        """Run ``query`` sharded; returns the merged :class:`MatchResult`.

        The plan is resolved *once* in the coordinator — through the
        cost-based planner's portfolio when ``config.planner`` is set —
        and shipped pickled to every shard, so all shards execute the
        identical matching order no matter what each worker process would
        have chosen on its own.
        """
        plan = self.engine.compile(query, graph)
        shard_plan = self.planner.plan(graph)
        parts = shard_plan.shards
        trace = self.engine.config.trace_context
        with ops_tracer(trace).span("shard.dispatch", parent=trace) as dispatch:
            dispatch_ctx = dispatch.ctx  # None when the run is untraced

            def job(s: int, groups: list, collect: int, rescue_of=None) -> tuple:
                """Arguments of :func:`_run_shard` for one (re-)run of shard ``s``."""
                config = self.child_config
                if dispatch_ctx is not None:
                    extra = {"shard": str(s)}
                    if rescue_of is not None:
                        extra["reexec"] = "1"
                    # A fresh child context per shard: the pickled config
                    # carries the identity into the worker process, where
                    # _run_shard stamps the shard.run span with it.
                    config = config.replace(trace_context=dispatch_ctx.child(**extra))
                fail = rescue_of is None and s in self.engine.ctx.shard_faults
                return (
                    self.engine.name, config, self.child_ctx,
                    graph, plan, groups, s, collect, fail,
                )

            def run_part(*args) -> Optional[MatchResult]:
                try:
                    return _run_shard(*job(*args))
                except ShardProcessError:
                    return None

            if self.mode == "process":
                first = self._execute_pool(
                    [job(s, part, collect_matches) for s, part in enumerate(parts)]
                )
            else:
                first = [
                    run_part(s, part, collect_matches) for s, part in enumerate(parts)
                ]
            dead = [s for s, result in enumerate(first) if result is None]
            failures = len(dead)
            reexecuted = sum(pending_rows(parts[s]) for s in dead)
            merged = fan_out(parts, run_part, collect_matches, results=first)
            merged.shards = self.num_shards
            # The shard-level story rides in the same dict as the folded
            # per-shard statistics (workers cannot write to the parent).
            merged.metrics.update(
                {
                    "shard.process_failures": failures,
                    "shard.rows_reexecuted": reexecuted,
                }
            )
            if dispatch_ctx is not None:
                # Adopt every child-process span into this process's tracer
                # ring, then close the one parent span of the fan-out — the
                # service (or `repro top`) reads one stitched timeline.
                ops_tracer().adopt(merged.op_spans)
                merged.op_spans = (merged.op_spans or []) + [
                    dispatch.finish(
                        shards=self.num_shards,
                        failures=failures,
                        rows_reexecuted=reexecuted,
                    )
                ]
        return merged

    # ------------------------------------------------------------------ #

    def _execute_pool(self, jobs: list[tuple]) -> list[Optional[MatchResult]]:
        """Fan the shard jobs out over a process pool.

        ``fork`` is preferred (the graph is shared copy-on-write and
        startup is milliseconds); ``spawn`` works too since
        :func:`_run_shard` is module-level and every argument pickles.
        Any worker-side failure — injected death, a broken pool after a
        real kill — leaves that shard's slot ``None`` (dead, to be re-run)
        rather than failing the job.
        """
        import concurrent.futures as cf
        import multiprocessing as mp

        context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        workers = self.max_workers or min(
            len(jobs), max(1, os.cpu_count() or 1)
        )
        results: list[Optional[MatchResult]] = [None] * len(jobs)
        with cf.ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures = {
                pool.submit(_run_shard, *job): s for s, job in enumerate(jobs)
            }
            for future in cf.as_completed(futures):
                s = futures[future]
                try:
                    results[s] = future.result()
                except Exception:
                    pass  # a dead worker: the slot stays None
        return results

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
  whether the shards ran on the standing workers or inline, which is what
  ``tests/test_shard_conformance.py`` sweeps.  The workers are *reused*,
  so this holds for a process's hundredth job as for its first:
  :func:`_run_shard` keeps nothing from one call to the next.

Failure path: a shard whose worker hands nothing back (an injected
:class:`ShardProcessError` raised by a healthy worker, a poisoned pickle,
a killed worker that takes the whole pool down with it) leaves its slot
``None``, so :func:`repro.core.multi_gpu.fan_out` re-runs that whole shard
in the coordinator process and does the recovery accounting (DESIGN.md
"Work groups").  What lives here is only what is process-specific: the
standing worker pool, the child config and context, the ``shard.dispatch``
/ ``shard.run`` spans and the ``shard.*`` keys of the merged ``metrics``.
"""

from __future__ import annotations

import atexit
import os
import resource
import threading
import time
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
    # Recorded here — inside the worker process — so the span's pid proves
    # which process ran the shard, and its cpu_ms / rss_mb are that
    # process's own readings (a standing worker is never reaped, so the
    # coordinator's RUSAGE_CHILDREN cannot see it).  The span travels back
    # inside the pickled result, hence the throwaway collector.
    tracer = Tracer(enabled=trace is not None, max_spans=1)
    cpu0 = time.process_time()
    with tracer.span("shard.run", ctx=trace, shard=shard_index, rows=len(rows)) as span:
        result = engine._run_single(
            graph, plan, [(rows, 2)], f"shard{shard_index}", collect_matches
        )
        span.tags.update(
            count=int(result.count),
            cpu_ms=round((time.process_time() - cpu0) * 1e3, 3),
            rss_mb=round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
            ),
        )
    result.op_spans = (result.op_spans or []) + tracer.spans() or None
    return result


def cpu_budget() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` and cgroup cpusets shrink it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _settle_worker(slots) -> None:
    """Worker initializer: take a CPU, and exit when the parent is gone.

    *A CPU of its own.*  Jobs reach a worker over a pipe, and the kernel
    likes to wake a pipe's reader on the writer's CPU: unpinned, two workers
    fed by one coordinator were seen sharing a core for whole 50 ms jobs
    (``shard.run`` ``cpu_ms`` half its ``dur_ms``) with the next core idle.
    A standing worker can afford what a per-request one could not: worker
    ``slot`` pins itself to the ``slot``-th CPU the process may use (wrapping
    when a request asked for more workers than CPUs).

    *Not an orphan.*  A parent that exits normally drains its workers
    (:func:`shutdown_workers`); one that is killed cannot, and an idle
    worker would wait on its job pipe for ever.  The parent sentinel
    ``multiprocessing`` gives every child becomes ready when the parent
    dies, whatever killed it.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait

    if hasattr(os, "sched_setaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[slots.get() % len(allowed)]})
    sentinel = mp.parent_process().sentinel

    def exit_with_parent() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


class _StandingWorkers:
    """The process's one pool of shard worker processes.

    Built by the first sharded run, fed jobs by every
    :class:`ShardCoordinator` on every thread from then on, and drained by
    :func:`shutdown_workers`.  It holds :func:`cpu_budget` workers; a
    request that asks for more (``ShardCoordinator(max_workers=…)``) swaps
    in a larger pool and the old one retires once its jobs are done.
    ``fork`` is preferred (start-up is milliseconds); ``spawn`` works too
    since :func:`_run_shard` is module-level and every argument pickles.
    """

    def __init__(self) -> None:
        self._reset()
        # A forked child inherits the pool object but not its manager
        # thread; it starts over with no pool (and an unheld lock).
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._pool = None
        self._size = 0

    def submit(self, jobs: list[tuple], need: int) -> tuple:
        """``(pool, futures)`` of :func:`_run_shard` over ``jobs`` on a pool
        of at least ``need`` workers."""
        import concurrent.futures as cf
        import multiprocessing as mp

        # Under the lock throughout, so no swap can close the pool between
        # choosing it and submitting to it.
        with self._lock:
            while True:
                if self._pool is None or self._size < need:
                    retired, self._size = self._pool, max(need, cpu_budget())
                    context = mp.get_context(
                        "fork" if "fork" in mp.get_all_start_methods() else "spawn"
                    )
                    slots = context.SimpleQueue()  # one number per worker
                    for slot in range(self._size):
                        slots.put(slot)
                    self._pool = cf.ProcessPoolExecutor(
                        self._size, context, _settle_worker, (slots,)
                    )
                    if retired is not None:
                        retired.shutdown(wait=False)  # its queued jobs still run
                pool = self._pool
                try:
                    return pool, [pool.submit(_run_shard, *job) for job in jobs]
                except cf.BrokenExecutor:
                    # Another request's worker died and its coordinator has
                    # not retired the pool yet: this one starts on a fresh one.
                    self._forget(pool)

    def _forget(self, pool) -> None:
        if self._pool is pool:
            self._pool = None
        pool.shutdown(wait=False)

    def retire(self, pool) -> None:
        """Discard ``pool`` (broken: a worker died); the next request builds
        a fresh one."""
        with self._lock:
            self._forget(pool)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)  # in-flight jobs finish first


_WORKERS = _StandingWorkers()


@atexit.register
def shutdown_workers() -> None:
    """Stop the standing shard workers once their in-flight jobs are done.

    Runs at interpreter exit; tests and embedders may call it any time —
    the next sharded run starts a new pool.
    """
    _WORKERS.shutdown()


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
        """Fan the shard jobs out over the process's standing workers.

        Any worker-side failure — an injected death, a poisoned pickle, a
        really dead worker (which breaks the pool under every request in
        flight on it) — leaves that shard's slot ``None`` (dead, to be
        re-run) rather than failing the job.  An explicit ``max_workers``
        bounds how many of this request's shards are out at once.
        """
        import concurrent.futures as cf

        results: list[Optional[MatchResult]] = [None] * len(jobs)
        limit = self.max_workers or len(jobs)
        for start in range(0, len(jobs), limit):
            pool, futures = _WORKERS.submit(
                jobs[start : start + limit], self.max_workers or 1
            )
            for s, future in enumerate(futures, start):
                try:
                    results[s] = future.result()
                except cf.BrokenExecutor:
                    _WORKERS.retire(pool)
                except Exception:
                    pass  # a dead shard: the slot stays None
        return results

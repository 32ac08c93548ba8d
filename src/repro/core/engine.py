"""The T-DFS engine: one kernel call per subgraph-matching job (Fig. 3).

``TDFSEngine.run`` compiles (or accepts) a matching plan, uploads the graph
to the simulated device, allocates the Ouroboros arena / array stacks and
``Q_task``, launches the resident warps, and turns the virtual-GPU run into
a :class:`~repro.core.result.MatchResult`.

The module-level :func:`match` is the one-call public entry point used by
the examples and benchmarks.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.alloc import ouroboros
from repro.alloc.ouroboros import OuroborosAllocator
from repro.alloc.stack import (
    OverflowPolicy,
    array_level_factory,
    paged_level_factory,
)
from repro.core import config as core_config
from repro.core.config import RunContext, StackMode, Strategy, TDFSConfig
from repro.core.edge_filter import host_prefilter
from repro.core.result import MatchResult, RecoveryStats
from repro.core.warp_matcher import MatchJob
from repro.errors import (
    DeviceError,
    DeviceOOMError,
    StackLevelOverflowError,
    UnsupportedError,
)
from repro.gpusim.device import VirtualGPU
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DEFAULT_DEVICE_MEMORY
from repro.query.pattern import QueryGraph
from repro.query.plan import MatchingPlan, compile_plan
from repro.taskqueue.ring import LockFreeTaskQueue


class TDFSEngine:
    """Depth-first GPU subgraph matching with timeout load balancing."""

    name = "tdfs"
    #: Whether this engine filters initial edges on the host, serially
    #: (STMatch does; T-DFS filters on the device, in parallel).
    host_filter = False
    #: Whether :meth:`run_resume` can continue a run from a recovery
    #: snapshot (checkpoint/resume in the serving layer).  True for every
    #: engine that executes through :meth:`_run_single` — the CPU and PBE
    #: baselines have their own run loops and do not support it.
    supports_resume = True

    def __init__(
        self, config: Optional[TDFSConfig] = None, ctx: Optional[RunContext] = None
    ) -> None:
        self.config = config or TDFSConfig()
        self.ctx = ctx or RunContext()

    # ------------------------------------------------------------------ #

    def run(
        self,
        graph: CSRGraph,
        query: Union[QueryGraph, MatchingPlan],
        collect_matches: int = 0,
    ) -> MatchResult:
        """Match ``query`` against ``graph``; returns a :class:`MatchResult`.

        ``collect_matches > 0`` additionally enumerates up to that many
        full embeddings into ``result.matches`` (tuples of data vertices
        indexed by query vertex id).
        """
        plan = self._compile_for(query, graph)
        if self.config.num_gpus > 1:
            from repro.core.multi_gpu import run_multi_gpu

            result = run_multi_gpu(
                graph, plan, self, self.config.num_gpus, collect_matches
            )
        elif self.config.shards > 1:
            from repro.shard.coordinator import ShardCoordinator

            # The compiled plan is passed down so portfolio resolution
            # happens exactly once, here in the coordinating process.
            result = ShardCoordinator(self).run(graph, plan, collect_matches)
        else:
            result = self._run_single(
                graph, plan, [(graph.directed_edge_array(), 2)], "gpu0", collect_matches
            )
        return self._finished(result)

    def _finished(self, result: MatchResult) -> MatchResult:
        """The one way a run's statistics reach a caller's registry:
        ``result.metrics`` stays this run alone, ``ctx.obs`` accumulates."""
        if self.ctx.obs is not None:
            self.ctx.obs.registry.fold(result.metrics)
        return result

    def run_resume(
        self,
        graph: CSRGraph,
        query: Union[QueryGraph, MatchingPlan],
        groups: list,
        base_count: int = 0,
    ) -> MatchResult:
        """Resume a checkpointed run from its saved frontier.

        ``groups`` is a list of ``(rows, width)`` work groups as produced
        by :func:`repro.faults.recovery.snapshot_pending_work` (via a
        checkpoint hook); ``base_count`` is the match count the original
        run had accumulated when the checkpoint was taken.  Executes *only*
        the snapshot — completed subtrees keep their counts — so
        ``result.count`` equals the uninterrupted run's count exactly.
        The result carries resume provenance (``resumed`` /
        ``resume_rows`` / ``resume_base_count``).
        """
        from repro.faults.recovery import pending_rows

        # Deterministic planner ⇒ same plan choice as the original run, so
        # snapshot rows keep their meaning (positions in the same order).
        plan = self._compile_for(query, graph)
        groups = list(groups)
        result = self._run_single(graph, plan, groups, "gpu0", recovered=True)
        result.count += int(base_count)
        result.resumed = True
        result.resume_rows = pending_rows(groups)
        result.resume_base_count = int(base_count)
        return self._finished(result)

    def _compile_for(
        self, query: Union[QueryGraph, MatchingPlan], graph: CSRGraph
    ) -> MatchingPlan:
        """:meth:`compile`; a labeled query on an unlabeled graph, which no
        rung of a run could test the labels of, is refused."""
        plan = self.compile(query, graph)
        if plan.is_labeled and not graph.is_labeled:
            raise UnsupportedError(
                "labeled query on an unlabeled data graph; attach labels first"
            )
        return plan

    def compile(
        self,
        query: Union[QueryGraph, MatchingPlan],
        graph: Optional[CSRGraph] = None,
    ) -> MatchingPlan:
        """Compile ``query`` exactly as :meth:`run` would.

        Public so callers (the serving layer's plan cache, the CLI's
        compile-time report) can separate plan compilation from matching;
        precompiled plans pass through unchanged.

        With ``config.planner`` set *and* the data graph provided, the
        matching order comes from the cost-based planner's best portfolio
        member (see :meth:`plan_portfolio`); otherwise — planner off, no
        graph, or a precompiled plan — the legacy greedy path runs,
        emitting bit-identical plans to pre-planner behaviour.
        """
        if (
            graph is not None
            and self.config.planner is not None
            and isinstance(query, QueryGraph)
        ):
            return self.plan_portfolio(graph, query).best.plan
        return self._resolve_plan(query)

    def plan_portfolio(self, graph: CSRGraph, query: QueryGraph):
        """Cost-ranked :class:`~repro.planner.search.PlanPortfolio` for
        ``query`` on ``graph`` under this engine's symmetry/reuse flags.

        Requires ``config.planner``; every member is a valid plan with the
        same match count, so callers may run any of them.
        """
        from repro.planner.search import plan_query

        if self.config.planner is None:
            raise UnsupportedError(
                "plan_portfolio requires config.planner to be set"
            )
        return plan_query(
            graph,
            query,
            planner=self.config.planner,
            cost=self.config.cost,
            enable_symmetry=self.config.enable_symmetry,
            enable_reuse=self.config.enable_reuse,
            parallelism=self.config.num_warps,
        )

    def _resolve_plan(self, query: Union[QueryGraph, MatchingPlan]) -> MatchingPlan:
        """The greedy-order plan: a constant of the (immutable) query and
        the two flags, so compiled once and kept on the query — engines
        only read a plan, never change it."""
        if isinstance(query, MatchingPlan):
            return query
        key = (self.config.enable_symmetry, self.config.enable_reuse)
        try:
            plans = query._plans
        except AttributeError:
            plans = query._plans = {}
        if key not in plans:
            plans[key] = compile_plan(
                query, enable_symmetry=key[0], enable_reuse=key[1]
            )
        return plans[key]

    # ------------------------------------------------------------------ #

    def _run_single(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        groups: list,
        gpu_name: str,
        collect_matches: int = 0,
        recovered: bool = False,
    ) -> MatchResult:
        """Run one device's share of the job (all of it when 1 GPU).

        ``groups`` — a list of ``(rows, width)`` work groups (see
        :data:`repro.faults.recovery.WorkGroup`) — is the entire workload.
        ``recovered`` marks groups that come out of a recovery snapshot
        (resume, retry, failover) rather than the initial-task space: such
        rows already encode what host prefiltering would produce, so it is
        skipped.  With ``ctx.retry`` set,
        failed attempts are retried from their own snapshots under the
        policy's degradation ladder; without it, behaviour is exactly the
        classic single-attempt run.
        """
        if self.ctx.retry is None:
            result, job, _gpu, fatal = self._run_attempt(
                graph, plan, groups, gpu_name, 1, collect_matches, recovered
            )
            if fatal is not None and self.ctx.fault_plan is not None:
                # No retry here, but the caller can still resume the
                # remainder (run_resume) off the result.
                result.pending_work = self._attempt_snapshot(job, groups)
            return result
        return self._run_resilient(
            graph, plan, groups, gpu_name, collect_matches, recovered
        )

    def _blank_result(self, graph: CSRGraph, plan: MatchingPlan) -> MatchResult:
        return MatchResult(
            engine=self.name,
            graph_name=graph.name,
            query_name=plan.query.name,
            count=0,
            elapsed_cycles=0,
            aut_size=plan.aut_size,
            symmetry_enabled=plan.symmetry_enabled,
        )

    def _run_attempt(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        groups: list,
        gpu_name: str,
        attempt: int,
        collect_matches: int = 0,
        recovered: bool = False,
    ) -> tuple[MatchResult, Optional[MatchJob], VirtualGPU, Optional[BaseException]]:
        """One device attempt; returns ``(result, job, gpu, fatal_error)``.

        ``job`` is the warp job (with partial counts and run states) even
        when the attempt aborted mid-run; it is ``None`` only when the
        failure happened before the job was constructed.
        """
        cfg = self.config
        budget = cfg.device_memory or DEFAULT_DEVICE_MEMORY
        gpu = VirtualGPU(
            num_warps=cfg.num_warps,
            memory_bytes=budget,
            cost=cfg.cost,
            name=gpu_name,
        )
        injector = None
        if self.ctx.fault_plan is not None:
            injector = self.ctx.fault_plan.arm(gpu, gpu_name, attempt)
        result = self._blank_result(graph, plan)
        job_sink: list = []
        fatal: Optional[BaseException] = None
        try:
            gpu.memory.allocate(graph.memory_bytes(), tag="csr-graph")
            self._execute(
                gpu,
                graph,
                plan,
                groups,
                result,
                collect_matches,
                recovered=recovered,
                injector=injector,
                job_sink=job_sink,
            )
        except DeviceOOMError as exc:
            result.error = "OOM"
            result.count = 0
            result.elapsed_cycles = gpu.scheduler.now
            result.metrics["mem.device_bytes.peak"] = gpu.memory.peak
            fatal = exc
        except StackLevelOverflowError as exc:
            result.error = "STACK_OVERFLOW"
            result.elapsed_cycles = gpu.scheduler.now
            fatal = exc
        except DeviceError as exc:
            result.error = f"ERR ({exc})"
            result.elapsed_cycles = gpu.scheduler.now
            fatal = exc
        if fatal is not None:
            # Its traceback holds this frame, and through it the device.
            fatal.__traceback__ = None
        if injector is not None:
            rec = result.recovery
            rec.faults_injected += injector.total_injected
            rec.faults_survived += injector.nonfatal_injected
            for kind, n in injector.injected.items():
                rec.faults_by_kind[kind] = rec.faults_by_kind.get(kind, 0) + n
        job = job_sink[0] if job_sink else None
        return result, job, gpu, fatal

    # ------------------------------------------------------------------ #
    # Resilient execution (retry + degradation ladder; see repro.faults)
    # ------------------------------------------------------------------ #

    def _attempt_snapshot(self, job: Optional[MatchJob], groups: list) -> list:
        """Pending work of a failed attempt, as ``(rows, width)`` groups."""
        from repro.faults.recovery import snapshot_pending_work

        if job is not None:
            return snapshot_pending_work(job)
        # The attempt died before the job existed (e.g. OOM while sizing
        # the queue or arena): nothing was consumed, everything is pending.
        return list(groups)

    def _run_resilient(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        groups: list,
        gpu_name: str,
        collect_matches: int = 0,
        recovered: bool = False,
    ) -> MatchResult:
        """Retry driver: snapshot-resume each failed attempt, degrading.

        Completed subtrees keep their counts across attempts — each retry
        re-executes only the snapshot of what the failed attempt had not
        finished, so the final count equals the fault-free count.
        """
        from repro.baselines.cpu import cpu_count
        from repro.faults.plan import RUNG_CPU_FALLBACK, apply_rungs
        from repro.faults.recovery import pending_rows

        policy = self.ctx.retry
        base_cfg = self.config
        recovery = RecoveryStats()
        total_count = 0
        collected_pos: list = []  # order-position tuples across attempts
        total_elapsed = 0
        applied_rungs: list = []
        pending: list = groups
        result: Optional[MatchResult] = None

        for attempt in range(1, policy.max_attempts + 1):
            recovery.attempts = attempt
            rungs = policy.rungs_for(attempt)
            new_rungs = list(rungs[len(applied_rungs) :])
            applied_rungs.extend(new_rungs)
            recovery.degradations.extend(new_rungs)
            room = collect_matches
            if collect_matches:
                room = max(0, collect_matches - len(collected_pos))

            if RUNG_CPU_FALLBACK in rungs:
                # Last rung: finish the remainder on the host — no device,
                # no device faults, guaranteed termination.
                sink: Optional[list] = [] if collect_matches else None
                total_count += cpu_count(
                    graph,
                    plan,
                    collect=sink,
                    resume_groups=pending,
                    collect_limit=room,
                )
                if sink:
                    collected_pos.extend(sink)
                recovery.tasks_reexecuted += pending_rows(pending)
                if result is None:
                    result = self._blank_result(graph, plan)
                result.error = None
                pending = None
                break

            self.config = apply_rungs(base_cfg, rungs)
            try:
                result, job, _gpu, fatal = self._run_attempt(
                    graph,
                    plan,
                    pending,
                    gpu_name,
                    attempt,
                    collect_matches=room,
                    recovered=recovered or attempt > 1,
                )
            finally:
                self.config = base_cfg
            recovery.merge(result.recovery)  # the attempt's injected faults
            if job is not None:
                total_count += job.count
                if collect_matches:
                    collected_pos.extend(job.collected)
            total_elapsed += result.elapsed_cycles

            if fatal is None:
                pending = None
                break

            # The attempt aborted: snapshot what it had not finished.
            pending = self._attempt_snapshot(job, pending)
            if attempt < policy.max_attempts:
                # The abort will be survived by the next attempt.
                recovery.faults_survived += 1
                recovery.tasks_reexecuted += pending_rows(pending)
                backoff = policy.backoff_cycles(attempt)
                recovery.backoff_cycles += backoff
                total_elapsed += backoff

        # Finished — or out of attempts: the terminal failure is reported,
        # but with the partial count and the snapshot attached so a
        # multi-GPU driver can fail over.
        result.count = total_count
        result.elapsed_cycles = total_elapsed
        if collect_matches and not result.failed:
            result.matches = plan.by_query_vertex(collected_pos)
        result.recovery = recovery
        result.pending_work = pending
        return result

    def _pre_kernel(
        self,
        gpu: VirtualGPU,
        graph: CSRGraph,
        plan: MatchingPlan,
        result: MatchResult,
    ) -> tuple[int, dict]:
        """Hook: device-side preprocessing before the kernel launches.

        Returns ``(device_cycles, job_kwargs)``; EGSM overrides this to
        build its CT-index (and possibly OOM).
        """
        return 0, {}

    def _make_job(self, **kwargs) -> MatchJob:
        """Hook: construct the warp job (:func:`job_class`; STMatch and EGSM
        override it)."""
        return job_class(self.config.strategy)(**kwargs)

    def _execute(
        self,
        gpu: VirtualGPU,
        graph: CSRGraph,
        plan: MatchingPlan,
        groups: list,
        result: MatchResult,
        collect_matches: int = 0,
        recovered: bool = False,
        injector=None,
        job_sink: Optional[list] = None,
    ) -> None:
        cfg, ctx = self.config, self.ctx
        host_cycles = 0
        prefiltered = self.host_filter and not recovered
        if prefiltered:
            # STMatch-style serial host preprocessing before kernel launch.
            # Initial (not recovered) groups are all width-2 edge rows.
            filtered = []
            for rows, width in groups:
                rows, cycles = host_prefilter(
                    graph, plan, rows, cfg.cost, cfg.enable_edge_filter
                )
                host_cycles += cycles
                filtered.append((rows, width))
            groups = filtered
            result.metrics["engine.host_cycles"] = host_cycles
        pre_cycles, job_extra = self._pre_kernel(gpu, graph, plan, result)
        start_time = host_cycles + pre_cycles

        queue: Optional[LockFreeTaskQueue] = None
        if cfg.strategy is Strategy.TIMEOUT:
            queue = LockFreeTaskQueue(cfg.queue_capacity_tasks, cost=cfg.cost)
            gpu.memory.allocate(queue.memory_bytes(), tag="task-queue")
            if injector is not None:
                injector.attach_queue(queue)

        allocator: Optional[OuroborosAllocator] = None
        child_stack_bytes = 0
        levels = max(plan.num_levels - 2, 1)
        if cfg.stack_mode is StackMode.PAGED:
            # Size the arena to the configured page count, but never beyond
            # 85 % of what is left on the device (the rest is working room).
            page_bytes = ouroboros.DEFAULT_PAGE_BYTES
            max_pages = max(64, int(gpu.memory.free * 0.85) // page_bytes)
            pages = min(cfg.arena_pages, max_pages)
            allocator = OuroborosAllocator(
                num_pages=pages, page_bytes=page_bytes, memory=gpu.memory
            )
            factory = paged_level_factory(
                allocator, cfg.page_table_size, cfg.release_pages
            )
            child_stack_bytes = 0  # children draw from the shared arena
        elif cfg.stack_mode is StackMode.ARRAY_DMAX:
            capacity = max(graph.max_degree, 1)
            per_warp = levels * capacity * 4
            gpu.memory.allocate(per_warp * cfg.num_warps, tag="array-stacks")
            factory = array_level_factory(capacity, OverflowPolicy.RAISE)
            child_stack_bytes = per_warp
        else:  # ARRAY_FIXED (STMatch default): truncates what does not fit
            capacity = core_config.STMATCH_FIXED_CAPACITY
            per_warp = levels * capacity * 4
            gpu.memory.allocate(per_warp * cfg.num_warps, tag="array-stacks")
            factory = array_level_factory(capacity, OverflowPolicy.TRUNCATE)
            child_stack_bytes = per_warp

        job = self._make_job(
            graph=graph,
            plan=plan,
            config=cfg,
            ctx=ctx,
            gpu=gpu,
            groups=groups,
            queue=queue,
            level_factory=factory,
            prefiltered=prefiltered,
            child_stack_bytes=child_stack_bytes,
            collect_limit=collect_matches,
            tracer=ctx.obs.tracer if ctx.obs is not None else None,
            device=_device_index(gpu.name),
            **job_extra,
        )
        if job_sink is not None:
            job_sink.append(job)
        if ctx.checkpoint_every_events > 0 and ctx.checkpoint_hook is not None:
            # Periodic consistent checkpoints: every N events the scheduler
            # pauses with all warps at yield points and hands the live job
            # to the hook, which may snapshot the pending frontier (or
            # raise, simulating the executing worker's death mid-match).
            hook = ctx.checkpoint_hook
            gpu.scheduler.pause_every = ctx.checkpoint_every_events
            gpu.scheduler.pause_hook = lambda now: hook(job, now)
        gpu.note_work_done(start_time)
        try:
            gpu.launch(job.warp_body, at=start_time)
            gpu.scheduler.run()
        finally:
            # The hook holds the job, which holds the device: unhook it so
            # a finished or aborted device dies by reference counting.
            gpu.scheduler.pause_hook = None

        result.count = job.count
        if collect_matches:
            result.matches = plan.by_query_vertex(job.collected)
        result.elapsed_cycles = gpu.finish_time
        result.num_gpus = 1
        self._account(result, job, gpu, queue, allocator)

    def _account(self, result, job, gpu, queue, allocator) -> None:
        """Hook: write the finished run's statistics — everything but the
        count, the matches and the elapsed cycles — into
        ``result.metrics``, each value once (the typed attributes are views
        over it, see :data:`repro.core.result.METRIC_VIEWS`).  A caller
        that reads none of them (the incremental matcher's anchored runs)
        overrides this."""
        result.overflowed = job.overflowed()
        agg = gpu.total_stats()
        result.metrics.update(
            {
                "engine.matches": job.count,
                "engine.intersections": job.intersections,
                "engine.reuse_hits": job.reuse_hits,
                "engine.kernel_launches": gpu.kernel_launches,
                "warp.timeouts": agg.timeouts,
                "warp.steals": agg.steals,
                "warp.chunks_fetched": agg.chunks,
                "warp.load_imbalance.peak": gpu.load_imbalance(),
                "warp.matches.peak": max(
                    (w.matches for w in gpu.warps), default=0
                ),
                "sim.events": gpu.scheduler.events,
                "sim.busy_cycles": agg.busy_cycles,
                "sim.idle_cycles": agg.idle_cycles,
                "mem.graph_bytes": job.graph.memory_bytes(),
                "mem.stack_bytes": job.stack_bytes(),
                "mem.device_bytes.peak": gpu.memory.peak,
            }
        )
        if queue is not None:
            result.metrics.update(
                {
                    "queue.enqueued": queue.enqueued,
                    "queue.dequeued": queue.dequeued,
                    "queue.enqueue_failures": queue.enqueue_failures,
                    "queue.dequeue_failures": queue.dequeue_failures,
                    "queue.occupancy.peak": queue.peak_tasks,
                    "mem.queue_bytes": queue.memory_bytes(),
                }
            )
        if allocator is not None:
            result.metrics["mem.arena_bytes"] = allocator.arena_bytes()
            result.metrics["alloc.pages_in_use.peak"] = allocator.peak_in_use


def _device_index(gpu_name: str) -> int:
    """Device index from names like ``gpu0`` / ``gpu2+fo1`` (trace pids)."""
    digits = ""
    for ch in gpu_name:
        if ch.isdigit():
            digits += ch
        elif digits:
            break
    return int(digits) if digits else 0


def match(
    graph: CSRGraph,
    query: Union[QueryGraph, MatchingPlan, str],
    engine: str = "tdfs",
    config: Optional[TDFSConfig] = None,
    ctx: Optional[RunContext] = None,
) -> MatchResult:
    """One-call subgraph matching.

    ``query`` may be a :class:`QueryGraph`, a precompiled plan, or a pattern
    name like ``"P4"``.  ``engine`` selects the system: ``"tdfs"`` (this
    paper), ``"stmatch"``, ``"egsm"``, ``"pbe"`` or ``"cpu"`` (serial
    reference).  ``config`` says what to compute, ``ctx`` how to run it
    (observability, fault injection, retry — see :class:`RunContext`).

    >>> from repro.graph import from_edges
    >>> g = from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    >>> match(g, "P1").count   # diamonds in the 4-cycle-with-chord
    1
    """
    if isinstance(query, str):
        from repro.query.patterns import get_pattern

        query = get_pattern(query)
    return make_engine(engine, config, ctx).run(graph, query)


def available_engines() -> tuple[str, ...]:
    """Names of every registered engine, in registry order.

    The single source of truth for engine names: the CLI's ``--engine``
    choices and error messages and the serving layer
    (:mod:`repro.serve`) all derive from this instead of hand-maintained
    lists.
    """
    return tuple(_engine_registry())


def is_engine(name: str) -> bool:
    """Whether ``name`` is a registered engine."""
    return name in _engine_registry()


def make_engine(
    name: str, config: Optional[TDFSConfig] = None, ctx: Optional[RunContext] = None
):
    """Construct a fresh engine instance by registry name.

    Engine objects are cheap to build but must not be shared across
    threads — the serving layer's workers each construct their own.
    """
    engines = _engine_registry()
    if name not in engines:
        raise UnsupportedError(
            f"unknown engine {name!r}; available: "
            f"{', '.join(available_engines())}"
        )
    return engines[name](config, ctx)


def job_class(strategy: Strategy) -> type[MatchJob]:
    """The job class running ``strategy``: a baseline's subclass, or
    ``MatchJob`` (``TIMEOUT`` and ``NONE`` differ only in the queue)."""
    _engine_registry()
    return _JOBS.get(strategy, MatchJob)


#: Engine name → class and strategy → job class, filled on first use (the
#: baseline modules import this one, so cannot be imported when it loads).
_ENGINES: dict[str, type] = {}
_JOBS: dict[Strategy, type[MatchJob]] = {}


def _engine_registry() -> dict[str, type]:
    if not _ENGINES:
        from repro.baselines.cpu import CPUEngine
        from repro.baselines.egsm import ChildKernelJob, EGSMEngine
        from repro.baselines.pbe import PBEEngine
        from repro.baselines.stmatch import HalfStealJob, STMatchEngine

        # Jobs first: a filled ``_ENGINES`` means both tables are.
        _JOBS.update(
            {Strategy.HALF_STEAL: HalfStealJob, Strategy.NEW_KERNEL: ChildKernelJob}
        )
        _ENGINES.update(
            tdfs=TDFSEngine, stmatch=STMatchEngine, egsm=EGSMEngine,
            pbe=PBEEngine, cpu=CPUEngine,
        )
    return _ENGINES

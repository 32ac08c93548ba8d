"""White-box tests for the warp matcher: decomposition, stealing, kernels.

These assemble a :class:`MatchJob` directly (without the engine wrapper)
to pin down internal behaviours the black-box tests cannot isolate.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.alloc.ouroboros import OuroborosAllocator
from repro.alloc.stack import paged_level_factory
from repro.baselines.egsm import ChildKernelJob
from repro.core.config import RunContext, Strategy, TDFSConfig
from repro.core.engine import job_class, match
from repro.core.warp_matcher import MatchJob, RunState, SYNC_INTERVAL
from repro.faults import FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.faults.recovery import snapshot_pending_work
from repro.gpusim.device import VirtualGPU, Warp
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.query.patterns import get_pattern
from repro.query.plan import compile_plan
from repro.taskqueue.ring import LockFreeTaskQueue
from repro.taskqueue.tasks import PLACEHOLDER, Task


def make_job(graph, pattern="P3", strategy=Strategy.TIMEOUT, ctx=None, **cfg_over):
    cfg = TDFSConfig(num_warps=4, strategy=strategy, **cfg_over)
    plan = compile_plan(get_pattern(pattern))
    gpu = VirtualGPU(num_warps=4, memory_bytes=32 * 1024 * 1024)
    allocator = OuroborosAllocator(num_pages=4096, page_bytes=64)
    queue = (
        LockFreeTaskQueue(cfg.queue_capacity_tasks)
        if strategy is Strategy.TIMEOUT
        else None
    )
    job = job_class(strategy)(
        graph=graph,
        plan=plan,
        config=cfg,
        gpu=gpu,
        groups=[(graph.directed_edge_array(), 2)],
        queue=queue,
        level_factory=paged_level_factory(allocator),
        ctx=ctx,
    )
    return job, gpu


@pytest.fixture()
def wheel_graph():
    """A hub joined to a 12-cycle: deep subtrees under the hub edges."""
    edges = []
    n = 12
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n))  # hub = vertex 12
    return from_edges(edges, name="wheel")


class TestJobLifecycle:
    def test_finished_initially_false(self, wheel_graph):
        job, _ = make_job(wheel_graph)
        assert not job.finished()

    def test_finished_after_run(self, wheel_graph):
        job, gpu = make_job(wheel_graph)
        gpu.launch(job.warp_body)
        gpu.run()
        assert job.finished()
        assert job.busy == 0
        assert job.pending_initial() == []

    def test_plain_context_snapshots_like_an_armed_one(self, wheel_graph):
        # The queue is the record of queued work: a job run under a plain
        # RunContext snapshots the same remainder, pause for pause, as one
        # under a checkpointing context.
        snaps = {}
        for name, ctx in (
            ("armed", RunContext(checkpoint_every_events=7)),
            ("plain", RunContext()),
        ):
            job, gpu = make_job(wheel_graph, tau_cycles=100, ctx=ctx)
            taken = snaps[name] = []

            def hook(_now, job=job, taken=taken):
                if job.queue.num_tasks:  # a remainder with queued tasks
                    taken.append(
                        [(r.tolist(), w) for r, w in snapshot_pending_work(job)]
                    )

            gpu.scheduler.pause_every = 7
            gpu.scheduler.pause_hook = hook
            gpu.launch(job.warp_body)
            gpu.run()
        assert snaps["armed"] and snaps["plain"] == snaps["armed"]

    def test_counts_deterministic(self, wheel_graph):
        counts = set()
        times = set()
        for _ in range(3):
            job, gpu = make_job(wheel_graph)
            gpu.launch(job.warp_body)
            gpu.run()
            counts.add(job.count)
            times.add(gpu.finish_time)
        assert len(counts) == 1
        assert len(times) == 1  # the DES is fully deterministic


class TestTimeoutDecomposition:
    def test_tasks_have_at_most_three_vertices(self, wheel_graph):
        job, gpu = make_job(wheel_graph, tau_cycles=100)
        seen_depths = set()
        original_enqueue = job.queue.enqueue

        def spy(task, block=None, slot=0):
            seen_depths.add(task.depth)
            n = wheel_graph.num_vertices
            assert 0 <= task.v1 < n and 0 <= task.v2 < n
            assert task.v3 == PLACEHOLDER or 0 <= task.v3 < n
            return original_enqueue(task, block, slot)

        job.queue.enqueue = spy
        gpu.launch(job.warp_body)
        gpu.run()
        assert seen_depths  # decomposition happened
        assert seen_depths <= {2, 3}

    def test_no_decomposition_without_queue(self, wheel_graph):
        job, gpu = make_job(wheel_graph, strategy=Strategy.NONE)
        gpu.launch(job.warp_body)
        gpu.run()
        agg = gpu.total_stats()
        assert agg.timeouts == 0

    def test_enqueued_equals_dequeued(self, wheel_graph):
        job, gpu = make_job(wheel_graph, tau_cycles=200)
        gpu.launch(job.warp_body)
        gpu.run()
        assert job.queue.enqueued == job.queue.dequeued
        assert job.queue.num_tasks == 0


class TestRunStateHygiene:
    def test_stale_levels_cleared_between_items(self, wheel_graph):
        # After a run, every RunState's filtered entries beyond the last
        # item's prefix are None (no stale candidates a thief could see).
        job, gpu = make_job(wheel_graph, strategy=Strategy.HALF_STEAL)
        gpu.launch(job.warp_body)
        gpu.run()
        for st in job.run_states:
            assert not st.busy_flag
            assert st.chunk is None

    def test_sync_interval_reasonable(self):
        assert 1 <= SYNC_INTERVAL <= 4096


class TestChildKernels:
    @pytest.fixture(autouse=True)
    def _fanout(self, monkeypatch):
        monkeypatch.setattr(ChildKernelJob, "fanout", 4)

    def test_child_kernel_spawn_and_count(self, wheel_graph):
        job, gpu = make_job(wheel_graph, strategy=Strategy.NEW_KERNEL)
        gpu.launch(job.warp_body)
        gpu.run()
        assert gpu.kernel_launches > 0
        baseline, gpu2 = make_job(wheel_graph, strategy=Strategy.NONE)
        gpu2.launch(baseline.warp_body)
        gpu2.run()
        assert job.count == baseline.count

    def test_kernel_warps_tracked_in_stats(self, wheel_graph):
        job, gpu = make_job(wheel_graph, strategy=Strategy.NEW_KERNEL)
        gpu.launch(job.warp_body)
        gpu.run()
        # Child warps were created beyond the 4 resident ones.
        assert len(gpu.warps) > 4


#: Every engine and strategy, each plain, checkpointed (the supervisor's
#: pause hook) and under a seeded fault plan (the fault injector's device
#: hooks): none of them may keep a finished run alive.
LIFETIME_CASES = pytest.mark.parametrize(
    "engine, strategy, run",
    [
        (engine, strategy, run)
        for engine, strategy in [("tdfs", s) for s in Strategy]
        + [("stmatch", Strategy.HALF_STEAL), ("egsm", Strategy.NEW_KERNEL)]
        for run in ("plain", "checkpoint", "faulted")
    ],
    ids=lambda v: getattr(v, "value", v),
)


def lifetime_context(run: str, hooked: list) -> RunContext:
    """The run's context; ``hooked`` collects the checkpoint hook's calls."""
    return {
        "plain": RunContext(),
        "checkpoint": RunContext(
            checkpoint_every_events=7,
            checkpoint_hook=lambda _job, now: hooked.append(now),
        ),
        "faulted": RunContext(fault_plan=FaultPlan.seeded(0)),
    }[run]


def lifetime_context_worked(run: str, result, hooked: list) -> bool:
    """The context did what it is there for: the hook paused the run, or
    the plan injected faults."""
    return {
        "plain": True,
        "checkpoint": bool(hooked),
        "faulted": bool(result.recovery.faults_by_kind),
    }[run]


class TestJobLifetime:
    """A finished job is freed by reference counting alone: no strategy
    leaves a cycle through it (a strategy object holding its job, say), so
    no finished job waits for the cyclic collector."""

    @LIFETIME_CASES
    def test_finished_job_is_freed_without_the_cycle_collector(
        self, wheel_graph, monkeypatch, engine, strategy, run
    ):
        jobs = []
        init = MatchJob.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            jobs.append(weakref.ref(self))

        monkeypatch.setattr(MatchJob, "__init__", spy)
        # Timeouts, steals and child kernels all fire on this config.
        monkeypatch.setattr(ChildKernelJob, "fanout", 4)
        cfg = TDFSConfig(num_warps=8, chunk_size=8, strategy=strategy, tau_cycles=200)
        hooked: list = []
        ctx = lifetime_context(run, hooked)
        gc.collect()
        gc.disable()
        try:
            result = match(wheel_graph, "P3", engine=engine, config=cfg, ctx=ctx)
            assert lifetime_context_worked(run, result, hooked)
            worked = (
                result.metrics.get("warp.timeouts", 0),
                result.metrics.get("warp.steals", 0),
                result.metrics.get("engine.kernel_launches", 0),
            )
            del result
            alive = [ref for ref in jobs if ref() is not None]
        finally:
            gc.enable()
        assert jobs
        if strategy is not Strategy.NONE and run == "plain":
            assert any(worked), worked
        assert not alive, f"{len(alive)} of {len(jobs)} finished jobs still alive"

    @LIFETIME_CASES
    def test_finished_match_frees_its_device_without_the_cycle_collector(
        self, wheel_graph, monkeypatch, engine, strategy, run
    ):
        # No warp points back at its device, so the device, every warp
        # (child kernels' included) and every run state die by reference
        # counting when match() returns.  Warps and run states are slotted
        # without weak-reference support; the collector's object list, read
        # with the collector off, shows which of them still exist.
        kinds = (VirtualGPU, Warp, RunState)
        created = {"warps": 0, "run states": 0}
        new_run_state, launch = MatchJob.new_run_state, VirtualGPU.launch

        def spy_run_state(self):
            created["run states"] += 1
            return new_run_state(self)

        def spy_launch(self, *args, **kwargs):
            warps = launch(self, *args, **kwargs)
            created["warps"] += len(warps)
            return warps

        monkeypatch.setattr(MatchJob, "new_run_state", spy_run_state)
        monkeypatch.setattr(VirtualGPU, "launch", spy_launch)
        monkeypatch.setattr(ChildKernelJob, "fanout", 4)
        cfg = TDFSConfig(num_warps=8, chunk_size=8, strategy=strategy, tau_cycles=200)

        def live():
            return [o for o in gc.get_objects() if isinstance(o, kinds)]

        hooked: list = []
        ctx = lifetime_context(run, hooked)
        gc.collect()
        before = live()  # held elsewhere: alive throughout, ids stay theirs
        seen = {id(o) for o in before}
        gc.disable()
        try:
            result = match(wheel_graph, "P3", engine=engine, config=cfg, ctx=ctx)
            assert run == "faulted" or result.error is None, result.error
            assert lifetime_context_worked(run, result, hooked)
            del result
            alive = [type(o).__name__ for o in live() if id(o) not in seen]
        finally:
            gc.enable()
        assert all(created.values()), created
        assert not alive, f"{len(alive)} objects of a finished match alive: {alive}"

    @pytest.mark.parametrize("run", ["checkpoint", "stall", "abort", "abort-retry"])
    def test_checkpointed_and_faulted_matches_leave_no_cyclic_garbage(
        self, wheel_graph, run
    ):
        # The checkpoint hook, the fault injector's device hooks, an
        # aborted attempt's suspended warp bodies and its traceback each
        # once held the device in a cycle.  What the collector finds after
        # one such match, with everything it found kept, must be nothing.
        abort = FaultSpec(FaultKind.ILLEGAL_ACCESS, attempt=None, at_op=40)
        hooked = []

        def snapshot(job, _now):
            hooked.append(len(snapshot_pending_work(job)))

        ctx = {
            "checkpoint": RunContext(
                checkpoint_every_events=7, checkpoint_hook=snapshot
            ),
            "stall": RunContext(fault_plan=FaultPlan(seed=0, stall_rate=0.5)),
            "abort": RunContext(fault_plan=FaultPlan(schedule=(abort,))),
            "abort-retry": RunContext(
                fault_plan=FaultPlan(schedule=(abort,)), retry=RetryPolicy()
            ),
        }[run]
        cfg = TDFSConfig(num_warps=8, chunk_size=8, tau_cycles=200)
        match(wheel_graph, "P3", config=cfg, ctx=ctx)  # imports, caches
        gc.collect()
        gc.disable()
        try:
            result = match(wheel_graph, "P3", config=cfg, ctx=ctx)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            garbage = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        worked = {
            "checkpoint": bool(hooked),
            "stall": "stall" in result.recovery.faults_by_kind,
            "abort": result.error is not None,
            "abort-retry": result.error is None
            and result.recovery.degradations[-1:] == ["cpu-fallback"],
        }[run]
        assert worked, result.recovery
        assert not garbage, f"{len(garbage)} cyclic objects: {sorted(set(garbage))}"

    @pytest.mark.parametrize("call", ["compile", "cpu-match"])
    def test_symmetry_breaking_leaves_no_cyclic_garbage(self, call):
        # Every compile enumerates the pattern's automorphism group with a
        # self-recursive closure; it once held itself in a cycle.
        graph = load_dataset("dblp")
        run = {
            "compile": lambda: compile_plan(get_pattern("P2")),
            "cpu-match": lambda: match(graph, "P1", engine="cpu"),
        }[call]
        run()  # imports, caches
        gc.collect()
        gc.disable()
        try:
            run()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            garbage = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not garbage, f"{len(garbage)} cyclic objects: {sorted(set(garbage))}"

    def test_dropped_graph_frees_its_bitset_without_the_cycle_collector(
        self, small_plc
    ):
        # The bitset lives on the graph, not in a table keyed by it: a
        # dropped graph takes it along (a serve graph version, say).  Only
        # the graph refers to it, so while it lives the graph does too.
        graph = CSRGraph(small_plc.row_ptr, small_plc.col_idx, name="fresh")
        gc.collect()
        gc.disable()
        try:
            result = match(graph, "P3", config=TDFSConfig(num_warps=8))
            assert graph._adj_bits is not None  # the run built it
            bits = weakref.ref(graph._adj_bits)
            del graph, result
            alive = bits() is not None
        finally:
            gc.enable()
        assert not alive


class TestTaskEncodingRoundTrip:
    def test_depth2_task_processed_like_edge(self, wheel_graph):
        job, gpu = make_job(wheel_graph)
        # Pre-seed the queue with one edge task and run with no initial
        # edges: the count must equal that edge's subtree alone.
        edge = job.groups[0][0][0]
        job.groups = []
        ok, _ = job.queue.enqueue(Task(int(edge[0]), int(edge[1]), PLACEHOLDER))
        assert ok
        gpu.launch(job.warp_body)
        gpu.run()
        assert job.busy == 0
        assert job.queue.num_tasks == 0

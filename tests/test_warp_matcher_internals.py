"""White-box tests for the warp matcher: decomposition, stealing, kernels.

These assemble a :class:`MatchJob` directly (without the engine wrapper)
to pin down internal behaviours the black-box tests cannot isolate.
"""

import numpy as np
import pytest

from repro.alloc.ouroboros import OuroborosAllocator
from repro.alloc.stack import paged_level_factory
from repro.core.config import Strategy, TDFSConfig
from repro.core.warp_matcher import MatchJob, RunState, SYNC_INTERVAL
from repro.gpusim.device import VirtualGPU
from repro.graph.builder import from_edges
from repro.query.patterns import get_pattern
from repro.query.plan import compile_plan
from repro.taskqueue.ring import LockFreeTaskQueue
from repro.taskqueue.tasks import PLACEHOLDER, Task


def make_job(graph, pattern="P3", strategy=Strategy.TIMEOUT, **cfg_over):
    cfg = TDFSConfig(num_warps=4, strategy=strategy, **cfg_over)
    plan = compile_plan(get_pattern(pattern))
    gpu = VirtualGPU(num_warps=4, memory_bytes=32 * 1024 * 1024)
    allocator = OuroborosAllocator(num_pages=4096, page_bytes=64)
    queue = (
        LockFreeTaskQueue(capacity_ints=cfg.queue_capacity_tasks * 3)
        if strategy is Strategy.TIMEOUT
        else None
    )
    job = MatchJob(
        graph=graph,
        plan=plan,
        config=cfg,
        gpu=gpu,
        groups=[(graph.directed_edge_array(), 2)],
        queue=queue,
        level_factory=paged_level_factory(allocator),
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

        def spy(task):
            seen_depths.add(task.depth)
            task.validate()
            return original_enqueue(task)

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
    def test_child_kernel_spawn_and_count(self, wheel_graph):
        job, gpu = make_job(
            wheel_graph, strategy=Strategy.NEW_KERNEL, new_kernel_fanout=4
        )
        gpu.launch(job.warp_body)
        gpu.run()
        assert gpu.kernel_launches > 0
        baseline, gpu2 = make_job(wheel_graph, strategy=Strategy.NONE)
        gpu2.launch(baseline.warp_body)
        gpu2.run()
        assert job.count == baseline.count

    def test_kernel_warps_tracked_in_stats(self, wheel_graph):
        job, gpu = make_job(
            wheel_graph, strategy=Strategy.NEW_KERNEL, new_kernel_fanout=4
        )
        gpu.launch(job.warp_body)
        gpu.run()
        # Child warps were created beyond the 4 resident ones.
        assert len(gpu.warps) > 4


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

"""Tests for the four load-balancing strategies (paper Fig. 11).

Every strategy must produce identical counts; they differ only in virtual
time and in the side-channel statistics (timeouts, steals, kernel
launches).
"""

import pytest

from repro import Strategy, TDFSConfig
from repro.baselines.egsm import ChildKernelJob
from repro.baselines.cpu import cpu_count
from repro.core.engine import TDFSEngine
from repro.query.patterns import get_pattern
from repro.query.plan import compile_plan

ALL = [Strategy.TIMEOUT, Strategy.HALF_STEAL, Strategy.NEW_KERNEL, Strategy.NONE]


def run(graph, pattern_name, strategy, **over):
    cfg = TDFSConfig(num_warps=8, strategy=strategy, **over)
    return TDFSEngine(cfg).run(graph, get_pattern(pattern_name))


class TestCountsAgree:
    @pytest.mark.parametrize("strategy", ALL)
    def test_small_plc(self, small_plc, strategy):
        plan = compile_plan(get_pattern("P3"))
        expect = cpu_count(small_plc, plan)
        assert run(small_plc, "P3", strategy).count == expect

    @pytest.mark.parametrize("strategy", ALL)
    def test_skewed_graph(self, skewed_graph, strategy):
        plan = compile_plan(get_pattern("P1"))
        expect = cpu_count(skewed_graph, plan)
        assert run(skewed_graph, "P1", strategy).count == expect

    @pytest.mark.parametrize("strategy", ALL)
    def test_labeled(self, labeled_plc, strategy):
        plan = compile_plan(get_pattern("P14"))
        expect = cpu_count(labeled_plc, plan)
        assert run(labeled_plc, "P14", strategy).count == expect


class TestTimeoutStrategy:
    def test_aggressive_tau_decomposes(self, skewed_graph):
        result = run(skewed_graph, "P3", Strategy.TIMEOUT, tau_cycles=200)
        assert result.timeouts > 0
        assert result.queue.enqueued > 0
        assert result.queue.enqueued == result.queue.dequeued

    def test_huge_tau_never_fires(self, small_plc):
        result = run(small_plc, "P3", Strategy.TIMEOUT, tau_cycles=10**12)
        assert result.timeouts == 0
        assert result.queue.enqueued == 0

    def test_tiny_queue_survives_overflow(self, skewed_graph):
        # A full queue must fall back to in-place execution (Alg. 4 l.18-20),
        # never lose work.
        plan = compile_plan(get_pattern("P3"))
        expect = cpu_count(skewed_graph, plan)
        result = run(
            skewed_graph,
            "P3",
            Strategy.TIMEOUT,
            tau_cycles=200,
            queue_capacity_tasks=2,
        )
        assert result.count == expect

    def test_timeout_improves_makespan_on_stragglers(self, straggler_graph):
        # The headline claim: timeout stealing beats no stealing when the
        # workload has straggler subtrees.
        with_steal = run(straggler_graph, "P3", Strategy.TIMEOUT)
        without = run(straggler_graph, "P3", Strategy.NONE)
        assert with_steal.count == without.count
        assert with_steal.elapsed_cycles < without.elapsed_cycles

    def test_balance_improves(self, straggler_graph):
        with_steal = run(straggler_graph, "P3", Strategy.TIMEOUT)
        without = run(straggler_graph, "P3", Strategy.NONE)
        assert with_steal.load_imbalance < without.load_imbalance


class TestHalfSteal:
    def test_steals_happen(self, skewed_graph):
        result = run(skewed_graph, "P3", Strategy.HALF_STEAL)
        assert result.steals > 0

    def test_no_queue_involved(self, skewed_graph):
        result = run(skewed_graph, "P3", Strategy.HALF_STEAL)
        assert result.queue.enqueued == 0


class TestNewKernel:
    def test_kernels_launched_on_fanout(self, skewed_graph, monkeypatch):
        monkeypatch.setattr(ChildKernelJob, "fanout", 16)
        result = run(skewed_graph, "P3", Strategy.NEW_KERNEL)
        assert result.kernel_launches > 0

    def test_no_kernel_below_threshold(self, small_plc, monkeypatch):
        monkeypatch.setattr(ChildKernelJob, "fanout", 10_000)
        result = run(small_plc, "P2", Strategy.NEW_KERNEL)
        assert result.kernel_launches == 0

    def test_launch_cost_charged(self, skewed_graph, monkeypatch):
        fast = run(skewed_graph, "P3", Strategy.NONE)
        monkeypatch.setattr(ChildKernelJob, "fanout", 16)
        kern = run(skewed_graph, "P3", Strategy.NEW_KERNEL)
        assert kern.count == fast.count


class TestNoSteal:
    def test_no_side_channels(self, small_plc):
        result = run(small_plc, "P3", Strategy.NONE)
        assert result.timeouts == 0
        assert result.steals == 0
        assert result.kernel_launches == 0

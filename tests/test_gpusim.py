"""Unit tests for the virtual-GPU substrate: scheduler, device, memory."""

import pytest

from repro import TDFSConfig, match
from repro.baselines.egsm import ChildKernelJob
from repro.core.config import Strategy
from repro.errors import DeviceError, DeviceOOMError
from repro.faults import FaultInjector, FaultPlan
from repro.gpusim.costmodel import CYCLES_PER_MS, CostModel
from repro.gpusim.device import VirtualGPU, Warp
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.scheduler import Scheduler


class TestScheduler:
    def test_runs_in_time_order(self):
        sched = Scheduler()
        log = []

        class Ctx:
            def __init__(self, name):
                self.name = name
                self._resume_time = self.finish_time = 0

        def body(name, costs):
            for c in costs:
                log.append(name)
                yield c

        sched.spawn(Ctx("slow"), body("slow", [100, 100]))
        sched.spawn(Ctx("fast"), body("fast", [10, 10, 10]))
        end = sched.run()
        # fast's second step (t=10) precedes slow's second step (t=100).
        assert log[:2] == ["slow", "fast"]  # both start at t=0
        assert log.index("fast", 2) < len(log)
        assert end == 200

    def test_spawn_during_run(self):
        sched = Scheduler()
        seen = []

        class Ctx:
            _resume_time = finish_time = 0

        def child():
            seen.append("child")
            yield 1

        def parent():
            yield 5
            sched.spawn(Ctx(), child(), at=sched.now + 100)
            yield 1

        sched.spawn(Ctx(), parent())
        sched.run()
        assert seen == ["child"]

    def test_livelock_guard(self):
        sched = Scheduler()

        class Ctx:
            _resume_time = finish_time = 0

        def forever():
            while True:
                yield 1

        sched.spawn(Ctx(), forever())
        with pytest.raises(DeviceError):
            sched.run(max_events=100)


class TestSchedulerParity:
    """Faults wrap bodies, not the loop: an identity body wrapper installed
    the way the injector installs one (a ``FaultInjector`` whose plan fires
    nothing: no illegal access, a stall factor of 1) changes nothing, and
    ``now`` stays current for the child kernels a ``NEW_KERNEL`` warp
    launches mid-run."""

    CASES = {
        Strategy.TIMEOUT: TDFSConfig(num_warps=8, tau_cycles=300, chunk_size=4),
        Strategy.HALF_STEAL: TDFSConfig(
            num_warps=8, strategy=Strategy.HALF_STEAL, chunk_size=64
        ),
        Strategy.NEW_KERNEL: TDFSConfig(num_warps=8, strategy=Strategy.NEW_KERNEL),
    }

    @staticmethod
    def _run(graph, cfg, monkeypatch, hooked):
        warps, resumed, spawned_late, wrapped = [], [], [], []
        spawn, launch = Scheduler.spawn, VirtualGPU.launch

        def spy_spawn(self, warp, body, at=None):
            if resumed:  # mid-run: the spawning warp is the one resumed last
                assert self.now == resumed[-1][0]
                spawned_late.append(warp)
            warps.append(warp)
            return spawn(self, warp, body, at)

        def traced(warp, body):
            # Records each resumption the way the loop hands it over.
            while True:
                resumed.append((warp._resume_time, warp.wid))
                try:
                    spent = body.send(None)
                except StopIteration:
                    return
                yield spent

        def spy_launch(self, body, count=None, at=None):
            if hooked and self.wrap_body is None:
                injector = FaultInjector(FaultPlan(), self, self.name, 1)
                assert self.wrap_body == injector.wrap_body
                wrapped.append(injector)
            inner = self.wrap_body
            self.wrap_body = (
                traced if inner is None else lambda w, b: traced(w, inner(w, b))
            )
            try:
                return launch(self, body, count, at)
            finally:
                self.wrap_body = inner

        with monkeypatch.context() as m:
            m.setattr(Scheduler, "spawn", spy_spawn)
            m.setattr(VirtualGPU, "launch", spy_launch)
            result = match(graph, "P3", config=cfg)
        if hooked:
            assert wrapped and not any(i.total_injected for i in wrapped)
        stats = [(w.busy_cycles, w.idle_cycles, w.finish_time) for w in warps]
        return result, stats, len(spawned_late), resumed

    @pytest.mark.parametrize("strategy", list(CASES), ids=lambda s: s.value)
    def test_identity_charge_hook(self, strategy, small_plc, monkeypatch):
        cfg = self.CASES[strategy]
        monkeypatch.setattr(ChildKernelJob, "fanout", 4)
        plain, plain_stats, late, plain_order = self._run(
            small_plc, cfg, monkeypatch, False
        )
        hooked, hooked_stats, _, hooked_order = self._run(
            small_plc, cfg, monkeypatch, True
        )
        assert plain.error is None and plain.count == hooked.count
        assert plain.elapsed_cycles == hooked.elapsed_cycles
        assert plain.metrics["sim.events"] == hooked.metrics["sim.events"]
        assert plain_stats == hooked_stats
        assert plain_order == hooked_order
        engaged = {
            Strategy.TIMEOUT: plain.timeouts,
            Strategy.HALF_STEAL: plain.steals,
            Strategy.NEW_KERNEL: late,
        }
        assert engaged[strategy] > 0


class TestWarpContext:
    def test_now_includes_accrued(self):
        warp = Warp(0)
        warp._resume_time = 1000  # what the scheduler stores on resumption
        warp.charge(50)
        assert warp.now == 1050

    def test_sync_resets(self):
        warp = Warp(0)
        warp.charge(30)
        assert warp.sync() == 30
        assert warp.sync() == 0

    def test_busy_idle_accounting(self):
        warp = Warp(0)
        warp.charge(30, busy=True)
        warp.charge(20, busy=False)
        assert warp.busy_cycles == 30
        assert warp.idle_cycles == 20


class TestVirtualGPU:
    def test_launch_and_run(self):
        gpu = VirtualGPU(num_warps=4)

        def body(warp):
            warp.charge(100)
            yield warp.sync()
            gpu.note_work_done(warp.now)

        gpu.launch(body)
        gpu.run()
        assert gpu.finish_time == 100
        assert gpu.elapsed_ms == pytest.approx(100 / CYCLES_PER_MS)

    def test_load_imbalance(self):
        gpu = VirtualGPU(num_warps=2)

        def body(warp):
            warp.charge(100 if warp.wid == 0 else 300)
            yield warp.sync()

        gpu.launch(body)
        gpu.run()
        assert gpu.load_imbalance() == pytest.approx(300 / 200)

    def test_total_stats_aggregates(self):
        gpu = VirtualGPU(num_warps=3)

        def body(warp):
            warp.matches += warp.wid
            warp.charge(10)
            yield warp.sync()

        gpu.launch(body)
        gpu.run()
        assert gpu.total_stats().matches == 0 + 1 + 2


class TestDeviceMemory:
    def test_allocate_release(self):
        mem = DeviceMemory(capacity=1000)
        h = mem.allocate(400, tag="x")
        assert mem.used == 400
        mem.release(h)
        assert mem.used == 0
        assert mem.peak == 400

    def test_oom(self):
        mem = DeviceMemory(capacity=100)
        with pytest.raises(DeviceOOMError) as exc:
            mem.allocate(200, tag="big")
        assert exc.value.requested == 200
        assert not mem.allocations


class TestCostModel:
    def test_intersect_scales_with_a(self):
        c = CostModel()
        assert c.intersect_cost(64, 100) > c.intersect_cost(32, 100)

    def test_intersect_scales_with_log_b(self):
        c = CostModel()
        assert c.intersect_cost(32, 10_000) > c.intersect_cost(32, 10)

    def test_memory_multiplier(self):
        c = CostModel()
        c3 = c.with_memory_multiplier(3.0)
        assert c3.intersect_cost(64, 64) > c.intersect_cost(64, 64)
        assert c3.copy_cost(64) > c.copy_cost(64)

    def test_empty_intersection_cheap(self):
        c = CostModel()
        assert c.intersect_cost(0, 100) == c.step

    def test_alloc_cost_per_kb(self):
        c = CostModel()
        assert c.alloc_cost(10 * 1024) == 10 * c.big_alloc_per_kb

"""The virtual GPU device: warps + memory + scheduler + counters.

A :class:`VirtualGPU` corresponds to one physical GPU in the paper's setup
(the Polaris nodes have four A100s; ``repro.core.multi_gpu`` instantiates
one device per GPU).  Engines create warps via :meth:`VirtualGPU.launch`,
passing a generator-producing body; the device runs them to completion and
reports the *makespan* — the virtual time at which the last useful work
finished.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.gpusim.costmodel import CostModel, CYCLES_PER_MS, DEFAULT_COST_MODEL
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.scheduler import Scheduler

#: Default number of resident warps per simulated device.  Real kernels run
#: thousands; 64 keeps the Python simulation fast while preserving all
#: contention/straggler behaviour (a straggler still idles 63 peers).
DEFAULT_NUM_WARPS = 64


@dataclass
class WarpStats:
    """Per-warp accounting used by the load-balance analyses."""

    busy_cycles: int = 0
    idle_cycles: int = 0
    chunks: int = 0
    matches: int = 0
    steals: int = 0
    timeouts: int = 0
    finish_time: int = 0


class Warp:
    """Execution context handed to a warp body.

    The body charges virtual cycles with :meth:`charge` and periodically
    yields ``self.sync()`` to hand control back to the scheduler.  ``now``
    is always the warp's local virtual clock, including not-yet-yielded
    charges — this is what the timeout mechanism's ``now()`` reads.
    """

    __slots__ = ("gpu", "wid", "stats", "_resume_time", "_accrued")

    def __init__(self, gpu: "VirtualGPU", wid: int) -> None:
        self.gpu = gpu
        self.wid = wid
        self.stats = WarpStats()
        self._resume_time = 0
        self._accrued = 0

    # -- scheduler hooks ------------------------------------------------ #

    def _on_resume(self, time: int) -> None:
        self._resume_time = time

    def _on_finish(self, time: int) -> None:
        self.stats.finish_time = time

    # -- body API --------------------------------------------------------- #

    @property
    def now(self) -> int:
        """Warp-local virtual clock (cycles)."""
        return self._resume_time + self._accrued

    def charge(self, cycles: int, busy: bool = True) -> None:
        """Account ``cycles`` of work since the last sync."""
        c = int(cycles)
        self._accrued += c
        if busy:
            self.stats.busy_cycles += c
        else:
            self.stats.idle_cycles += c

    def sync(self) -> int:
        """Return accumulated charges and reset (the value to ``yield``)."""
        spent = self._accrued
        self._accrued = 0
        return spent

    def __lt__(self, other: "Warp") -> bool:  # heap tiebreaker
        return self.wid < other.wid


class VirtualGPU:
    """One simulated GPU: memory, cost model, warps and a DES scheduler."""

    def __init__(
        self,
        num_warps: int = DEFAULT_NUM_WARPS,
        memory_bytes: int = 64 * 1024 * 1024,
        cost: Optional[CostModel] = None,
        name: str = "gpu0",
    ) -> None:
        if num_warps < 1:
            raise ValueError("need at least one warp")
        self.name = name
        self.num_warps = int(num_warps)
        self.cost = cost or DEFAULT_COST_MODEL
        self.memory = DeviceMemory(capacity=int(memory_bytes))
        self.scheduler = Scheduler()
        self.warps: list[Warp] = []
        self.finish_time = 0
        self.kernel_launches = 0
        #: Fault-injection hook (see :mod:`repro.faults`): called as
        #: ``hook(count, at)`` before warps are created and may raise
        #: :class:`~repro.errors.KernelLaunchError`.
        self.launch_hook: Optional[Callable[[Optional[int], Optional[int]], None]] = None

    # ------------------------------------------------------------------ #

    def launch(
        self,
        body: Callable[[Warp], Generator[int, None, None]],
        count: Optional[int] = None,
        at: Optional[int] = None,
    ) -> list[Warp]:
        """Create ``count`` warps (default: the device width) running ``body``.

        ``body`` is called once per warp with its :class:`Warp` context and
        must return a generator.  ``at`` delays the start (used to model
        child-kernel launch latency).
        """
        n = self.num_warps if count is None else int(count)
        if self.launch_hook is not None:
            self.launch_hook(n, at)
        created: list[Warp] = []
        for _ in range(n):
            warp = Warp(self, len(self.warps))
            self.warps.append(warp)
            self.scheduler.spawn(warp, body(warp), at=at)
            created.append(warp)
        return created

    def launch_child_kernel(
        self,
        body: Callable[[Warp], Generator[int, None, None]],
        count: int,
        at: int,
    ) -> list[Warp]:
        """Spawn a child kernel's warps starting at virtual time ``at``."""
        self.kernel_launches += 1
        return self.launch(body, count=count, at=at)

    def run(self) -> int:
        """Run all warps to completion; returns total virtual time."""
        return self.scheduler.run()

    def note_work_done(self, time: int) -> None:
        """Record that useful work completed at ``time`` (makespan basis)."""
        if time > self.finish_time:
            self.finish_time = time

    # ------------------------------------------------------------------ #

    @property
    def elapsed_ms(self) -> float:
        """Makespan of useful work, in simulated milliseconds."""
        return self.finish_time / CYCLES_PER_MS

    def load_imbalance(self) -> float:
        """``max(busy) / mean(busy)`` across warps (1.0 = perfectly even)."""
        busy = [w.stats.busy_cycles for w in self.warps]
        if not busy or sum(busy) == 0:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean else 1.0

    def total_stats(self) -> WarpStats:
        """Aggregate warp stats (sums; finish_time is the max)."""
        agg = WarpStats()
        for w in self.warps:
            s = w.stats
            agg.busy_cycles += s.busy_cycles
            agg.idle_cycles += s.idle_cycles
            agg.chunks += s.chunks
            agg.matches += s.matches
            agg.steals += s.steals
            agg.timeouts += s.timeouts
            agg.finish_time = max(agg.finish_time, s.finish_time)
        return agg

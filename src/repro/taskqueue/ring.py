"""Lock-free circular task queue — a line-for-line port of Algorithm 3.

The queue is an array of ``N`` integers (``N`` a multiple of 3) used as a
ring buffer with atomic ``size``, ``front`` and ``back`` counters.  Each
task occupies three consecutive slots; ``-1`` marks an empty slot.  Fullness
and emptiness are signaled by returning ``False``, exactly like the paper's
``enqueue``/``dequeue``; the per-slot CAS/exchange hand-off covers the
full-ring case where ``front`` and ``back`` collide.

Two call styles:

* :meth:`enqueue` / :meth:`dequeue` — used by engine warps.  The DES
  serializes warp resumptions, so the whole operation completes atomically
  at the caller's virtual time; the returned cycle count covers the atomics
  (and is charged by the caller).
* :meth:`enqueue_steps` / :meth:`dequeue_steps` — generator versions that
  yield between *every* atomic operation, letting the concurrency test
  harness interleave many operations at slot granularity and exercise the
  CAS-retry / nanosleep paths of Algorithm 3 under adversarial schedules.

Correctness precondition (a reproduction finding): Algorithm 3 is safe only
while the number of *concurrent* enqueuers and of concurrent dequeuers each
stays at or below the task capacity ``N/3``.  Beyond that, two dequeuers can
claim the same slot triple after a ring wrap (``front`` olds ``o`` and
``o + N``) and interleave their per-slot exchanges with a concurrent
enqueuer, yielding a *torn* task — one whose three integers come from two
different enqueues.  The interleaving test suite demonstrates this
(``test_torn_task_under_oversubscription``).  The paper's configuration is
always safe: concurrency is bounded by the warp count (thousands) while
``N/3`` is one million.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import ReproError
from repro.gpusim.atomics import AtomicInt, AtomicIntArray
from repro.gpusim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.taskqueue.tasks import EMPTY, Task

#: Default capacity in int slots — the paper's N = 3 million occupies 12 MB;
#: scaled with the datasets here (still "a multiple of 3").
DEFAULT_CAPACITY_INTS = 3 * 65_536

#: Safety bound for the atomic-mode CAS loops; in the serialized DES the
#: hand-off always succeeds immediately, so hitting this means a logic bug.
_MAX_SPINS = 1_000_000


class LockFreeTaskQueue:
    """``Q_task``: ring buffer of int triples with atomic counters."""

    def __init__(
        self,
        capacity_ints: int = DEFAULT_CAPACITY_INTS,
        cost: Optional[CostModel] = None,
    ) -> None:
        if capacity_ints < 3 or capacity_ints % 3 != 0:
            raise ReproError("queue capacity must be a positive multiple of 3")
        self.capacity_ints = int(capacity_ints)
        self.ring = AtomicIntArray(self.capacity_ints, fill=EMPTY)
        self.size = AtomicInt(0)
        self.front = AtomicInt(0)
        self.back = AtomicInt(0)
        self.cost = cost or DEFAULT_COST_MODEL
        #: Fault-injection hook (see :mod:`repro.faults`): an object with
        #: ``on_enqueue(queue, pos)`` / ``on_dequeue(queue, pos)`` methods
        #: returning extra cycles (CAS storms) and free to corrupt ring
        #: slots in place (torn writes).  None = faithful Algorithm 3.
        self.fault_hook = None
        # Statistics used by the ablation benches.
        self.enqueued = 0
        self.dequeued = 0
        self.enqueue_failures = 0
        self.dequeue_failures = 0
        self.peak_tasks = 0

    # ------------------------------------------------------------------ #
    # Device memory footprint
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Ring bytes (4 B per int slot), as in the paper's 12 MB figure."""
        return self.capacity_ints * 4

    @property
    def num_tasks(self) -> int:
        """Current number of tasks (``size / 3``)."""
        return max(0, self.size.load()) // 3

    # ------------------------------------------------------------------ #
    # Atomic-mode operations (engine path)
    # ------------------------------------------------------------------ #

    def enqueue(self, task: Task) -> tuple[bool, int]:
        """Algorithm 3 lines 3–14.  Returns ``(ok, cycles)``."""
        c = self.cost
        cycles = c.atomic
        if self.size.add(3) >= self.capacity_ints:
            self.size.sub(3)
            self.enqueue_failures += 1
            return False, cycles + c.atomic
        pos = self.back.add(3) % self.capacity_ints
        cycles += c.atomic
        for offset, value in enumerate(task):
            spins = 0
            while self.ring.cas(pos + offset, EMPTY, value) != EMPTY:
                cycles += c.nanosleep
                spins += 1
                if spins > _MAX_SPINS:
                    raise ReproError("queue enqueue livelock (slot never cleared)")
            cycles += c.task_copy
        if self.fault_hook is not None:
            cycles += self.fault_hook.on_enqueue(self, pos)
        self.enqueued += 1
        self.peak_tasks = max(self.peak_tasks, self.num_tasks)
        return True, cycles

    def dequeue(self) -> tuple[Optional[Task], int]:
        """Algorithm 3 lines 15–26.  Returns ``(task_or_None, cycles)``."""
        c = self.cost
        cycles = c.atomic
        if self.size.sub(3) <= 0:
            self.size.add(3)
            self.dequeue_failures += 1
            return None, cycles + c.atomic
        pos = self.front.add(3) % self.capacity_ints
        cycles += c.atomic
        values = []
        for offset in range(3):
            spins = 0
            while True:
                value = self.ring.exch(pos + offset, EMPTY)
                if value != EMPTY:
                    break
                cycles += c.nanosleep
                spins += 1
                if spins > _MAX_SPINS:
                    raise ReproError("queue dequeue livelock (slot never filled)")
            values.append(value)
            cycles += c.task_copy
        if self.fault_hook is not None:
            cycles += self.fault_hook.on_dequeue(self, pos)
        self.dequeued += 1
        return Task(*values), cycles

    # ------------------------------------------------------------------ #
    # Step-mode operations (concurrency test harness)
    # ------------------------------------------------------------------ #

    def enqueue_steps(self, task: Task) -> Generator[str, None, bool]:
        """Generator enqueue yielding before each atomic (for interleaving).

        Yields a label describing the upcoming atomic; returns the final
        success flag.  Drive with ``next()``/``send(None)`` from a scheduler
        that interleaves many concurrent operations.
        """
        yield "size.add"
        if self.size.add(3) >= self.capacity_ints:
            yield "size.sub(cancel)"
            self.size.sub(3)
            return False
        yield "back.add"
        pos = self.back.add(3) % self.capacity_ints
        for offset, value in enumerate(task):
            while True:
                yield f"cas[{pos + offset}]"
                if self.ring.cas(pos + offset, EMPTY, value) == EMPTY:
                    break
                yield "nanosleep"
        return True

    def dequeue_steps(self) -> Generator[str, None, Optional[Task]]:
        """Generator dequeue yielding before each atomic (for interleaving)."""
        yield "size.sub"
        if self.size.sub(3) <= 0:
            yield "size.add(cancel)"
            self.size.add(3)
            return None
        yield "front.add"
        pos = self.front.add(3) % self.capacity_ints
        values = []
        for offset in range(3):
            while True:
                yield f"exch[{pos + offset}]"
                value = self.ring.exch(pos + offset, EMPTY)
                if value != EMPTY:
                    break
                yield "nanosleep"
            values.append(value)
        return Task(*values)

    # ------------------------------------------------------------------ #

    def drain(self) -> list[Task]:
        """Dequeue everything (test helper); ignores cycle costs."""
        out: list[Task] = []
        while True:
            task, _ = self.dequeue()
            if task is None:
                return out
            out.append(task)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LockFreeTaskQueue(tasks={self.num_tasks}, "
            f"capacity={self.capacity_ints // 3})"
        )

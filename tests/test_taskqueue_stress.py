"""Thread-based stress test for ``Q_task`` and its own ledger.

The DES serializes warp resumptions, so each atomic-mode queue operation
is atomic at its virtual timestamp; real Python threads model that regime
by holding one lock across each whole operation while the *schedule* —
which thread runs which operation when — stays adversarially random.
The stress run checks two things the interleaving suite
(``test_taskqueue_concurrency``) cannot:

* conservation under genuine preemptive scheduling — every dequeued
  triple is exactly one enqueued triple, none lost, none duplicated;
* the occupancy the engine reports (``num_tasks`` / ``peak_tasks``, the
  source of ``queue.occupancy.peak``) reconciles with the push/pop ledger
  at every quiescent point (occupancy == enqueued − dequeued, peak never
  exceeds capacity).
"""

from __future__ import annotations

import threading
from collections import Counter as Multiset

from repro.taskqueue.ring import LockFreeTaskQueue
from repro.taskqueue.tasks import Task


def stress_run(
    n_producers: int,
    n_consumers: int,
    per_producer: int,
    capacity_tasks: int,
):
    """Run one threaded schedule; returns (queue, produced, got)."""
    q = LockFreeTaskQueue(capacity_ints=capacity_tasks * 3)
    op_lock = threading.Lock()  # DES-style: whole ops atomic, order random
    total = n_producers * per_producer
    consumed_total = [0]
    produced: list[list[Task]] = [[] for _ in range(n_producers)]
    got: list[list[Task]] = [[] for _ in range(n_consumers)]

    def producer(tid: int) -> None:
        for i in range(per_producer):
            task = Task(tid + 1, i, (tid + 1) * 1_000_000 + i)
            while True:
                with op_lock:
                    ok, _ = q.enqueue(task)
                    if ok:
                        produced[tid].append(task)
                        # Quiescent-point reconciliation under the lock.
                        assert q.num_tasks == q.enqueued - q.dequeued
                        break

    def consumer(cid: int) -> None:
        while True:
            with op_lock:
                if consumed_total[0] >= total:
                    return
                task, _ = q.dequeue()
                if task is not None:
                    consumed_total[0] += 1
                    got[cid].append(task)
                    assert q.num_tasks == q.enqueued - q.dequeued

    threads = [
        threading.Thread(target=producer, args=(t,))
        for t in range(n_producers)
    ] + [
        threading.Thread(target=consumer, args=(c,))
        for c in range(n_consumers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "stress thread failed to finish"
    flat_prod = [t for chunk in produced for t in chunk]
    flat_got = [t for chunk in got for t in chunk]
    return q, flat_prod, flat_got


def assert_conserved(produced: list[Task], got: list[Task]) -> None:
    assert Multiset(map(tuple, got)) == Multiset(map(tuple, produced)), (
        "task multiset not conserved (lost/duplicated/torn triple)"
    )


class TestThreadedStress:
    def test_balanced(self):
        q, produced, got = stress_run(4, 4, 200, capacity_tasks=16)
        assert_conserved(produced, got)
        assert q.num_tasks == 0

    def test_producer_heavy_small_ring(self):
        # Full-ring back-pressure: producers spin on enqueue failures.
        q, produced, got = stress_run(6, 2, 100, capacity_tasks=4)
        assert_conserved(produced, got)
        assert q.enqueue_failures > 0  # the ring really filled up

    def test_consumer_heavy(self):
        # Empty-queue polling: consumers spin on dequeue failures.
        q, produced, got = stress_run(2, 6, 150, capacity_tasks=32)
        assert_conserved(produced, got)
        assert q.dequeue_failures > 0

    def test_gauge_reconciles_after_run(self):
        q, produced, got = stress_run(4, 4, 150, capacity_tasks=8)
        assert q.num_tasks == 0 == q.enqueued - q.dequeued
        assert 0 < q.peak_tasks <= 8
        assert q.enqueued == q.dequeued == len(produced)


class TestSerialGaugeSemantics:
    """The occupancy ledger's exact motion, checked without thread noise."""

    def test_inc_dec_and_peak(self):
        q = LockFreeTaskQueue(capacity_ints=4 * 3)
        for i in range(4):
            assert q.enqueue(Task(i, i, i))[0]
            assert q.num_tasks == i + 1
        assert not q.enqueue(Task(9, 9, 9))[0]  # full: occupancy unmoved
        assert q.num_tasks == 4
        for i in range(4):
            assert q.dequeue()[0] is not None
        assert q.dequeue()[0] is None  # empty: occupancy unmoved
        assert q.num_tasks == 0
        assert q.peak_tasks == 4
        assert (q.enqueue_failures, q.dequeue_failures) == (1, 1)

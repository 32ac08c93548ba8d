"""Admission control and micro-batching for the serving layer.

The :class:`AdmissionQueue` is deliberately *bounded*: a service under
overload must say no early rather than queue unboundedly and miss every
deadline.  When the queue is full, an arriving request either displaces
the lowest-priority queued request (which then fails with a typed
:class:`AdmissionRejected`) or — if its own priority does not beat the
floor — is rejected synchronously at ``submit()``.

Workers drain the queue highest-priority-first (FIFO among equals) and
form *micro-batches*: after taking one request, a worker waits a short
batching window and then grabs every queued request that shares the same
``(graph_id, engine, config)`` batch key, so one graph resolution and one
candidate build (the memoized directed-edge array) are shared across the
whole batch before per-request enumeration fans out.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

from repro.errors import ReproError


class AdmissionRejected(ReproError):
    """The service refused a request: queue full, priority too low, or the
    service is shutting down."""


@dataclass
class QueueEntry:
    """One admitted request waiting for a worker.

    An entry settles (its ticket completes or fails) **exactly once**:
    ``MatchService._settle``, the one ending of every request, first wins
    :meth:`claim_settle`.  That makes crashed-worker redelivery safe: a
    wedged "zombie" worker and its replacement can both finish the same
    entry, but only the first response is delivered and counted.
    """

    request: object
    ticket: object
    request_id: int
    priority: int
    batch_key: Hashable
    submitted_at: float
    deadline_at: Optional[float] = None
    sequence: int = field(default=0, compare=False)
    redeliveries: int = 0
    """Times the supervisor re-enqueued this entry after a worker died or
    wedged mid-flight (bounded by ``SupervisorConfig.max_redeliveries``)."""
    checkpoint: object = field(default=None, compare=False, repr=False)
    """Latest :class:`~repro.serve.resilience.MatchCheckpoint` attached on
    redelivery, so the replacement worker resumes instead of restarting."""
    trace: object = field(default=None, compare=False, repr=False)
    """Root :class:`repro.obs.TraceContext` minted at admission — the
    request's identity across queue, worker, engine, and (pickled) shard
    processes.  Redelivery keeps the same root, so a crashed and resumed
    request stitches into one trace."""
    _settle_lock: threading.Lock = field(
        default_factory=threading.Lock, compare=False, repr=False
    )
    _settled: bool = field(default=False, compare=False, repr=False)

    def claim_settle(self) -> bool:
        """Atomically claim the right to settle this entry (one winner)."""
        with self._settle_lock:
            if self._settled:
                return False
            self._settled = True
            return True

    @property
    def settled(self) -> bool:
        with self._settle_lock:
            return self._settled


class AdmissionQueue:
    """Bounded priority queue with shedding and batch extraction.

    ``on_shed`` is called (outside the lock) with every displaced entry so
    the service can fail its ticket; higher ``priority`` values are more
    important.
    """

    def __init__(
        self,
        max_depth: int = 256,
        on_shed: Optional[Callable[[QueueEntry], None]] = None,
    ) -> None:
        if max_depth < 1:
            raise ReproError("admission queue depth must be >= 1")
        self.max_depth = int(max_depth)
        self._on_shed = on_shed
        self._lock = threading.Condition()
        self._items: list[QueueEntry] = []
        self._seq = 0
        self._closed = False
        self._sealed = False
        self.peak_depth = 0
        self.total_admitted = 0
        self.total_shed = 0
        self.total_rejected = 0

    # ------------------------------------------------------------------ #

    def offer(self, entry: QueueEntry, force: bool = False) -> None:
        """Admit ``entry`` or raise :class:`AdmissionRejected`.

        On overload the youngest lowest-priority queued entry is shed to
        make room — but only when the newcomer's priority is strictly
        higher; ties are resolved in favor of what is already queued.
        ``force`` bypasses the drain seal (supervisor redelivery of work
        already admitted must land even while intake is sealed) but never
        a full close.
        """
        victim: Optional[QueueEntry] = None
        with self._lock:
            if self._closed:
                self.total_rejected += 1
                raise AdmissionRejected("service is stopped")
            if self._sealed and not force:
                self.total_rejected += 1
                raise AdmissionRejected("service is draining; intake sealed")
            if len(self._items) >= self.max_depth:
                victim = min(
                    self._items, key=lambda e: (e.priority, -e.sequence)
                )
                if victim.priority >= entry.priority:
                    self.total_rejected += 1
                    raise AdmissionRejected(
                        f"admission queue full (depth {self.max_depth}) and "
                        f"request priority {entry.priority} does not beat the "
                        f"lowest queued priority {victim.priority}"
                    )
                self._items.remove(victim)
                self.total_shed += 1
            entry.sequence = self._seq
            self._seq += 1
            self._items.append(entry)
            self.total_admitted += 1
            if len(self._items) > self.peak_depth:
                self.peak_depth = len(self._items)
            self._lock.notify()
        if victim is not None and self._on_shed is not None:
            self._on_shed(victim)

    def take(self, timeout: Optional[float] = None) -> Optional[QueueEntry]:
        """Highest-priority entry (FIFO among equals), or ``None`` on
        timeout / when closed and drained."""
        with self._lock:
            if not self._items and not self._closed:
                self._lock.wait(timeout)
            if not self._items:
                return None
            best = max(self._items, key=lambda e: (e.priority, -e.sequence))
            self._items.remove(best)
            return best

    def take_matching(self, batch_key: Hashable, max_n: int) -> list[QueueEntry]:
        """Remove up to ``max_n`` queued entries sharing ``batch_key``."""
        if max_n <= 0:
            return []
        with self._lock:
            matched: list[QueueEntry] = []
            kept: list[QueueEntry] = []
            for e in self._items:
                if len(matched) < max_n and e.batch_key == batch_key:
                    matched.append(e)
                else:
                    kept.append(e)
            self._items = kept
            matched.sort(key=lambda e: e.sequence)
            return matched

    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def seal(self) -> None:
        """Stop *intake* while workers keep draining (graceful drain)."""
        with self._lock:
            self._sealed = True

    def close(self) -> list[QueueEntry]:
        """Stop admissions, wake all waiters, and return what was queued."""
        with self._lock:
            self._closed = True
            remaining = list(self._items)
            self._items.clear()
            self._lock.notify_all()
            return remaining

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def sealed(self) -> bool:
        with self._lock:
            return self._sealed

"""Admission control and micro-batching for the serving layer.

The :class:`AdmissionQueue` is deliberately *bounded*: a service under
overload must say no early rather than queue unboundedly and miss every
deadline.  When the queue is full, an arriving request either displaces
the lowest-priority queued request (which then fails with a typed
:class:`AdmissionRejected`) or — if its own priority does not beat the
floor — is rejected synchronously at ``submit()``.

Workers drain the queue highest-priority-first (FIFO among equals) and
form *micro-batches*: after taking one request, a worker at once takes
every queued request that shares the same ``(graph_id, engine, config)``
batch key (:meth:`AdmissionQueue.take_matching`), so one graph resolution
is shared across the whole batch before per-request enumeration fans out.
No worker waits for a batch to grow: a burst already queued runs as one
batch, and a request that arrives later shares nothing it would miss, as
the candidate build (the graph's directed-edge array) is memoized.

The queue is the serving layer's one record of admitted work: an entry
stays in it from :meth:`~AdmissionQueue.offer` until its settle
:meth:`releases <AdmissionQueue.release>` it — queued, or taken by a
named worker.  Taking moves an entry under the queue's own lock and a
redelivery moves it back, so :attr:`~AdmissionQueue.pending` counts every
unsettled admitted request at every instant, and the supervisor finds a
dead worker's work by asking the queue what that worker took.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

from repro.errors import ReproError


class AdmissionRejected(ReproError):
    """The service refused a request: queue full, priority too low, or the
    service is shutting down."""


@dataclass(eq=False)
class QueueEntry:
    """One admitted request, from admission until it settles.

    Entries compare and hash by identity: the queue keys its taken set on
    them.  An entry settles (its ticket completes or fails) **exactly
    once**: ``MatchService._settle``, the one ending of every request,
    first wins :meth:`claim_settle`.  That makes crashed-worker redelivery
    safe: a wedged "zombie" worker and its replacement can both finish the
    same entry, but only the first response is delivered and counted.
    """

    request: object
    ticket: object
    request_id: int
    priority: int
    batch_key: Hashable
    submitted_at: float
    deadline_ms: Optional[float] = None
    """The request's own budget; ``deadline_at`` is when it runs out."""
    deadline_at: Optional[float] = None
    sequence: int = 0
    redeliveries: int = 0
    """Times the supervisor re-enqueued this entry after a worker died or
    wedged mid-flight (bounded by ``resilience.MAX_REDELIVERIES``)."""
    checkpoint: object = field(default=None, repr=False)
    """Latest :class:`~repro.serve.resilience.MatchCheckpoint` of this
    request's run, written by the supervisor's checkpoint hook: a
    redelivery resumes from it instead of restarting.  It is freed with
    the entry once the request settles."""
    trace: object = field(default=None, repr=False)
    """Root :class:`repro.obs.TraceContext` minted at admission — the
    request's identity across queue, worker, engine, and (pickled) shard
    processes.  Redelivery keeps the same root, so a crashed and resumed
    request stitches into one trace."""
    _settle_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _settled: bool = field(default=False, repr=False)

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
        self._taken: dict[QueueEntry, object] = {}
        """Taken, unreleased entries -> the worker that took them."""
        self._seq = 0
        self._closed = False
        self._sealed = False

    # ------------------------------------------------------------------ #

    def offer(self, entry: QueueEntry, force: bool = False) -> None:
        """Admit ``entry`` or raise :class:`AdmissionRejected`.

        On overload the youngest lowest-priority queued entry is shed to
        make room — but only when the newcomer's priority is strictly
        higher; ties are resolved in favor of what is already queued.
        Offering a taken entry (supervisor redelivery) moves it back to
        the queued ones in one step, so it never leaves :attr:`pending`.
        ``force`` bypasses the drain seal (redelivery of work already
        admitted must land even while intake is sealed) but never a full
        close; a rejected redelivery stays taken until its settle.  A
        redelivery that lost a race with its entry's settle is dropped: the
        settle releases the entry.
        """
        victim: Optional[QueueEntry] = None
        with self._lock:
            if entry.settled:
                return
            if self._closed:
                raise AdmissionRejected("service is stopped")
            if self._sealed and not force:
                raise AdmissionRejected("service is draining; intake sealed")
            if len(self._items) >= self.max_depth:
                victim = min(
                    self._items, key=lambda e: (e.priority, -e.sequence)
                )
                if victim.priority >= entry.priority:
                    raise AdmissionRejected(
                        f"admission queue full (depth {self.max_depth}) and "
                        f"request priority {entry.priority} does not beat the "
                        f"lowest queued priority {victim.priority}"
                    )
                self._items.remove(victim)
            self._taken.pop(entry, None)
            entry.sequence = self._seq
            self._seq += 1
            self._items.append(entry)
            self._lock.notify()
        if victim is not None and self._on_shed is not None:
            self._on_shed(victim)

    def take(
        self, worker: object, timeout: Optional[float] = None
    ) -> Optional[QueueEntry]:
        """Move the highest-priority queued entry (FIFO among equals) to
        ``worker``'s taken set; ``None`` on timeout / when closed and
        drained."""
        with self._lock:
            if not self._items and not self._closed:
                self._lock.wait(timeout)
            if not self._items:
                return None
            best = max(self._items, key=lambda e: (e.priority, -e.sequence))
            self._items.remove(best)
            self._taken[best] = worker
            return best

    def take_matching(
        self, worker: object, batch_key: Hashable, max_n: int
    ) -> list[QueueEntry]:
        """Move up to ``max_n`` queued entries sharing ``batch_key`` to
        ``worker``'s taken set."""
        if max_n <= 0:
            return []
        with self._lock:
            matched: list[QueueEntry] = []
            kept: list[QueueEntry] = []
            for e in self._items:
                if len(matched) < max_n and e.batch_key == batch_key:
                    matched.append(e)
                    self._taken[e] = worker
                else:
                    kept.append(e)
            self._items = kept
            matched.sort(key=lambda e: e.sequence)
            return matched

    def release(self, entry: QueueEntry) -> None:
        """Forget a settled entry, taken or (settled by a zombie worker
        after its redelivery) queued."""
        with self._lock:
            if entry in self._taken:
                del self._taken[entry]
            elif entry in self._items:
                self._items.remove(entry)

    def unsettled(self, worker: object = None) -> list[QueueEntry]:
        """Taken entries not yet settled: those ``worker`` took, or every
        worker's when it is ``None``."""
        with self._lock:
            return [
                e
                for e, owner in self._taken.items()
                if (worker is None or owner is worker) and not e.settled
            ]

    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """Queued entries (not yet taken)."""
        with self._lock:
            return len(self._items)

    @property
    def pending(self) -> int:
        """Admitted entries not yet released: queued plus taken."""
        with self._lock:
            return len(self._items) + len(self._taken)

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

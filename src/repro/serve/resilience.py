"""Supervised serving: watchdog, circuit breakers, quarantine, checkpoints.

PR 1's chaos harness makes a single ``TDFSEngine.match()`` call survive
injected device faults; this module gives the *service* the same property.
A :class:`Supervisor` wraps the worker pool of a
:class:`~repro.serve.MatchService` with four cooperating mechanisms:

**Watchdog + redelivery.**  Every worker heartbeats (each queue poll, each
checkpoint).  The supervisor thread detects workers that died (thread no
longer alive without a clean exit) or wedged (stale heartbeat while
holding unsettled entries), asks the admission queue for the entries that
worker took and has not settled, re-offers them with a bounded
redelivery budget — one queue operation each, so they never stop counting
as pending — and respawns replacements into the same pool slots.  A
wedged worker is *abandoned*, not killed — Python threads cannot be
killed — and the entry's settle-once claim (see
:class:`~repro.serve.batcher.QueueEntry`) resolves the race between the
zombie and its replacement.

**Circuit breaker.**  Failures are charged to the request *signature*
``(graph_id, plan_fingerprint)`` — the thing that reliably reproduces a
crash.  After ``BREAKER_THRESHOLD`` failures inside the breaker's window
the breaker opens and sheds matching submissions with a typed
:class:`CircuitOpenError`; after a seeded-jitter backoff it half-opens,
admits exactly one probe, and closes on success or re-opens with doubled
backoff on failure.

**Poison quarantine.**  An entry whose redelivery budget is exhausted has
now killed several workers in a row: its full request fingerprint
``(graph_id, plan_fp, engine, config_fp)`` is quarantined, the entry
settles with a ``"POISONED (...)"`` response, and *future* submissions of
the same fingerprint are rejected synchronously with
:class:`PoisonedRequestError` carrying the prior failure — one bad request
degrades one response, never the service.

**Checkpoint/resume.**  With ``checkpoint_every_events > 0`` the engine
pauses every N scheduler events — all warps at yield points, the exact
state a fatal fault would freeze — and the supervisor snapshots the
pending frontier via :func:`repro.faults.recovery.snapshot_pending_work`
onto the request's own queue entry (``QueueEntry.checkpoint``), which is
freed with the entry when the request settles.  When a worker dies
mid-match, the redelivered entry carries its latest
:class:`MatchCheckpoint` and the replacement *resumes* from the saved
frontier instead of restarting: ``base_count`` (matches already counted)
plus the re-executed remainder is provably identical to an uninterrupted
run — the same invariant the per-call retry ladder relies on.

Chaos for all of this comes from :class:`repro.faults.WorkerFaultPlan`
(the worker-kill / worker-stall axis), wired in via
``ServeConfig.worker_faults`` and exercised by ``repro serve --chaos``.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ReproError
from repro.faults.recovery import snapshot_pending_work
from repro.faults.workers import WorkerCrash, WorkerFaultKind, WorkerFaultPlan
from repro.serve.batcher import AdmissionRejected, QueueEntry
from repro.serve.cache import LRUCache

logger = logging.getLogger("repro.serve")

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "MatchCheckpoint",
    "PoisonedRequestError",
    "Quarantine",
    "Supervisor",
    "SupervisorConfig",
]


class CircuitOpenError(AdmissionRejected):
    """Shed at submit: this request signature recently killed workers or
    blew deadlines, and its circuit breaker is open (or half-open with the
    probe slot taken)."""

    def __init__(self, message: str, signature: tuple, retry_after_s: float) -> None:
        super().__init__(message)
        self.signature = signature
        self.retry_after_s = retry_after_s


class PoisonedRequestError(ReproError):
    """Rejected at submit: an identical request previously exhausted its
    redelivery budget (it killed/wedged workers repeatedly) and was
    quarantined.  Carries the prior failure for the caller."""

    def __init__(self, fingerprint: tuple, failure: str, request_id: int) -> None:
        super().__init__(
            f"request fingerprint {fingerprint!r} is quarantined: request "
            f"{request_id} previously failed with {failure!r} and exhausted "
            "its redelivery budget"
        )
        self.fingerprint = fingerprint
        self.failure = failure
        self.request_id = request_id


# --------------------------------------------------------------------------- #
# Checkpoints
# --------------------------------------------------------------------------- #


@dataclass
class MatchCheckpoint:
    """A consistent mid-match snapshot of one request's run.

    ``groups`` is the exact unfinished remainder (``(rows, width)`` work
    groups) and ``count`` the matches accumulated so far *including* any
    base carried in from an earlier checkpoint — resuming ``groups`` and
    adding ``count`` reproduces the uninterrupted total exactly.
    """

    groups: list
    count: int
    taken_at: float
    """Wall-clock (``time.monotonic``) timestamp, for the age histogram."""


# --------------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------------- #


#: A supervisor's breaker: failures inside the window that open it, the
#: first open interval (doubled per consecutive open) and its jitter.
BREAKER_THRESHOLD = 3
BREAKER_OPEN_S = 1.0
BREAKER_JITTER = 0.2

#: Redelivery budget per entry; exhausting it quarantines the request.
MAX_REDELIVERIES = 2


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class _Breaker:
    """Per-signature breaker state (guarded by the parent's lock)."""

    state: BreakerState = BreakerState.CLOSED
    failures: deque = field(default_factory=deque)  # failure timestamps
    opened_at: float = 0.0
    open_for_s: float = 0.0
    consecutive_opens: int = 0
    probe_inflight: bool = False


class CircuitBreaker:
    """Per-signature closed → open → half-open breaker with seeded jitter.

    Deterministic given its seed: the jitter applied to each open interval
    is drawn from a SHA-256 stream keyed by ``(seed, signature,
    consecutive_opens)``, so two services with the same seed and failure
    history back off identically (and tests can assert the schedule).
    ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        threshold: int = BREAKER_THRESHOLD,
        window_s: float = 30.0,
        open_s: float = BREAKER_OPEN_S,
        max_open_s: float = 30.0,
        jitter: float = BREAKER_JITTER,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[tuple, BreakerState, BreakerState], None]] = None,
    ) -> None:
        if threshold < 1:
            raise ReproError("breaker threshold must be >= 1")
        self.threshold = int(threshold)
        self.window_s = float(window_s)
        self.open_s = float(open_s)
        self.max_open_s = float(max_open_s)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self.clock = clock
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._breakers: dict[tuple, _Breaker] = {}

    # -- internals ----------------------------------------------------- #

    def _jittered_open_s(self, signature: tuple, consecutive: int) -> float:
        base = min(self.max_open_s, self.open_s * (2 ** max(0, consecutive - 1)))
        if self.jitter <= 0.0:
            return base
        key = f"{self.seed}:{signature!r}:{consecutive}".encode()
        raw = int.from_bytes(hashlib.sha256(key).digest()[:8], "little")
        u = raw / 2**64  # uniform [0, 1)
        return base * (1.0 + self.jitter * (2.0 * u - 1.0))

    def _transition(self, sig: tuple, b: _Breaker, new: BreakerState) -> Optional[tuple]:
        """Flip state; return the event to fire *after* the lock is dropped.

        ``on_transition`` callbacks may re-enter the breaker (e.g. to read
        :meth:`open_count` for a gauge), so they must never run under
        ``self._lock`` — a plain (non-reentrant) lock would self-deadlock.
        """
        old, b.state = b.state, new
        if old is not new and self.on_transition is not None:
            return (sig, old, new)
        return None

    def _open(self, sig: tuple, b: _Breaker, now: float) -> Optional[tuple]:
        b.consecutive_opens += 1
        b.opened_at = now
        b.open_for_s = self._jittered_open_s(sig, b.consecutive_opens)
        b.probe_inflight = False
        b.failures.clear()
        return self._transition(sig, b, BreakerState.OPEN)

    def _fire(self, event: Optional[tuple]) -> None:
        if event is not None and self.on_transition is not None:
            self.on_transition(*event)

    # -- the public protocol ------------------------------------------- #

    def check(self, signature: tuple) -> None:
        """Gate one submission; raises :class:`CircuitOpenError` to shed.

        An open breaker whose backoff has elapsed transitions to
        half-open here and admits the caller as the single probe.
        """
        now = self.clock()
        event = None
        with self._lock:
            b = self._breakers.get(signature)
            if b is None or b.state is BreakerState.CLOSED:
                return
            if b.state is BreakerState.OPEN:
                remaining = b.opened_at + b.open_for_s - now
                if remaining > 0:
                    raise CircuitOpenError(
                        f"circuit open for signature {signature!r}; "
                        f"retry in {remaining:.3f}s",
                        signature,
                        remaining,
                    )
                event = self._transition(signature, b, BreakerState.HALF_OPEN)
                b.probe_inflight = True
            else:
                # HALF_OPEN: exactly one probe at a time.
                if b.probe_inflight:
                    raise CircuitOpenError(
                        f"circuit half-open for signature {signature!r}; "
                        "probe already in flight",
                        signature,
                        b.open_for_s,
                    )
                b.probe_inflight = True
        self._fire(event)  # the caller is (or joins as) the probe

    def record_failure(self, signature: tuple) -> None:
        """Charge a failure (worker death/stall, deadline blowout)."""
        now = self.clock()
        event = None
        with self._lock:
            b = self._breakers.setdefault(signature, _Breaker())
            if b.state is BreakerState.HALF_OPEN:
                # The probe failed: re-open with doubled (jittered) backoff.
                event = self._open(signature, b, now)
            elif b.state is BreakerState.CLOSED:
                b.failures.append(now)
                while b.failures and now - b.failures[0] > self.window_s:
                    b.failures.popleft()
                if len(b.failures) >= self.threshold:
                    event = self._open(signature, b, now)
            # OPEN: already shedding.
        self._fire(event)

    def record_success(self, signature: tuple) -> None:
        """A request of this signature completed healthily."""
        event = None
        with self._lock:
            b = self._breakers.get(signature)
            if b is None:
                return
            if b.state is BreakerState.HALF_OPEN:
                b.probe_inflight = False
                b.consecutive_opens = 0
                b.failures.clear()
                event = self._transition(signature, b, BreakerState.CLOSED)
            elif b.state is BreakerState.CLOSED:
                b.failures.clear()
            # OPEN: a straggler (e.g. a redelivered entry) finishing does
            # not close the circuit early — only a half-open probe can.
        self._fire(event)

    def state(self, signature: tuple) -> BreakerState:
        with self._lock:
            b = self._breakers.get(signature)
            return b.state if b is not None else BreakerState.CLOSED

    def states(self) -> dict:
        """Signature → state-name map (for snapshots and reports)."""
        with self._lock:
            return {
                "/".join(str(p) for p in sig): b.state.value
                for sig, b in self._breakers.items()
            }

    def open_count(self) -> int:
        with self._lock:
            return sum(
                1
                for b in self._breakers.values()
                if b.state is not BreakerState.CLOSED
            )


# --------------------------------------------------------------------------- #
# Poison quarantine
# --------------------------------------------------------------------------- #


class Quarantine:
    """Bounded registry of request fingerprints that exhausted redelivery."""

    def __init__(self, capacity: int = 256) -> None:
        self._entries = LRUCache(capacity)

    def poison(self, fingerprint: tuple, failure: str, request_id: int) -> None:
        self._entries.put(fingerprint, (failure, request_id))

    def check(self, fingerprint: tuple) -> None:
        """Raise :class:`PoisonedRequestError` for a quarantined repeat."""
        hit = self._entries.get(fingerprint)
        if hit is not None:
            raise PoisonedRequestError(fingerprint, *hit)

    def entries(self) -> dict:
        return {
            "/".join(str(p) for p in fp): {
                "failure": failure,
                "request_id": rid,
            }
            for fp, (failure, rid) in self._entries.items()
        }

    def __len__(self) -> int:
        return len(self._entries)


# --------------------------------------------------------------------------- #
# Supervisor
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of one :class:`Supervisor`."""

    watchdog_interval_s: float = 0.05
    """How often the watchdog sweeps the pool."""
    heartbeat_timeout_s: float = 10.0
    """A busy worker whose heartbeat is older than this is declared wedged
    and abandoned.  Must exceed the worst-case gap between heartbeats —
    with checkpointing on, that is the wall time between checkpoints; with
    it off, a whole uninterrupted match."""
    checkpoint_every_events: int = 0
    """Checkpoint cadence in scheduler events (0 disables checkpointing —
    redelivered entries then restart from scratch)."""
    seed: int = 0
    """Seeds the breaker's backoff jitter (determinism under test)."""

    def __post_init__(self) -> None:
        if self.checkpoint_every_events < 0:
            raise ReproError("supervisor: checkpoint_every_events must be >= 0")


class Supervisor(threading.Thread):
    """Watchdog thread supervising one service's worker pool."""

    def __init__(self, service, config: Optional[SupervisorConfig] = None) -> None:
        super().__init__(name="repro-serve-supervisor", daemon=True)
        self.service = service
        self.config = config or SupervisorConfig()
        self.quarantine = Quarantine()
        self.breaker = CircuitBreaker(
            threshold=BREAKER_THRESHOLD,
            open_s=BREAKER_OPEN_S,
            jitter=BREAKER_JITTER,
            seed=self.config.seed,
            on_transition=self._on_breaker_transition,
        )
        self.worker_faults: Optional[WorkerFaultPlan] = getattr(
            service.config, "worker_faults", None
        )
        self._stop_event = threading.Event()

    # -- lifecycle ------------------------------------------------------ #

    def stop(self) -> None:
        self._stop_event.set()

    @property
    def stopped(self) -> bool:
        return self._stop_event.is_set()

    @property
    def checkpointing(self) -> bool:
        return self.config.checkpoint_every_events > 0

    def run(self) -> None:
        while not self._stop_event.wait(self.config.watchdog_interval_s):
            try:
                self.sweep()
            except Exception:  # the watchdog must survive anything
                logger.warning("supervisor sweep failed:\n%s", traceback.format_exc())

    # -- the watchdog sweep --------------------------------------------- #

    def sweep(self) -> int:
        """One watchdog pass; returns the number of workers recovered."""
        pool = self.service._pool
        if pool is None or self._stop_event.is_set():
            return 0
        now = time.monotonic()
        recovered = 0
        for slot, worker in enumerate(list(pool.workers)):
            if worker.exited or worker.abandoned:
                continue
            if not worker.is_alive():
                if not worker.started:
                    continue
                self._recover(pool, slot, worker, "worker-crash")
                recovered += 1
            elif (
                now - worker.heartbeat > self.config.heartbeat_timeout_s
                and self.service._queue.unsettled(worker)
            ):
                worker.abandoned = True
                self._recover(pool, slot, worker, "worker-stall")
                recovered += 1
        return recovered

    def _recover(self, pool, slot: int, worker, reason: str) -> None:
        metrics = self.service.metrics
        metrics.incr(
            "worker_crashes" if reason == "worker-crash" else "worker_stalls"
        )
        lost = self.service._queue.unsettled(worker)
        self.service.flight.record(
            "worker.crash" if reason == "worker-crash" else "worker.stall",
            worker=worker.index,
            slot=slot,
            inflight=len(lost),
        )
        # Count the restart before re-offering anything: a sibling worker may
        # settle a redelivered entry (and wake its caller) before this thread
        # runs again, and a settled response must find the books closed.
        metrics.incr("supervisor_restarts")
        # One death is one failure of each query it interrupted: a batch
        # holds up to 16 entries of one signature, and charging each would
        # open a healthy query's breaker on a single kill.
        for signature in dict.fromkeys(entry.request.signature for entry in lost):
            self.breaker.record_failure(signature)
        for entry in lost:
            self.redeliver(entry, reason)
        pool.replace(slot)
        metrics.pool_size.set(sum(1 for w in pool.workers if w.is_alive()))

    # -- redelivery / quarantine ---------------------------------------- #

    def redeliver(self, entry: QueueEntry, reason: str) -> None:
        """Re-offer a lost entry, or quarantine it past its budget.

        The entry is still in the queue, taken by the lost worker, so the
        re-offer moves it back to the queued ones without it ever leaving
        the queue's pending count; its ``checkpoint`` (if any) goes with it.
        """
        metrics = self.service.metrics
        flight = self.service.flight
        entry.redeliveries += 1
        if entry.redeliveries > MAX_REDELIVERIES:
            self.quarantine.poison(entry.request.fingerprint, reason, entry.request_id)
            metrics.incr("quarantined")
            flight.record(
                "quarantine",
                request_id=entry.request_id,
                reason=reason,
                redeliveries=entry.redeliveries,
                trace_id=getattr(entry.trace, "trace_id", None),
            )
            self.service._settle(f"POISONED ({reason} x{entry.redeliveries})", entry)
            return
        # Counter and flight event first, for the reason given in _recover.
        # Neither can be taken back if the offer is then rejected (counters
        # are monotonic, the recorder append-only); they then agree with
        # ``entry.redeliveries``, which the SHUTDOWN response reports too.
        metrics.incr("redeliveries")
        flight.record(
            "redelivery",
            request_id=entry.request_id,
            reason=reason,
            delivery=entry.redeliveries + 1,
            resumable=entry.checkpoint is not None,
            trace_id=getattr(entry.trace, "trace_id", None),
        )
        try:
            # force: redelivery of already-admitted work bypasses the
            # drain seal (but never a full close).
            self.service._queue.offer(entry, force=True)
        except AdmissionRejected:
            self.service._settle("SHUTDOWN", entry)

    # -- checkpoint hook (installed into the per-request engine config) - #

    def checkpoint_hook_for(self, entry: QueueEntry, worker):
        """Build the engine checkpoint hook for one delivery of one entry.

        The hook runs at scheduler pause points: it heartbeats the worker,
        snapshots the pending frontier onto ``entry.checkpoint``, and
        consults the worker-fault plan — raising :class:`WorkerCrash` for a
        scheduled kill, or sleeping through a scheduled stall (no
        heartbeats, so the watchdog sees a wedge).
        """
        delivery = entry.redeliveries + 1
        base_count = entry.checkpoint.count if entry.checkpoint is not None else 0
        seq = 0
        metrics = self.service.metrics

        def hook(job, now_cycles: int) -> None:
            nonlocal seq
            if worker.abandoned:
                # A wedged worker the watchdog already replaced: its entry
                # was redelivered, so this zombie run must stop publishing
                # checkpoints (and gets no further fault injections).
                return
            seq += 1
            worker.beat()
            entry.checkpoint = MatchCheckpoint(
                groups=snapshot_pending_work(job),
                count=base_count + job.count,
                taken_at=time.monotonic(),
            )
            metrics.incr("checkpoints")
            plan = self.worker_faults
            if plan is None:
                return
            spec = plan.decide(entry.request_id, delivery, seq, worker.index)
            if spec is None:
                return
            if spec.kind is WorkerFaultKind.KILL:
                raise WorkerCrash(
                    f"injected worker-kill: request {entry.request_id} "
                    f"delivery {delivery} checkpoint {seq}"
                )
            # STALL: wedge without heartbeating; the watchdog will abandon
            # this worker and a replacement resumes the entry.
            time.sleep(spec.stall_s)

        return hook

    def _on_breaker_transition(
        self, signature: tuple, old: BreakerState, new: BreakerState
    ) -> None:
        metrics = self.service.metrics
        if new is BreakerState.OPEN:
            metrics.incr("breaker_opens")
        metrics.breaker_open.set(self.breaker.open_count())
        self.service.flight.record(
            "breaker.transition",
            signature="/".join(str(p) for p in signature),
            old=old.value,
            new=new.value,
        )

    # -- introspection --------------------------------------------------- #

    def snapshot(self) -> dict:
        """JSON-compatible resilience state (merged into service snapshot)."""
        return {
            "breakers": self.breaker.states(),
            "quarantine": self.quarantine.entries(),
        }

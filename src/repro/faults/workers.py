"""Service-level chaos: deterministic worker-kill / worker-stall plans.

:mod:`repro.faults.plan` injects *device* faults inside one engine attempt;
this module adds the orthogonal axis the serving layer needs: faults that
take out an entire **worker** of a :class:`~repro.serve.MatchService` pool.
A killed worker dies mid-match without settling its queue entries (the
supervisor must detect the corpse, re-enqueue the in-flight work, and
respawn a replacement); a stalled worker wedges — it stops heartbeating for
a while but its thread stays alive, exercising the watchdog's
stale-heartbeat path and the settle-once race between the zombie and its
replacement.

Faults fire at **checkpoint boundaries**: the engine takes a consistent
frontier snapshot every ``checkpoint_every_events`` scheduler events (see
``RunContext.checkpoint_every_events``), and the decision to kill/stall is a
pure function of ``(seed, request_id, delivery, checkpoint_index)`` — never
of wall-clock time or worker identity — so a chaos run is reproducible
regardless of how requests interleave across the pool.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Optional


class WorkerCrash(Exception):
    """Raised inside a worker to simulate its thread dying mid-match.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the engine's
    retry driver and the worker's per-request error handling must not
    absorb it — it has to escape all the way out of the worker thread,
    leaving the in-flight entries unsettled for the supervisor to recover.
    """


class WorkerFaultKind(enum.Enum):
    """Injectable worker failure modes."""

    KILL = "worker-kill"
    STALL = "worker-stall"


@dataclass(frozen=True)
class WorkerFaultSpec:
    """One explicitly scheduled worker fault.

    Fires when a matching request reaches the given checkpoint on the given
    delivery attempt.  ``request_id`` / ``worker`` of ``None`` match any;
    ``delivery`` is 1-based (1 = the first time a worker picks the entry
    up, 2 = the first redelivery, ...) and ``None`` matches every delivery
    — useful to exhaust a redelivery budget and drive quarantine.
    """

    kind: WorkerFaultKind
    request_id: Optional[int] = None
    worker: Optional[int] = None
    at_checkpoint: int = 1
    """1-based checkpoint index within one delivery's run."""
    delivery: Optional[int] = 1
    stall_s: float = 0.5
    """Wall-clock wedge duration (``STALL`` only)."""

    def matches(
        self, request_id: int, delivery: int, checkpoint: int, worker: int
    ) -> bool:
        if self.request_id is not None and self.request_id != request_id:
            return False
        if self.worker is not None and self.worker != worker:
            return False
        if self.delivery is not None and self.delivery != delivery:
            return False
        return self.at_checkpoint == checkpoint


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A deterministic, seeded recipe of worker faults for one service.

    The random component draws one uniform per (kill, stall) per checkpoint
    from a SHA-256 stream keyed by ``(seed, request_id, delivery,
    checkpoint)``; ``max_fault_deliveries`` bounds how many delivery
    attempts of one request the random component may hit (the default of 1
    means a redelivered request is left alone, so a bounded redelivery
    budget provably suffices and resumed counts can be asserted against a
    fault-free baseline).  Scheduled :class:`WorkerFaultSpec` entries are
    exempt from that bound.
    """

    seed: int = 0
    kill_rate: float = 0.0
    """Per-checkpoint probability of killing the executing worker."""
    stall_rate: float = 0.0
    """Per-checkpoint probability of wedging the executing worker."""
    stall_s: float = 0.5
    max_fault_deliveries: int = 1
    schedule: tuple[WorkerFaultSpec, ...] = ()

    def _uniform(self, site: str) -> float:
        key = f"{self.seed}:{site}".encode()
        raw = int.from_bytes(hashlib.sha256(key).digest()[:8], "little")
        return raw / 2**64

    def decide(
        self, request_id: int, delivery: int, checkpoint: int, worker: int
    ) -> Optional[WorkerFaultSpec]:
        """The fault (if any) to fire at this checkpoint, deterministically."""
        for spec in self.schedule:
            if spec.matches(request_id, delivery, checkpoint, worker):
                return spec
        if delivery <= self.max_fault_deliveries:
            site = f"req{request_id}:d{delivery}:c{checkpoint}"
            if (
                self.kill_rate > 0.0
                and self._uniform("kill:" + site) < self.kill_rate
            ):
                return WorkerFaultSpec(
                    WorkerFaultKind.KILL, at_checkpoint=checkpoint
                )
            if (
                self.stall_rate > 0.0
                and self._uniform("stall:" + site) < self.stall_rate
            ):
                return WorkerFaultSpec(
                    WorkerFaultKind.STALL,
                    at_checkpoint=checkpoint,
                    stall_s=self.stall_s,
                )
        return None

    @property
    def is_armed(self) -> bool:
        return bool(self.schedule) or self.kill_rate > 0.0 or self.stall_rate > 0.0

    @classmethod
    def seeded(
        cls,
        seed: int,
        kill_rate: float = 0.3,
        stall_rate: float = 0.0,
        stall_s: float = 0.5,
    ) -> "WorkerFaultPlan":
        """A general-purpose worker-chaos mix (the ``serve --chaos`` default)."""
        return cls(
            seed=seed, kill_rate=kill_rate, stall_rate=stall_rate, stall_s=stall_s
        )

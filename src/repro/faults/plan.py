"""Deterministic fault plans for the virtual GPU (the chaos harness).

A :class:`FaultPlan` describes *which* failures to inject into a run and is
entirely deterministic given its seed: per-site pseudo-random streams are
derived by hashing ``(seed, device name, attempt, site)``, so two runs with
the same plan, workload, and configuration inject byte-identical fault
sequences — the tier-1 suite stays reproducible even under chaos.

Faults mirror the failure modes the paper reports:

* ``OOM`` — device allocations fail (EGSM's CT-index on Friendster,
  New-Kernel stack allocations, Table IV / Fig. 11);
* ``ILLEGAL_ACCESS`` — a warp dies mid-task (the "illegal memory access"
  crashes observed for EGSM on some graphs);
* ``KERNEL_LAUNCH`` — a (child) kernel fails to launch (Fig. 11's
  New-Kernel crashes);
* ``QUEUE_CORRUPTION`` — a torn write poisons one field of a ``Q_task``
  task (the oversubscription hazard of Algorithm 3);
* ``CAS_STORM`` — queue atomics retry pathologically (extra cycles only);
* ``STALL`` — a warp becomes a straggler and runs slower by a fixed factor
  (timing fault; perturbs load balance, never correctness).

The first four are *fatal*: they abort the current attempt and exercise the
recovery layer (:mod:`repro.faults.recovery`).  The last two are survivable
in place.  A plan can mix a seeded random component (rates) with an
explicit :class:`FaultSpec` schedule for precisely-timed failures.

:class:`RetryPolicy` configures the resilient execution layer of
:class:`~repro.core.engine.TDFSEngine`: how many attempts to make, the
virtual-cycle backoff between them, and the degradation ladder applied on
each retry (shrink ``chunk_size`` → switch paged→array stacks → fall back
to the serial CPU engine, which is immune to device faults).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.config import StackMode
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.config import TDFSConfig


class FaultKind(enum.Enum):
    """Injectable failure modes (see module docstring)."""

    OOM = "oom"
    ILLEGAL_ACCESS = "illegal-access"
    KERNEL_LAUNCH = "kernel-launch"
    QUEUE_CORRUPTION = "queue-corruption"
    CAS_STORM = "cas-storm"
    STALL = "stall"


#: Kinds that abort the running attempt (vs. perturb-and-continue).
FATAL_KINDS = frozenset(
    {
        FaultKind.OOM,
        FaultKind.ILLEGAL_ACCESS,
        FaultKind.KERNEL_LAUNCH,
        FaultKind.QUEUE_CORRUPTION,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One explicitly scheduled fault.

    ``at_op`` counts operations of the spec's site (allocations for OOM,
    warp resumptions for illegal access, launches, enqueues) from 0 within
    one attempt; ``at_cycle`` fires at the first opportunity whose virtual
    time is at or past the threshold.  A spec fires at most once per
    attempt.  ``gpu``/``attempt``/``warp`` restrict the target (``None`` =
    any device / any attempt / any warp).
    """

    kind: FaultKind
    gpu: Optional[str] = None
    attempt: Optional[int] = 1
    at_op: Optional[int] = None
    at_cycle: Optional[int] = None
    warp: Optional[int] = None
    factor: float = 4.0
    """Slowdown multiplier (``STALL`` only)."""
    cycles: int = 500
    """Extra cycles charged (``CAS_STORM`` only)."""

    def matches(self, gpu_name: str, attempt: int) -> bool:
        if self.gpu is not None and self.gpu != gpu_name:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        return True


#: The per-event probabilities of a :class:`FaultPlan`.
_RATES = (
    "oom_rate",
    "illegal_access_rate",
    "kernel_launch_rate",
    "queue_corruption_rate",
    "cas_storm_rate",
    "stall_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded recipe of faults to inject into a run."""

    seed: int = 0
    oom_rate: float = 0.0
    """Per-allocation probability of a simulated allocator failure."""
    illegal_access_rate: float = 0.0
    """Per-warp-resumption probability of a mid-task illegal access."""
    kernel_launch_rate: float = 0.0
    """Per-launch probability of a kernel-launch failure."""
    queue_corruption_rate: float = 0.0
    """Per-enqueue probability of a torn write poisoning a queued task."""
    cas_storm_rate: float = 0.0
    """Per-queue-op probability of a pathological CAS retry storm."""
    cas_storm_cycles: int = 500
    stall_rate: float = 0.0
    """Per-warp probability of being a straggler for the whole attempt."""
    stall_factor: float = 4.0
    schedule: tuple[FaultSpec, ...] = ()
    """Explicitly timed faults, applied on top of the random component."""

    def __post_init__(self) -> None:
        for name in _RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"faults: {name} must be in [0, 1], got {rate}")
        if self.cas_storm_cycles < 0:
            raise ReproError("faults: cas_storm_cycles must be >= 0")
        if self.stall_factor < 1.0:
            raise ReproError("faults: stall_factor must be >= 1 (a stall slows a warp)")

    def stream_seed(self, gpu_name: str, attempt: int, site: str) -> int:
        """Derive a stable 64-bit RNG seed for one (device, attempt, site).

        Uses SHA-256 rather than ``hash()`` so the derivation is identical
        across processes (Python string hashing is salted per process).
        """
        key = f"{self.seed}:{gpu_name}:{attempt}:{site}".encode()
        return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")

    def arm(self, gpu, gpu_name: str, attempt: int):
        """Install hooks for one attempt on ``gpu``; returns the injector."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, gpu, gpu_name=gpu_name, attempt=attempt)

    @classmethod
    def seeded(
        cls,
        seed: int,
        oom_rate: float = 0.25,
        illegal_access_rate: float = 0.0005,
        kernel_launch_rate: float = 0.0,
        queue_corruption_rate: float = 0.02,
        cas_storm_rate: float = 0.05,
        stall_rate: float = 0.1,
    ) -> "FaultPlan":
        """A general-purpose chaos mix (the ``repro chaos`` default)."""
        return cls(
            seed=seed,
            oom_rate=oom_rate,
            illegal_access_rate=illegal_access_rate,
            kernel_launch_rate=kernel_launch_rate,
            queue_corruption_rate=queue_corruption_rate,
            cas_storm_rate=cas_storm_rate,
            stall_rate=stall_rate,
        )


# --------------------------------------------------------------------------- #
# Recovery policy
# --------------------------------------------------------------------------- #

#: Degradation-ladder rung names, in escalation order.
RUNG_SHRINK_CHUNK = "shrink-chunk"
RUNG_ARRAY_STACKS = "array-stacks"
RUNG_CPU_FALLBACK = "cpu-fallback"

DEFAULT_LADDER = (RUNG_SHRINK_CHUNK, RUNG_ARRAY_STACKS, RUNG_CPU_FALLBACK)


def apply_rungs(config: "TDFSConfig", rungs: tuple) -> "TDFSConfig":
    """``config`` under the ladder ``rungs``, each applied once:
    ``shrink-chunk`` halves ``chunk_size`` and ``array-stacks`` turns paged
    stacks into array ones.  ``cpu-fallback`` leaves the config alone: the
    engine's retry driver runs that rung itself."""
    if RUNG_SHRINK_CHUNK in rungs:
        config = config.replace(chunk_size=max(1, config.chunk_size // 2))
    if RUNG_ARRAY_STACKS in rungs and config.stack_mode is StackMode.PAGED:
        config = config.replace(stack_mode=StackMode.ARRAY_DMAX)
    return config


@dataclass(frozen=True)
class RetryPolicy:
    """Resilient-execution knobs for :class:`~repro.core.engine.TDFSEngine`.

    On each failed attempt the engine snapshots the unfinished work
    (undrained ``Q_task`` triples, unstarted initial rows, and each live
    warp's unexplored stack remainders), waits an exponentially growing
    number of virtual cycles, applies one more rung of the degradation
    ladder, and re-executes *only the lost remainder* — completed subtrees
    keep their counts.  The ``cpu-fallback`` rung runs the remainder on the
    serial host engine, which no device fault can touch, so a ladder ending
    there always terminates.
    """

    max_attempts: int = 4
    """Total attempt budget, including the first try."""
    backoff_base_cycles: int = 1024
    """Attempt ``i`` failure adds ``base * 2**(i-1)`` virtual idle cycles."""
    ladder: tuple[str, ...] = DEFAULT_LADDER
    """Degradation rungs applied cumulatively: retry ``i`` (attempt
    ``i + 1``) runs under ``ladder[:i]``."""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("retry: max_attempts must be >= 1")
        if self.backoff_base_cycles < 0:
            raise ReproError("retry: backoff_base_cycles must be >= 0")
        unknown = [rung for rung in self.ladder if rung not in DEFAULT_LADDER]
        if unknown:
            raise ReproError(
                f"retry: unknown ladder rung(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(DEFAULT_LADDER)}"
            )

    def rungs_for(self, attempt: int) -> tuple[str, ...]:
        """Ladder rungs in force for 1-based ``attempt``."""
        return self.ladder[: max(0, attempt - 1)]

    def backoff_cycles(self, failed_attempt: int) -> int:
        """Virtual-cycle backoff after 1-based ``failed_attempt`` fails."""
        return int(self.backoff_base_cycles * (2 ** (failed_attempt - 1)))

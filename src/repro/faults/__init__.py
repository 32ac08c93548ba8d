"""Deterministic fault injection + resilient recovery (the chaos harness).

Public surface:

* :class:`FaultPlan` / :class:`FaultSpec` / :class:`FaultKind` — what to
  inject, fully determined by a seed (see :mod:`repro.faults.plan`);
* :class:`RetryPolicy` — the engine's resilient-execution knobs (attempts,
  virtual-cycle backoff, degradation ladder);
* :class:`FaultInjector` — hooks one attempt of one device to a plan;
* recovery helpers — :func:`snapshot_pending_work`,
  :func:`reshard_groups`, :func:`format_survival_report`
  (see :mod:`repro.faults.recovery`).
"""

from repro.faults.injector import POISON_VALUE, FaultInjector
from repro.faults.plan import (
    DEFAULT_LADDER,
    FATAL_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RUNG_ARRAY_STACKS,
    RUNG_CPU_FALLBACK,
    RUNG_SHRINK_CHUNK,
)
from repro.faults.recovery import (
    deadline_policy,
    format_survival_report,
    pending_rows,
    reshard_groups,
    snapshot_pending_work,
)
from repro.faults.workers import (
    WorkerCrash,
    WorkerFaultKind,
    WorkerFaultPlan,
    WorkerFaultSpec,
)

__all__ = [
    "DEFAULT_LADDER",
    "FATAL_KINDS",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "POISON_VALUE",
    "RetryPolicy",
    "RUNG_ARRAY_STACKS",
    "RUNG_CPU_FALLBACK",
    "RUNG_SHRINK_CHUNK",
    "WorkerCrash",
    "WorkerFaultKind",
    "WorkerFaultPlan",
    "WorkerFaultSpec",
    "deadline_policy",
    "format_survival_report",
    "pending_rows",
    "reshard_groups",
    "snapshot_pending_work",
]

"""Match results and run statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gpusim.costmodel import CYCLES_PER_MS


#: Typed view → key in :attr:`MatchResult.metrics`.  The one place an
#: attribute name is tied to a metric name: ``result.timeouts`` reads
#: ``metrics["warp.timeouts"]``, ``result.queue.peak_tasks`` reads
#: ``metrics["queue.occupancy.peak"]``.  Keys ending ``.peak`` are levels
#: (merged by max), everything else adds — see
#: :func:`repro.obs.registry.fold_metrics`.
METRIC_VIEWS: dict[str, str] = {
    "timeouts": "warp.timeouts",
    "steals": "warp.steals",
    "chunks_fetched": "warp.chunks_fetched",
    "load_imbalance": "warp.load_imbalance.peak",
    "matches_per_warp_max": "warp.matches.peak",
    "busy_cycles": "sim.busy_cycles",
    "idle_cycles": "sim.idle_cycles",
    "kernel_launches": "engine.kernel_launches",
    "intersections": "engine.intersections",
    "reuse_hits": "engine.reuse_hits",
    "host_preprocess_cycles": "engine.host_cycles",
    "queue.enqueued": "queue.enqueued",
    "queue.dequeued": "queue.dequeued",
    "queue.enqueue_failures": "queue.enqueue_failures",
    "queue.dequeue_failures": "queue.dequeue_failures",
    "queue.peak_tasks": "queue.occupancy.peak",
    "memory.stack_bytes": "mem.stack_bytes",
    "memory.arena_bytes": "mem.arena_bytes",
    "memory.queue_bytes": "mem.queue_bytes",
    "memory.graph_bytes": "mem.graph_bytes",
    "memory.device_peak_bytes": "mem.device_bytes.peak",
    "memory.pages_allocated": "alloc.pages_in_use.peak",
}

#: What a view reads when its run never wrote the key (anything else: 0).
_UNWRITTEN = {"warp.load_imbalance.peak": 1.0}


def _read(metrics: dict, view: str):
    key = METRIC_VIEWS[view]
    return metrics.get(key, _UNWRITTEN.get(key, 0))


class _StatsView:
    """Read-only attribute view of one group of :data:`METRIC_VIEWS` —
    ``result.queue`` (``Q_task`` counters) and ``result.memory``
    (device-memory figures, Tables V & VII)."""

    __slots__ = ("_metrics", "_group")

    def __init__(self, metrics: dict, group: str) -> None:
        self._metrics = metrics
        self._group = group

    def __getattr__(self, name: str):
        try:
            return _read(self._metrics, f"{self._group}.{name}")
        except KeyError:
            raise AttributeError(f"no {self._group} statistic {name!r}") from None

    def to_dict(self) -> dict:
        prefix = self._group + "."
        return {
            view[len(prefix) :]: _read(self._metrics, view)
            for view in METRIC_VIEWS
            if view.startswith(prefix)
        }


@dataclass
class RecoveryStats:
    """Chaos/resilience accounting for one job (see :mod:`repro.faults`).

    All fields keep their defaults on a fault-free run, so results from the
    ordinary path are unchanged.
    """

    attempts: int = 1
    """Device attempts actually made (1 = no retry was needed)."""
    faults_injected: int = 0
    faults_survived: int = 0
    """Faults absorbed without losing the run: non-fatal perturbations plus
    every fatal abort whose work was recovered."""
    faults_by_kind: dict = field(default_factory=dict)
    degradations: list = field(default_factory=list)
    """Degradation-ladder rungs applied, in order."""
    tasks_reexecuted: int = 0
    """Work rows re-executed from recovery snapshots."""
    devices_failed_over: int = 0
    backoff_cycles: int = 0
    """Virtual idle cycles spent backing off between attempts."""

    def merge(self, other: "RecoveryStats") -> None:
        """Fold another device's stats into this one (multi-GPU merge)."""
        self.attempts = max(self.attempts, other.attempts)
        self.faults_injected += other.faults_injected
        self.faults_survived += other.faults_survived
        for kind, n in other.faults_by_kind.items():
            self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + n
        self.degradations.extend(other.degradations)
        self.tasks_reexecuted += other.tasks_reexecuted
        self.devices_failed_over += other.devices_failed_over
        self.backoff_cycles += other.backoff_cycles

    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "faults_injected": self.faults_injected,
            "faults_survived": self.faults_survived,
            "faults_by_kind": dict(sorted(self.faults_by_kind.items())),
            "degradations": list(self.degradations),
            "tasks_reexecuted": self.tasks_reexecuted,
            "devices_failed_over": self.devices_failed_over,
            "backoff_cycles": self.backoff_cycles,
        }


@dataclass
class MatchResult:
    """Outcome of one subgraph-matching job.

    ``count`` is the number of matches found under the plan's symmetry
    constraints — i.e. distinct subgraph instances when symmetry breaking is
    on, raw embeddings when it is off (``count_embeddings`` normalizes).
    """

    engine: str
    graph_name: str
    query_name: str
    count: int
    elapsed_cycles: int
    aut_size: int = 1
    symmetry_enabled: bool = True
    num_gpus: int = 1
    shards: int = 1
    """Worker processes the job was sharded over (see :mod:`repro.shard`);
    1 = ordinary in-process execution."""
    overflowed: bool = False
    """True when a fixed-capacity stack level truncated candidates — the
    count is then *unreliable*, as the paper shows for STMatch on Pokec."""
    error: Optional[str] = None
    """Failure marker ('OOM', 'ERR'); mirrors the paper's result tables."""
    matches: Optional[list] = None
    """When enumeration was requested: matches as tuples of data-vertex ids
    indexed by *query vertex id* (capped at the requested limit)."""

    metrics: dict = field(default_factory=dict, repr=False)
    """The run's statistics — *exactly this run*, its only store: a flat
    ``name -> number`` dict written once by the engine (or folded from
    the parts by :func:`repro.core.multi_gpu.merge_results`).  Every typed
    statistic (``timeouts``, ``steals``, ``queue.enqueued``, …) is a
    read-only view over it, declared in :data:`METRIC_VIEWS`."""
    resumed: bool = False
    """True when this result continued a checkpointed run instead of
    starting from scratch (see :meth:`TDFSEngine.run_resume`)."""
    resume_rows: int = 0
    """Work rows in the resumed frontier (0 on a from-scratch run)."""
    resume_base_count: int = 0
    """Matches carried over from the checkpoint; included in ``count``."""
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    pending_work: Optional[list] = field(default=None, repr=False)
    """On terminal failure with recovery armed: the snapshot of unfinished
    work groups, so a multi-GPU driver can fail the remainder over to
    surviving devices."""
    op_spans: Optional[list] = field(default=None, repr=False)
    """Operational (wall-clock) span dicts recorded during the run when a
    :class:`repro.obs.TraceContext` was threaded through the config — how
    spans from shard worker processes travel back to the coordinator for
    stitching (see :mod:`repro.obs.ops`)."""

    @property
    def queue(self) -> _StatsView:
        """``Q_task`` counters: ``enqueued``, ``dequeued``,
        ``enqueue_failures``, ``dequeue_failures``, ``peak_tasks``."""
        return _StatsView(self.metrics, "queue")

    @property
    def memory(self) -> _StatsView:
        """Device-memory figures: ``stack_bytes`` (pages held + page
        tables, or the preallocated arrays), ``arena_bytes`` (reserved
        Ouroboros arena), ``queue_bytes``, ``graph_bytes``,
        ``device_peak_bytes``, ``pages_allocated`` (peak pages in use)."""
        return _StatsView(self.metrics, "memory")

    @property
    def elapsed_ms(self) -> float:
        """Virtual makespan in simulated milliseconds."""
        return self.elapsed_cycles / CYCLES_PER_MS

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def count_embeddings(self) -> int:
        """Total embeddings = instances × |Aut| (normalizes engines that
        run without symmetry breaking, like EGSM)."""
        if self.symmetry_enabled:
            return self.count * self.aut_size
        return self.count

    @property
    def count_instances(self) -> float:
        """Distinct subgraph instances (embeddings / |Aut|)."""
        if self.symmetry_enabled:
            return self.count
        return self.count / self.aut_size

    def to_dict(self) -> dict:
        """Serialize to plain JSON-compatible types (for logging/export)."""
        return {
            "engine": self.engine,
            "graph": self.graph_name,
            "query": self.query_name,
            "count": self.count,
            "count_embeddings": self.count_embeddings,
            "aut_size": self.aut_size,
            "symmetry_enabled": self.symmetry_enabled,
            "elapsed_ms": self.elapsed_ms,
            "num_gpus": self.num_gpus,
            "shards": self.shards,
            "overflowed": self.overflowed,
            "error": self.error,
            "load_imbalance": self.load_imbalance,
            "timeouts": self.timeouts,
            "steals": self.steals,
            "kernel_launches": self.kernel_launches,
            "chunks_fetched": self.chunks_fetched,
            "intersections": self.intersections,
            "reuse_hits": self.reuse_hits,
            "metrics": dict(self.metrics) if self.metrics else None,
            "busy_cycles": self.busy_cycles,
            "idle_cycles": self.idle_cycles,
            "host_preprocess_ms": self.host_preprocess_cycles / CYCLES_PER_MS,
            "queue": self.queue.to_dict(),
            "memory": self.memory.to_dict(),
            "num_matches_collected": len(self.matches) if self.matches else 0,
            "recovery": self.recovery.to_dict(),
            "resume": {
                "resumed": self.resumed,
                "rows": self.resume_rows,
                "base_count": self.resume_base_count,
            },
        }

    def summary(self) -> str:
        """One-line report used by examples and the bench harness."""
        if self.failed:
            return (
                f"{self.engine:>10} {self.graph_name}/{self.query_name}: "
                f"{self.error}"
            )
        flag = " [OVERFLOW: count unreliable]" if self.overflowed else ""
        if self.resumed:
            flag += f" [resumed: {self.resume_rows} rows from checkpoint]"
        if self.recovery.attempts > 1 or self.recovery.devices_failed_over:
            flag += (
                f" [recovered: {self.recovery.faults_survived} fault(s), "
                f"{self.recovery.attempts} attempt(s)]"
            )
        return (
            f"{self.engine:>10} {self.graph_name}/{self.query_name}: "
            f"{self.count} matches in {self.elapsed_ms:.3f} ms "
            f"(imbalance {self.load_imbalance:.2f}){flag}"
        )


def _view(name: str) -> property:
    return property(
        lambda self: _read(self.metrics, name),
        doc=f"Read-only view of ``metrics[{METRIC_VIEWS[name]!r}]``.",
    )


for _name in METRIC_VIEWS:
    if "." not in _name:
        setattr(MatchResult, _name, _view(_name))

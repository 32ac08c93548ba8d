"""Engine configuration: :class:`TDFSConfig` says what a run computes,
:class:`RunContext` says how it is run.

Defaults follow the paper: chunk size 8, timeout τ = 10 ms (scaled to the
stand-in datasets — see ``DEFAULT_TAU_CYCLES``), paged stacks, timeout-based
stealing, queue capacity a small fraction of device memory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional, TYPE_CHECKING, Union

from repro.errors import ReproError

if TYPE_CHECKING:  # avoid a runtime import cycle (faults → … → config)
    from repro.faults.plan import FaultPlan, RetryPolicy
    from repro.kernels import KernelBackend
    from repro.obs import Observability
    from repro.planner.search import PlannerConfig
from repro.gpusim.costmodel import CostModel, CYCLES_PER_MS, DEFAULT_COST_MODEL
from repro.gpusim.device import DEFAULT_NUM_WARPS


class Strategy(enum.Enum):
    """Load-balancing strategy (paper Fig. 11 compares all four)."""

    TIMEOUT = "timeout"  # T-DFS: timeout decomposition + lock-free queue
    HALF_STEAL = "half-steal"  # STMatch: idle warps lock + steal half a level
    NEW_KERNEL = "new-kernel"  # EGSM: child kernels for large fanouts
    NONE = "none"  # no stealing at all


class StackMode(enum.Enum):
    """Stack storage variant (paper Tables V–VIII compare these)."""

    PAGED = "paged"  # T-DFS dynamic page tables
    ARRAY_DMAX = "array-dmax"  # correct but wasteful: capacity = d_max
    ARRAY_FIXED = "array-fixed"  # STMatch default: hardcoded capacity


#: Paper default τ is 10 ms on billion-edge graphs.  The stand-ins are
#: ~10³–10⁵× smaller, so the simulated default scales to 10 µs of virtual
#: time; the τ-ablation benches sweep the same ×10 grid around it.
DEFAULT_TAU_CYCLES = 10_000

#: STMatch's hardcoded per-level capacity (vertex ids) — every
#: :attr:`StackMode.ARRAY_FIXED` level, which truncates what does not fit.
#: The paper notes this loses correctness on skewed graphs; scaled here
#: with the datasets.  The engine reads it through this module at run time.
STMATCH_FIXED_CAPACITY = 96


@dataclass(frozen=True)
class TDFSConfig:
    """What a T-DFS run computes: the paper's knobs, nothing else.

    Every field can change a count, a virtual time or a reported statistic,
    so every field is part of the cache fingerprint (``trace_context``, the
    one declared exception, says so where it is defined) and the whole
    object pickles whenever ``kernel_backend`` is a name.  How a run is
    *executed* — observability, fault injection, retry, checkpoint hooks —
    travels beside it in a :class:`RunContext`.
    Everything has a sane default so ``TDFSEngine()`` works out of the box.
    """

    num_warps: int = DEFAULT_NUM_WARPS
    chunk_size: int = 8
    """Initial tasks (edges) fetched per idle warp (paper default: 8)."""

    strategy: Strategy = Strategy.TIMEOUT
    tau_cycles: int = DEFAULT_TAU_CYCLES
    """Timeout threshold τ in virtual cycles; ``None``/inf semantics use
    :meth:`no_timeout`."""

    queue_capacity_tasks: int = 8_192
    """Capacity of ``Q_task`` in tasks (each task = 3 int slots)."""

    stack_mode: StackMode = StackMode.PAGED
    page_table_size: int = 24
    arena_pages: int = 65_536
    release_pages: bool = False
    """Enable the paper's optional page-release rule (Section III: free the
    last n/2 pages of a level when a refill uses no more than n/4)."""

    enable_symmetry: bool = True
    enable_reuse: bool = True
    enable_edge_filter: bool = True
    """Degree-based pruning of initial edges (label/symmetry checks are
    correctness-critical and always applied)."""

    kernel_backend: Union[str, "KernelBackend"] = "vectorized"
    """Candidate-computation kernel (see :mod:`repro.kernels`): a backend
    name (``"scalar"``, ``"vectorized"``) or a constructed
    :class:`~repro.kernels.KernelBackend` instance.  Backends are stateless
    and conformance-tested to identical counts and cycle charges."""

    device_memory: Optional[int] = None
    """Device memory budget in bytes; ``None`` = the 64 MiB
    :data:`~repro.graph.datasets.DEFAULT_DEVICE_MEMORY`.  A dataset's own
    budget (``DATASETS[name].device_memory``, e.g. friendster's 470 KB)
    applies only where a caller copies it in, as the ``repro`` commands,
    :func:`~repro.bench.harness.run_cell` and the benchmarks do."""

    num_gpus: int = 1
    cost: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)

    shards: int = 1
    """Shard the initial-task space over N worker processes (see
    :mod:`repro.shard`).  1 = in-process execution, unchanged.  N > 1 fans
    deterministic shards out over the process's standing workers and merges
    the per-shard results; match counts are invariant for any N, and the merge
    is bit-identical to running the same shard plan sequentially."""

    planner: Optional["PlannerConfig"] = None
    """Cost-based plan search (see :mod:`repro.planner`).  ``None`` (the
    default) keeps the legacy greedy matching order — emitted plans are
    bit-for-bit identical to pre-planner behaviour.  Set to a
    :class:`~repro.planner.search.PlannerConfig` to pick orders from a
    searched, cost-ranked portfolio (requires the engine to see the data
    graph at compile time; plan-only entry points fall back to greedy)."""

    trace_context: Optional[object] = field(
        default=None, metadata={"fingerprint": False}
    )
    """Cross-process trace identity (a :class:`repro.obs.TraceContext`)
    for the *operational* tracing layer (see :mod:`repro.obs.ops`).  When
    set, the shard coordinator records dispatch/run spans under it —
    including inside shard worker processes, where the context arrives
    pickled inside this config — and the incremental matcher parents its
    anchored runs to it.  Purely observational and per-request by
    construction, so it is the one field the cache fingerprint leaves out
    (a request must hit the same entry traced or not)."""

    # ------------------------------------------------------------------ #

    def __post_init__(self) -> None:
        if self.num_warps < 1:
            raise ReproError("num_warps must be >= 1")
        if self.chunk_size < 1:
            raise ReproError("chunk_size must be >= 1")
        if self.queue_capacity_tasks < 1:
            raise ReproError("queue capacity must be >= 1 task")
        if self.num_gpus < 1:
            raise ReproError("num_gpus must be >= 1")
        if self.tau_cycles <= 0:
            raise ReproError("tau_cycles must be positive; use no_timeout()")
        if self.arena_pages < 1:
            raise ReproError("arena_pages must be >= 1")
        if self.shards < 1:
            raise ReproError("shards must be >= 1")
        if self.shards > 1 and self.num_gpus > 1:
            raise ReproError(
                "shards and num_gpus cannot both exceed 1; shard a "
                "single-device config, or simulate multiple devices "
                "in one process"
            )
        if isinstance(self.kernel_backend, str):
            from repro.kernels import make_backend

            make_backend(self.kernel_backend)  # ReproError on an unknown name
        if self.planner is not None:
            from repro.planner.search import PlannerConfig

            if not isinstance(self.planner, PlannerConfig):
                raise ReproError(
                    "planner must be a repro.planner.PlannerConfig or None"
                )
        if self.trace_context is not None:
            from repro.obs.ops import TraceContext

            if not isinstance(self.trace_context, TraceContext):
                raise ReproError(
                    "trace_context must be a repro.obs.TraceContext or None"
                )

    @property
    def tau_ms(self) -> float:
        """τ in simulated milliseconds."""
        return self.tau_cycles / CYCLES_PER_MS

    def with_tau_ms(self, tau_ms: float) -> "TDFSConfig":
        """Copy with τ given in simulated milliseconds (∞ ⇒ no stealing)."""
        if math.isinf(tau_ms):
            return self.no_timeout()
        return replace(self, tau_cycles=max(1, int(tau_ms * CYCLES_PER_MS)))

    def no_timeout(self) -> "TDFSConfig":
        """Copy with the timeout disabled (τ = ∞ ⇒ Strategy.NONE)."""
        return replace(self, strategy=Strategy.NONE)

    def replace(self, **kwargs) -> "TDFSConfig":
        """General-purpose copy-with-overrides."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class RunContext:
    """How a run is executed: wiring that rides beside a :class:`TDFSConfig`.

    Nothing here can change a fault-free count or virtual time, so none of
    it is fingerprinted; engines read it as ``engine.ctx``.  Everything
    defaults to "plain run": no injection, no recovery, a private registry.
    """

    obs: Optional["Observability"] = None
    """Observability bundle (metrics registry + span tracer, see
    :mod:`repro.obs`).  ``None`` = a fresh per-run registry with tracing
    disabled; pass your own to accumulate across runs or enable tracing."""

    fault_plan: Optional["FaultPlan"] = None
    """Chaos harness: deterministic fault plan to arm on every device
    attempt (see :mod:`repro.faults`).  ``None`` = no injection."""
    retry: Optional["RetryPolicy"] = None
    """Resilient execution: retry/degradation/failover policy.  ``None``
    disables recovery — fatal device errors surface in ``MatchResult.error``."""

    shard_faults: tuple = ()
    """Shard indices whose worker process dies on dispatch (the shard-kill
    fault axis, exercising the coordinator's re-execution path).  Counts
    are recovered exactly."""

    checkpoint_every_events: int = 0
    """Take a consistent frontier checkpoint every N scheduler events
    (0 = off).  At each boundary every warp is suspended at a yield point,
    so :func:`repro.faults.recovery.snapshot_pending_work` reads an exact
    resumable remainder; the serving layer's supervisor uses this for
    checkpoint/resume of in-flight matches."""
    checkpoint_hook: Optional[object] = None
    """Callable ``hook(job, now_cycles)`` invoked at each checkpoint
    boundary (requires ``checkpoint_every_events > 0``).  May raise to
    abort the run — the worker-kill chaos axis does exactly that."""

    def __post_init__(self) -> None:
        if self.checkpoint_every_events < 0:
            raise ReproError("checkpoint_every_events must be >= 0")
        if not isinstance(self.shard_faults, tuple) or any(
            not isinstance(s, int) or s < 0 for s in self.shard_faults
        ):
            raise ReproError(
                "shard_faults must be a tuple of shard indices (ints >= 0)"
            )

    def for_child_process(self) -> "RunContext":
        """The context a shard worker process runs under: the fault plan
        and the retry policy cross the boundary; the obs bundle and
        checkpoint hook belong to this process (and need not pickle), and
        shard deaths are the coordinator's to inject."""
        return replace(
            self,
            obs=None,
            shard_faults=(),
            checkpoint_every_events=0,
            checkpoint_hook=None,
        )

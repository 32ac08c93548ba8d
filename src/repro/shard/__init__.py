"""repro.shard — sharded multi-process execution of one matching job.

Every engine in this repo is single-process Python, so host throughput is
capped by the GIL no matter how fast the kernels get.  The paper's own
decomposition insight makes task-space sharding *exact by construction*:
initial tasks (directed edges) root independent search subtrees, so any
partition of the initial-task space enumerates every match exactly once,
and oversized partitions can be re-split with the same round-robin rule
the timeout-steal machinery already uses for device failover.

Two pieces:

* :class:`ShardPlanner` — partitions the initial-task space into N
  deterministic shards (``hash`` content-hash partitioning or ``degree``
  greedy work balancing), pre-splitting oversized shards through
  :func:`repro.faults.recovery.reshard_groups`;
* :class:`ShardCoordinator` — feeds the shards to the process's standing
  worker pool (launched once by the first sharded run, drained at exit or
  by :func:`shutdown_workers`), runs the unmodified engine per shard,
  re-executes the shards of dead workers via the reshard path, and
  merges the per-shard :class:`~repro.core.result.MatchResult`\\ s (counts
  sum, makespan is the max, obs snapshots and RecoveryStats fold) into one
  result identical to running the same shard plan in a single process.

Wired through ``TDFSConfig(shards=N)`` / ``repro run --shards N``; see
DESIGN.md §12 for the exactness argument and the failure/re-execution
path.
"""

from repro.shard.coordinator import (
    ShardCoordinator,
    ShardProcessError,
    shutdown_workers,
)
from repro.shard.planner import (
    SHARD_STRATEGIES,
    ShardPlan,
    ShardPlanner,
)

__all__ = [
    "SHARD_STRATEGIES",
    "ShardCoordinator",
    "ShardPlan",
    "ShardPlanner",
    "ShardProcessError",
    "shutdown_workers",
]

"""Multi-GPU scale-out (paper Section III and Fig. 12) and the one fan-out.

T-DFS partitions the initial tasks (directed edges) round-robin — the
``i``-th edge goes to GPU ``i mod NUM_GPU`` — and runs each device
independently with no cross-GPU task migration.  The job finishes when the
slowest device does, so the reported elapsed time is the max over devices
and the count is the sum.

The paper observes near-ideal speedup because round-robin over millions of
edges balances the devices statistically; the same holds for the stand-ins.

Every work group roots independent search subtrees, so any partition of a
job's groups can be run part by part and summed, and any lost part re-run
from its remainder (DESIGN.md "Work groups").  :func:`fan_out` is that
argument as code; :func:`run_multi_gpu` (devices in this process) and
:class:`repro.shard.ShardCoordinator` (worker processes) both go through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.result import MatchResult, RecoveryStats
from repro.faults.recovery import WorkGroup, pending_rows, reshard_groups
from repro.graph.csr import CSRGraph
from repro.obs.registry import fold_metrics
from repro.query.plan import MatchingPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import TDFSEngine

def run_multi_gpu(
    graph: CSRGraph,
    plan: MatchingPlan,
    engine: "TDFSEngine",
    num_gpus: int,
    collect_matches: int = 0,
) -> MatchResult:
    """Round-robin the initial edges over ``num_gpus`` devices and merge.

    Device failover (chaos harness, see :mod:`repro.faults`): when the
    engine carries a :class:`~repro.faults.plan.RetryPolicy` and a device
    fails terminally, its recovery snapshot — the exact unfinished
    remainder — is re-sharded over the surviving devices and re-executed
    there, so a dead GPU costs time but never matches.
    """
    edges = graph.directed_edge_array()
    free_at: dict[int, int] = {}

    def run_part(g: int, groups: list, collect: int, rescue_of: Optional[int]):
        rescue = rescue_of is not None
        result = engine._run_single(
            graph,
            plan,
            groups,
            f"gpu{g}+fo{rescue_of}" if rescue else f"gpu{g}",
            collect,
            recovered=rescue,
        )
        # A device is a serial resource: a rescue run starts when the
        # survivor has finished its own share (and any earlier rescue).
        result.elapsed_cycles += free_at.get(g, 0)
        free_at[g] = result.elapsed_cycles
        return result

    return fan_out(
        [[(edges[g::num_gpus], 2)] for g in range(num_gpus)],
        run_part,
        collect_matches,
        num_gpus=num_gpus,
        failover=engine.ctx.retry is not None,
    )


def fan_out(
    parts: list[list[WorkGroup]],
    run_part: Callable[[int, list, int, Optional[int]], Optional[MatchResult]],
    collect_matches: int = 0,
    *,
    num_gpus: int = 1,
    results: Optional[list[Optional[MatchResult]]] = None,
    failover: bool = False,
) -> MatchResult:
    """Run every part, re-run what was lost, merge.

    ``run_part(slot, groups, collect_matches, rescue_of)`` executes groups
    on executor ``slot`` — a part's own share (``rescue_of`` is ``None``) or
    a sub-part of lost part ``rescue_of``'s remainder.  An own share may
    return ``None``: the executor died without handing anything back.
    ``results`` lets a caller that ran the own shares elsewhere (a process
    pool) hand in what came back.  Two kinds of loss are re-run, each
    remainder split by :func:`reshard_groups`:

    * nothing came back (``None``): the executor is respawnable, so the
      whole part re-runs *in place*, split ``len(parts)`` ways so a giant
      part re-executes as balanced units;
    * with ``failover``, a device that failed terminally hands back its
      recovery snapshot (``pending_work``) and is gone, so the snapshot is
      re-sharded over the *surviving* slots.

    A lost part is absorbed (its error cleared, ``faults_survived`` bumped)
    once all its sub-parts succeeded; the first failed rescue stops the
    re-running and every error stands.
    """
    if results is None:
        results = [
            run_part(i, part, collect_matches, None)
            for i, part in enumerate(parts)
        ]
    lost: dict[int, list[WorkGroup]] = {}
    for i, result in enumerate(results):
        if result is None:
            lost[i] = parts[i]
        elif failover and result.failed:
            lost[i] = result.pending_work or []
    survivors = [i for i in range(len(parts)) if i not in lost]
    done = [r for r in results if r is not None]
    stats = RecoveryStats()
    for i, remainder in lost.items():
        slots = [i] * len(parts) if results[i] is None else survivors
        if not slots:
            break  # every device is gone: nowhere to fail over to
        stats.devices_failed_over += 1
        subs = reshard_groups(remainder, len(slots)) if remainder else []
        if results[i] is None and not subs:
            subs = [remainder]  # an empty part still owes its (blank) result
        absorbed = True
        for sub, slot in zip(subs, slots):
            rescue = run_part(slot, sub, collect_matches, i)
            done.append(rescue)
            if rescue.failed:
                absorbed = False
                break
            stats.tasks_reexecuted += pending_rows(sub)
        if not absorbed:
            break  # even the rescue run died: every error stands
        stats.faults_survived += 1
        if results[i] is not None:
            results[i].error = None
            results[i].pending_work = None
    merged = merge_results(done, num_gpus)
    merged.recovery.merge(stats)
    if collect_matches:
        found = [m for r in done for m in r.matches or []]
        merged.matches = found[:collect_matches]
    return merged


def merge_results(per_gpu: list[MatchResult], num_gpus: int) -> MatchResult:
    """Combine per-part results: counts sum, makespan is the max, every
    statistic folds by :func:`~repro.obs.registry.fold_metrics` (sums,
    ``.peak`` keys max)."""
    first = per_gpu[0]
    merged = MatchResult(
        engine=first.engine,
        graph_name=first.graph_name,
        query_name=first.query_name,
        count=sum(r.count for r in per_gpu),
        elapsed_cycles=max(r.elapsed_cycles for r in per_gpu),
        aut_size=first.aut_size,
        symmetry_enabled=first.symmetry_enabled,
        num_gpus=num_gpus,
    )
    errors = [(g, r.error) for g, r in enumerate(per_gpu) if r.error]
    if len(errors) == 1:
        merged.error = errors[0][1]
    elif errors:
        # Aggregate every device's failure, not just the first one.
        merged.error = " | ".join(f"gpu{g}: {e}" for g, e in errors)
    merged.overflowed = any(r.overflowed for r in per_gpu)
    for r in per_gpu:
        fold_metrics(merged.metrics, r.metrics)
        merged.recovery.merge(r.recovery)
    spans = [s for r in per_gpu for s in (r.op_spans or [])]
    merged.op_spans = spans or None
    return merged

"""Recovery machinery: snapshot unfinished work, re-shard it, re-execute.

The DES scheduler only ever suspends warps at their ``yield`` points, and
:mod:`repro.core.warp_matcher` keeps every warp's :class:`RunState`
*consistent* at those points (chunk cursors, candidate iterators, and the
decompose/enqueue loops all advance before control can leave the warp).  A
fatal fault therefore freezes the whole device in a state from which the
lost remainder can be read off exactly:

* **unstarted initial rows** — the job's undrained edge/prefix groups;
* **undrained ``Q_task`` triples** — from the host-side task journal when
  recovery is armed (survives ring corruption), else by draining the ring;
* **per-warp stack remainders** — for every live warp, the unprocessed
  candidates of each filled stack level become ``(path prefix, candidate)``
  rows, plus any half-processed chunk and any stolen/child candidate list.

Matches emitted before the fault correspond precisely to the subtrees *not*
present in the snapshot, so re-executing the snapshot (on a retried device,
a surviving device, or the serial CPU engine) completes the count with no
double-counting — the re-execute-surviving-work machinery that
batch-dynamic matching systems also rely on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ReproError
from repro.taskqueue.tasks import PLACEHOLDER

#: A unit of recoverable work: ``(rows, width)`` where ``rows`` is a 2-D
#: int array of matched prefixes and ``width`` their length (≥ 2).
WorkGroup = tuple[np.ndarray, int]


def _rows_array(rows: list[tuple], width: int) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), width)


def snapshot_pending_work(job) -> list[WorkGroup]:
    """Extract the exact unfinished remainder of an aborted MatchJob."""
    buckets: dict[int, list[tuple]] = {}
    groups: list[WorkGroup] = []

    def add_array(rows: np.ndarray, width: int) -> None:
        if len(rows):
            groups.append((np.asarray(rows, dtype=np.int64), int(width)))

    def add_row(row: tuple) -> None:
        buckets.setdefault(len(row), []).append(row)

    # 1. Initial rows no warp ever fetched.
    for rows, width in job.pending_initial():
        add_array(rows, width)

    # 2. Undrained Q_task triples.  The journal is authoritative when armed
    #    (it survives slot corruption); otherwise drain the ring and keep
    #    whatever decodes as a plausible task.
    n_vertices = job.graph.num_vertices
    if getattr(job, "journal", None) is not None:
        tasks = [t for t, n in job.journal.items() for _ in range(n)]
    elif job.queue is not None:
        tasks = [
            t
            for t in job.queue.drain()
            if 0 <= t.v1 < n_vertices
            and 0 <= t.v2 < n_vertices
            and (t.v3 == PLACEHOLDER or 0 <= t.v3 < n_vertices)
        ]
    else:
        tasks = []
    for t in tasks:
        if t.v3 == PLACEHOLDER:
            add_row((t.v1, t.v2))
        else:
            add_row((t.v1, t.v2, t.v3))

    # 3. Per-warp remainders: half-processed chunks, stolen/child candidate
    #    lists, and the unexplored part of every filled stack level.
    k = job.plan.num_levels
    for st in job.run_states:
        if st.inflight is not None:
            # A subtree was mid-expansion (e.g. the abort hit a stack page
            # allocation inside _fill): nothing of it was counted yet, so
            # its whole prefix row is pending.
            add_row(tuple(int(x) for x in st.path[: st.inflight]))
        if st.chunk is not None and st.chunk_pos < len(st.chunk):
            rem = st.chunk[st.chunk_pos :]
            width = rem.shape[1] if rem.ndim == 2 else 2
            add_array(np.asarray(rem).reshape(len(rem), width), width)
        if st.aux_cands is not None and st.aux_pos < len(st.aux_cands):
            prefix = tuple(int(x) for x in st.aux_prefix)
            for c in st.aux_cands[st.aux_pos :]:
                add_row(prefix + (int(c),))
        for p in range(st.item_prefix, k - 1):
            f = st.filtered[p]
            if f is None:
                break
            rem = f[st.iters[p] :]
            if len(rem):
                prefix = tuple(int(x) for x in st.path[:p])
                for c in rem:
                    add_row(prefix + (int(c),))

    for width in sorted(buckets):
        groups.append((_rows_array(buckets[width], width), width))
    return groups


def pending_rows(groups: Optional[list[WorkGroup]]) -> int:
    """Total number of work rows across groups."""
    if not groups:
        return 0
    return int(sum(len(rows) for rows, _ in groups))


def reshard_groups(
    groups: list[WorkGroup], num_shards: int
) -> list[list[WorkGroup]]:
    """Round-robin every group's rows over ``num_shards`` (device failover).

    Mirrors the paper's initial-edge partitioning: row ``i`` of each group
    goes to shard ``i mod num_shards``, so a failed device's remainder is
    statistically balanced over the survivors.

    Raises :class:`~repro.errors.ReproError` when ``num_shards`` is not
    positive (a silent ``[]`` here would drop every pending row), and
    returns only non-empty shards when ``num_shards`` exceeds the row
    count — callers distribute work to whatever comes back, and an empty
    shard is a no-op device attempt at best.
    """
    if num_shards <= 0:
        raise ReproError(
            f"reshard_groups: num_shards must be >= 1, got {num_shards} "
            f"({pending_rows(groups)} pending rows would be dropped)"
        )
    shards: list[list[WorkGroup]] = [[] for _ in range(num_shards)]
    for rows, width in groups:
        for s in range(num_shards):
            part = rows[s::num_shards]
            if len(part):
                shards[s].append((part, width))
    return [s for s in shards if s]


# --------------------------------------------------------------------------- #
# Deadline hook (used by repro.serve)
# --------------------------------------------------------------------------- #


def deadline_policy(
    remaining_ms: Optional[float],
    deadline_ms: Optional[float],
    base=None,
) -> tuple:
    """Fit a retry policy (and config degradations) to a request deadline.

    The serving layer calls this right before executing a request that
    carries a wall-clock deadline.  Returns ``(policy, rungs)``:

    * ``policy`` — the :class:`~repro.faults.plan.RetryPolicy` the run
      should use (``base`` unchanged when there is plenty of budget left);
    * ``rungs`` — degradation-ladder rungs to apply to the config *up
      front* (before any fault occurs).

    With more than half the deadline budget remaining the request runs
    under ``base`` untouched.  At half or less, the run is pre-degraded
    with :data:`~repro.faults.plan.RUNG_SHRINK_CHUNK` and the retry ladder
    is collapsed to a single device attempt followed directly by the
    serial CPU fallback with no backoff — a fault near the deadline then
    degrades straight to the rung that is guaranteed to terminate instead
    of burning the remaining budget on device retries.  Callers handle an
    already-expired deadline themselves (cancel with a typed response);
    a non-positive ``remaining_ms`` here is treated as the tight regime.
    """
    from dataclasses import replace

    from repro.faults.plan import (
        RetryPolicy,
        RUNG_CPU_FALLBACK,
        RUNG_SHRINK_CHUNK,
    )

    if deadline_ms is None or remaining_ms is None or deadline_ms <= 0:
        return base, ()
    if remaining_ms > 0.5 * deadline_ms:
        return base, ()
    base = base if base is not None else RetryPolicy()
    policy = replace(
        base,
        max_attempts=min(base.max_attempts, 2),
        backoff_base_cycles=0,
        ladder=(RUNG_CPU_FALLBACK,),
    )
    return policy, (RUNG_SHRINK_CHUNK,)


# --------------------------------------------------------------------------- #
# Survival report
# --------------------------------------------------------------------------- #


def format_survival_report(result, baseline=None, plan=None) -> str:
    """Render a deterministic, human-readable chaos survival report.

    ``result`` ran under a fault plan; ``baseline`` (optional) is the same
    workload without faults, used to verify count preservation.  The output
    contains only virtual-time quantities, so identical seeds produce
    byte-identical reports.
    """
    rec = result.recovery
    lines = ["=== chaos survival report ==="]
    lines.append(f"engine           : {result.engine}")
    lines.append(f"workload         : {result.graph_name}/{result.query_name}")
    if plan is not None:
        lines.append(f"fault seed       : {plan.seed}")
    lines.append(f"gpus             : {result.num_gpus}")
    lines.append(f"attempts         : {rec.attempts}")
    by_kind = ", ".join(
        f"{k}={v}" for k, v in sorted(rec.faults_by_kind.items())
    )
    lines.append(
        f"faults injected  : {rec.faults_injected}"
        + (f" ({by_kind})" if by_kind else "")
    )
    lines.append(f"faults survived  : {rec.faults_survived}")
    lines.append(
        "degradations     : "
        + (" -> ".join(rec.degradations) if rec.degradations else "none")
    )
    lines.append(f"rows re-executed : {rec.tasks_reexecuted}")
    lines.append(f"devices failed over : {rec.devices_failed_over}")
    lines.append(f"backoff cycles   : {rec.backoff_cycles}")
    lines.append(f"elapsed cycles   : {result.elapsed_cycles}")
    if result.failed:
        lines.append(f"final state      : FAILED ({result.error})")
        verdict = "DIED"
    else:
        lines.append(f"final count      : {result.count}")
        if baseline is not None:
            ok = (not baseline.failed) and result.count == baseline.count
            lines.append(
                f"baseline count   : {baseline.count} -> "
                + ("MATCH" if ok else "MISMATCH")
            )
            verdict = "SURVIVED" if ok else "CORRUPTED"
        else:
            verdict = "SURVIVED"
    lines.append(f"verdict          : {verdict}")
    return "\n".join(lines) + "\n"

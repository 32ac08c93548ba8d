"""The traced run: spans around the runner's own calls, a call profile on
every thread, and the per-layer table computed from both.

A layer is a ``repro`` module, named without the package prefix
(``core.warp_matcher``).  Three sources feed the table (README, "Sources"):
spans the runner records (S), the call profile (P) and exact counters the
program already returns (M).  Nothing here is read by the untraced run.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict

from measure import median, peak_rss_mb

# --------------------------------------------------------------------------- #
# The metric list (BENCHMARK.json's per_layer must match; --quick checks it)
# --------------------------------------------------------------------------- #

#: (name, unit, better).  Times are reference ms per op unless the name says
#: otherwise; counts are per op.  README has the glossary and, per row, the
#: end-to-end metric it should move and on which workload.  Rows of layers a
#: workload never enters (shard.* outside shard-n2, serve.* and dynamic.*
#: outside serve-churn) are absent from its table.
LAYER_METRICS = (
    ("virtual_ms", "ms", "lower"),
    ("core.warp_matcher.self_ms", "ms", "lower"),
    ("core.warp_matcher.calls", "count", "lower"),
    ("core.warp_matcher.us_per_event", "us", "lower"),
    ("gpusim.scheduler.self_ms", "ms", "lower"),
    ("gpusim.scheduler.events", "count", "lower"),
    ("gpusim.device.self_ms", "ms", "lower"),
    ("gpusim.costmodel.self_ms", "ms", "lower"),
    ("core.engine.self_ms", "ms", "lower"),
    ("core.candidates.self_ms", "ms", "lower"),
    ("core.intersect.self_ms", "ms", "lower"),
    ("core.intersect.calls", "count", "lower"),
    ("core.edge_filter.self_ms", "ms", "lower"),
    ("engine.intersections", "count", "lower"),
    ("engine.reuse_hits", "count", "higher"),
    ("kernels.vectorized.self_ms", "ms", "lower"),
    ("kernels.vectorized.calls", "count", "lower"),
    ("kernels.vectorized.share", "ratio", "lower"),
    ("alloc.pagetable.self_ms", "ms", "lower"),
    ("alloc.pagetable.calls", "count", "lower"),
    ("alloc.stack.self_ms", "ms", "lower"),
    ("alloc.ouroboros.pages_peak", "count", "lower"),
    ("taskqueue.ring.self_ms", "ms", "lower"),
    ("taskqueue.ring.enqueued", "count", "lower"),
    ("taskqueue.ring.dequeued", "count", "lower"),
    ("taskqueue.ring.failed_ops", "count", "lower"),
    ("warp.timeouts", "count", "lower"),
    ("warp.steals", "count", "lower"),
    ("query.plan.compile_ms", "ms", "lower"),
    ("query.plan.compiles", "count", "lower"),
    ("graph.datasets.load_ms", "ms", "lower"),
    ("graph.csr.pickle_ms", "ms", "lower"),
    ("graph.csr.pickle_bytes", "bytes", "lower"),
    ("graph.csr.apply_delta_ms", "ms", "lower"),
    ("shard.planner.plan_ms", "ms", "lower"),
    ("shard.imbalance", "ratio", "lower"),
    ("shard.coordinator.dispatch_ms", "ms", "lower"),
    ("shard.coordinator.run_ms_max", "ms", "lower"),
    ("shard.coordinator.run_ms_sum", "ms", "lower"),
    ("shard.coordinator.overhead_ms", "ms", "lower"),
    ("shard.process_failures", "count", "lower"),
    ("shard.child_rss_mb", "MB", "lower"),
    ("shard.speedup_vs_inline", "ratio", "higher"),
    ("shard.cpu_ratio_vs_inline", "ratio", "lower"),
    ("serve.phase_ms.write", "ms", "lower"),
    ("serve.phase_ms.cold", "ms", "lower"),
    ("serve.phase_ms.warm", "ms", "lower"),
    ("serve.phase_share.write", "ratio", "lower"),
    ("serve.phase_share.cold", "ratio", "lower"),
    ("serve.phase_share.warm", "ratio", "lower"),
    ("serve.batcher.queue_ms", "ms", "lower"),
    ("serve.batcher.batch_size_mean", "count", "higher"),
    ("serve.workers.run_ms", "ms", "lower"),
    ("serve.workers.compile_ms", "ms", "lower"),
    ("serve.service.overhead_ms", "ms", "lower"),
    ("serve.service.warm_req_us", "us", "lower"),
    ("serve.cache.result_hit_ratio", "ratio", "higher"),
    ("serve.cache.plan_hit_ratio", "ratio", "higher"),
    ("serve.service.shed", "count", "lower"),
    ("serve.cold_overhead_ratio", "ratio", "lower"),
    ("dynamic.incremental.count_delta_ms", "ms", "lower"),
    ("dynamic.anchored_tasks", "count", "lower"),
    ("dynamic.incremental_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

#: Layers whose profile rows (self_ms / calls) the table reports.
PROFILED_LAYERS = (
    "core.warp_matcher",
    "gpusim.scheduler",
    "gpusim.device",
    "gpusim.costmodel",
    "core.engine",
    "core.candidates",
    "core.intersect",
    "core.edge_filter",
    "kernels.vectorized",
    "alloc.pagetable",
    "alloc.stack",
    "taskqueue.ring",
)

# --------------------------------------------------------------------------- #
# Spans (S)
# --------------------------------------------------------------------------- #


class _NullSpan:
    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc_info) -> bool:
        return False


class NullSpans:
    """The untraced run's recorder: records nothing."""

    op = None
    _null = _NullSpan()

    def span(self, name: str, **args) -> _NullSpan:
        return self._null

    def adopt(self, op_spans) -> None:
        pass


class _Span:
    def __init__(self, spans: "Spans", event: dict) -> None:
        self.spans, self.event = spans, event

    def __enter__(self) -> dict:
        self.spans._stack.append(self.event["id"])
        self.event["start"] = time.perf_counter()
        return self.event["args"]

    def __exit__(self, *exc_info) -> bool:
        self.event["end"] = time.perf_counter()
        self.spans._stack.pop()
        return False


class Spans:
    """Spans kept in memory: name, start, end, parent, op id.  Recorded from
    the runner's (single) driving thread only."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None
        # (op id, span dict): shard.dispatch / shard.run, crossing processes.
        self.adopted: list[tuple[str, dict]] = []

    def span(self, name: str, **args) -> _Span:
        event = {
            "id": len(self.events),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "args": args,
        }
        self.events.append(event)
        return _Span(self, event)

    def adopt(self, op_spans) -> None:
        """Keep the program's own op-spans (repro.obs.ops dicts) of this op."""
        self.adopted.extend((self.op, s) for s in op_spans)

    def named(self, name: str) -> list[dict]:
        return [e for e in self.events if e["name"] == name]

    def chrome_trace(self, stamp: dict) -> dict:
        """Chrome ``trace_event`` document (µs, complete events)."""
        epoch_offset = time.time() - time.perf_counter()
        pid = os.getpid()
        events = [
            {
                "name": e["name"],
                "ph": "X",
                "ts": (e["start"] + epoch_offset) * 1e6,
                "dur": (e["end"] - e["start"]) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"id": e["id"], "parent": e["parent"], "op": e["op"], **e["args"]},
            }
            for e in self.events
        ]
        for op, s in self.adopted:
            events.append(
                {
                    "name": s["name"],
                    "ph": "X",
                    "ts": s["start_ms"] * 1e3,
                    "dur": s["dur_ms"] * 1e3,
                    "pid": s["pid"],
                    "tid": s["tid"],
                    "args": {"op": op, "parent": s["parent_id"], **s.get("tags", {})},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": stamp}


# --------------------------------------------------------------------------- #
# The call profile (P)
# --------------------------------------------------------------------------- #

#: Builtins that block rather than work.  Their time is waiting, not a
#: layer's busy self time: a worker thread parked on its queue would
#: otherwise outweigh everything else in the table.
_WAIT_MARKERS = (
    "'acquire' of '_thread.lock'",
    "'acquire' of '_thread.RLock'",
    "'acquire' of '_multiprocessing.SemLock'",
    "time.sleep",
    "select.select",
    "'poll' of 'select.poll'",
    "'poll' of 'select.epoll'",
    "posix.waitpid",
    "posix.read",
)

#: Stdlib machinery that runs in threads of its own, with no repro caller on
#: its stack, and the one layer that is its only user in this repo.
_ROOT_OWNERS = (
    (os.sep + "concurrent" + os.sep + "futures" + os.sep, "shard.coordinator"),
    (os.sep + "multiprocessing" + os.sep, "shard.coordinator"),
)

_HARNESS = "(harness)"
_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep
_PACKAGE = os.sep + os.path.join("src", "repro") + os.sep


def _function_key(code) -> tuple:
    if isinstance(code, str):  # a builtin
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _root_owner(key: tuple) -> str | None:
    return next((o for part, o in _ROOT_OWNERS if part in key[0]), None)


def _owner(key: tuple) -> str | None:
    """The layer a function belongs to; ``None`` for foreign code."""
    filename = key[0]
    at = filename.rfind(_PACKAGE)
    if at >= 0:
        module = filename[at + len(_PACKAGE) :]
        return os.path.splitext(module)[0].replace(os.sep, ".")
    if filename.startswith(_HERE):
        return _HARNESS
    return None


class Profiles:
    """One ``cProfile.Profile`` per thread: the driving thread's, switched on
    around each op, and one for every thread started after construction
    (service workers, process-pool plumbing), switched on at thread start."""

    def __init__(self) -> None:
        self.main = cProfile.Profile()
        self._all = [self.main]
        self._lock = threading.Lock()
        threading.setprofile(self._bootstrap)

    def _bootstrap(self, frame, event, arg) -> None:
        # First profile event in a new thread: swap this Python-level hook
        # for a C profiler owned by the thread.
        profile = cProfile.Profile()
        try:
            profile.enable()
        except ValueError:
            # CPython >= 3.12 allows one active profiler per interpreter:
            # only the driving thread is profiled there.
            sys.setprofile(None)
            return
        with self._lock:
            self._all.append(profile)

    def close(self) -> None:
        threading.setprofile(None)

    def snapshot(self) -> tuple[dict, dict]:
        """Totals over all threads so far: ``functions[key] = [calls, self_s,
        total_s]`` and ``edges[(caller, callee)] = [calls, self_s, total_s]``
        (the callee's time under that caller).  Only completed calls."""
        functions: dict = defaultdict(lambda: [0, 0.0, 0.0])
        edges: dict = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            profiles = list(self._all)
        for profile in profiles:
            for entry in profile.getstats():
                key = _function_key(entry.code)
                row = functions[key]
                row[0] += entry.callcount
                row[1] += entry.inlinetime
                row[2] += entry.totaltime
                for sub in entry.calls or ():
                    edge = edges[(key, _function_key(sub.code))]
                    edge[0] += sub.callcount
                    edge[1] += sub.inlinetime
                    edge[2] += sub.totaltime
        return dict(functions), dict(edges)


def _subtract(after: dict, before: dict) -> dict:
    out = {}
    for key, row in after.items():
        old = before.get(key)
        out[key] = row if old is None else [a - b for a, b in zip(row, old)]
    return out


class Attribution:
    """Busy self time per layer, from the profile of the traced window.

    A repro function's self time belongs to its module.  Foreign self time
    (NumPy, builtins, stdlib) is charged to the calling function's layer,
    following callers upward through foreign frames in proportion to the
    time spent under each; blocking builtins are waiting and charged to no
    layer.  What reaches a thread's root without meeting a repro or runner
    frame is unattributed, except for the stdlib plumbing in _ROOT_OWNERS.
    """

    def __init__(self, before: tuple, after: tuple) -> None:
        self.functions = _subtract(after[0], before[0])
        edges = _subtract(after[1], before[1])
        self.callers: dict = defaultdict(list)
        for (caller, callee), row in edges.items():
            if row[0] or row[1]:
                self.callers[callee].append((caller, row))
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.wait_s = 0.0
        self.unattributed_s = 0.0
        self._shares: dict = {}
        for key, (calls, self_s, _total) in self.functions.items():
            owner = _owner(key)
            if owner is not None:
                self.self_s[owner] += self_s
                self.calls[owner] += calls
            elif any(m in key[2] for m in _WAIT_MARKERS):
                self.wait_s += self_s
            else:
                self._charge_foreign(key, self_s)

    def _charge_foreign(self, key: tuple, self_s: float) -> None:
        under_callers = 0.0
        for caller, (_calls, edge_self, _total) in self.callers.get(key, ()):
            under_callers += edge_self
            for owner, share in self._owner_shares(caller, ()).items():
                self._add(owner, edge_self * share, key)
        # Time with no recorded caller: the function was a thread's root.
        self._add(None, max(0.0, self_s - under_callers), key)

    def _add(self, owner: str | None, seconds: float, key: tuple) -> None:
        owner = owner or _root_owner(key)
        if owner is None:
            self.unattributed_s += seconds
        else:
            self.self_s[owner] += seconds

    def _owner_shares(self, key: tuple, seen: tuple) -> dict:
        """``{layer or None: share}`` of who is responsible for time spent in
        ``key``: itself if it is repro or runner code, else its callers."""
        owner = _owner(key)
        if owner is not None:
            return {owner: 1.0}
        if key in self._shares:
            return self._shares[key]
        callers = [
            (c, row[2] or row[1] or 1e-12)
            for c, row in self.callers.get(key, ())
            if c != key and c not in seen
        ]
        root_owner = _root_owner(key)
        if not callers or len(seen) > 16:
            return {root_owner: 1.0}
        total = sum(w for _, w in callers)
        shares: dict = defaultdict(float)
        for caller, weight in callers:
            for o, share in self._owner_shares(caller, seen + (key,)).items():
                shares[o if o is not None else root_owner] += share * weight / total
        if not seen:
            self._shares[key] = shares
        return shares

    @property
    def layers_s(self) -> float:
        return sum(s for owner, s in self.self_s.items() if owner != _HARNESS)

    @property
    def unattributed_share(self) -> float:
        """Busy time inside ops that no layer accounts for (runner code
        between the timer and the program included)."""
        other = self.unattributed_s + self.self_s.get(_HARNESS, 0.0)
        return other / (other + self.layers_s)

    def cumulative(self, layer: str, function: str) -> tuple[int, float]:
        """Calls and cumulative seconds of one repro function."""
        calls, total = 0, 0.0
        for key, row in self.functions.items():
            if key[2] == function and _owner(key) == layer:
                calls += row[0]
                total += row[2]
        return calls, total


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #

#: MatchResult.metrics counters (M) summed over the traced ops.
COUNTERS = (
    "sim.events",
    "engine.intersections",
    "engine.reuse_hits",
    "queue.enqueued",
    "queue.dequeued",
    "queue.enqueue_failures",
    "queue.dequeue_failures",
    "warp.timeouts",
    "warp.steals",
    "shard.process_failures",
)
PEAK_COUNTER = "alloc.pages_in_use.peak"


def _span_seconds(events: list[dict]) -> float:
    return sum(e["end"] - e["start"] for e in events)


def timed_rows(workload, timed, spans, setup_factor: float) -> dict:
    """Rows from spans (S) and from times the program reports about itself
    (M), all taken in the *timed* window: spans on, profile off.  Call it
    before the profiled window adds its spans and responses.

    The profiler taxes interpreter-bound code about 2x and native code not
    at all, so phase times and shares read under it would be skewed.
    """
    ref = timed.wall_factor
    table = {
        "graph.datasets.load_ms": _span_seconds(spans.named("graph.datasets.load"))
        * setup_factor
        * 1e3
    }
    if workload.sharded:
        pickles = spans.named("graph.csr.pickle")
        table["graph.csr.pickle_ms"] = (
            _span_seconds(pickles) / len(pickles) * setup_factor * 1e3
        )
        table["graph.csr.pickle_bytes"] = sum(
            e["args"]["bytes"] for e in pickles
        ) / len(pickles)
        by_op: dict = defaultdict(lambda: {"dispatch": 0.0, "runs": []})
        for op, span in spans.adopted:
            if span["name"] == "shard.dispatch":
                by_op[op]["dispatch"] = span["dur_ms"]
            elif span["name"] == "shard.run":
                by_op[op]["runs"].append(span["dur_ms"])
        ops = list(by_op.values())
        table["shard.imbalance"] = median(
            [max(o["runs"]) * len(o["runs"]) / sum(o["runs"]) for o in ops]
        )
        table["shard.coordinator.dispatch_ms"] = median([o["dispatch"] for o in ops]) * ref
        table["shard.coordinator.run_ms_max"] = median([max(o["runs"]) for o in ops]) * ref
        table["shard.coordinator.run_ms_sum"] = median([sum(o["runs"]) for o in ops]) * ref
        table["shard.coordinator.overhead_ms"] = (
            median([o["dispatch"] - max(o["runs"]) for o in ops]) * ref
        )
        table["shard.child_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if workload.serving:
        per_op = ref * 1e3 / timed.attempted
        phase_s = {p: _span_seconds(spans.named(p)) for p in ("write", "cold", "warm")}
        for phase, seconds in phase_s.items():
            table[f"serve.phase_ms.{phase}"] = seconds * per_op
            table[f"serve.phase_share.{phase}"] = seconds / sum(phase_s.values())
        cold = workload.cold_responses
        table["serve.batcher.queue_ms"] = median([r.queue_ms for r in cold]) * ref
        table["serve.batcher.batch_size_mean"] = sum(r.batch_size for r in cold) / len(cold)
        table["serve.workers.run_ms"] = median([r.run_ms for r in cold]) * ref
        table["serve.workers.compile_ms"] = median([r.compile_ms for r in cold]) * ref
        table["serve.service.overhead_ms"] = (
            median([r.total_ms - r.queue_ms - r.compile_ms - r.run_ms for r in cold]) * ref
        )
        table["serve.service.warm_req_us"] = (
            phase_s["warm"] * ref * 1e6 / workload.warm_requests
        )
        cache_now = workload.service.cache_stats()
        for cache in ("result", "plan"):
            now, then = cache_now[f"{cache}_cache"], workload.cache_before[f"{cache}_cache"]
            hits = now["hits"] - then["hits"]
            lookups = hits + now["misses"] - then["misses"]
            table[f"serve.cache.{cache}_hit_ratio"] = hits / lookups if lookups else 0.0
        table["serve.service.shed"] = workload.service.snapshot()["counters"]["shed"]
        # Cold burst over the bare match() of its cells, cycle by cycle.
        table["serve.cold_overhead_ratio"] = median(
            [
                (e["end"] - e["start"]) * ref * 1e3
                / workload.bare_cold_ms[(e["args"]["graph"], e["args"]["state"])]
                for e in spans.named("cold")
            ]
        )
        deltas = workload.delta_responses
        table["dynamic.anchored_tasks"] = (
            sum(r.anchored_tasks for r in deltas) / timed.attempted
        )
        table["dynamic.incremental_ratio"] = sum(r.incremental for r in deltas) / len(deltas)
    return table


def inline_rows(timed, inline) -> dict:
    """shard-n2 against its unsharded twin, round for round."""
    return {
        "shard.speedup_vs_inline": inline.wall_s / timed.wall_s,
        "shard.cpu_ratio_vs_inline": timed.cpu_s / inline.cpu_s,
    }


def profiled_rows(workload, profiled, timed, attribution) -> dict:
    """Rows from the call profile (P) and the exact counters (M) of the
    *profiled* window: self time and call counts per layer, per op."""
    ops = profiled.attempted
    per_op = profiled.wall_factor * 1e3 / ops  # window seconds -> ref ms per op
    counters = profiled.counters
    self_s = attribution.self_s
    table = {"virtual_ms": profiled.virtual_ms}
    for layer in PROFILED_LAYERS:
        table[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * per_op
    for layer in ("core.warp_matcher", "core.intersect", "kernels.vectorized", "alloc.pagetable"):
        table[f"{layer}.calls"] = attribution.calls.get(layer, 0) / ops
    events = counters["sim.events"]
    table["core.warp_matcher.us_per_event"] = (
        self_s.get("core.warp_matcher", 0.0) * profiled.wall_factor * 1e6 / events
    )
    table["gpusim.scheduler.events"] = events / ops
    table["kernels.vectorized.share"] = (
        self_s.get("kernels.vectorized", 0.0) / profiled.wall_s_total
    )
    table["engine.intersections"] = counters["engine.intersections"] / ops
    table["engine.reuse_hits"] = counters["engine.reuse_hits"] / ops
    table["alloc.ouroboros.pages_peak"] = profiled.pages_peak
    table["taskqueue.ring.enqueued"] = counters["queue.enqueued"] / ops
    table["taskqueue.ring.dequeued"] = counters["queue.dequeued"] / ops
    table["taskqueue.ring.failed_ops"] = (
        counters["queue.enqueue_failures"] + counters["queue.dequeue_failures"]
    ) / ops
    table["warp.timeouts"] = counters["warp.timeouts"] / ops
    table["warp.steals"] = counters["warp.steals"] / ops
    cumulative = {
        "query.plan.compile_ms": ("query.plan", "compile_plan"),
    }
    if workload.sharded:
        cumulative["shard.planner.plan_ms"] = ("shard.planner", "plan")
        table["shard.process_failures"] = counters["shard.process_failures"]
    if workload.serving:
        cumulative["dynamic.incremental.count_delta_ms"] = (
            "dynamic.incremental", "count_delta",
        )
        cumulative["graph.csr.apply_delta_ms"] = ("graph.csr", "apply_delta")
    for name, (layer, function) in cumulative.items():
        calls, seconds = attribution.cumulative(layer, function)
        table[name] = seconds * per_op
        if name == "query.plan.compile_ms":
            table["query.plan.compiles"] = calls / ops
    table["trace.overhead_ratio"] = profiled.wall_s / timed.wall_s
    table["trace.unattributed_share"] = attribution.unattributed_share
    return table


def write_tsv(path: str, table: dict, stamp: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {json.dumps(stamp, sort_keys=True)}\n")
        fh.write("metric\tvalue\tunit\n")
        for name, unit, _better in LAYER_METRICS:
            if name in table:
                fh.write(f"{name}\t{table[name]!r}\t{unit}\n")

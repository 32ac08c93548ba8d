"""Shard conformance: multi-process execution must change *nothing*.

The exactness contract of :mod:`repro.shard` has two independent halves,
and this suite pins both over the shared seeded case space
(:mod:`tests.fuzz`, ``REPRO_DIFF_SEED``-sliced like every conformance
suite here):

* **Partition invariance** — the match count is identical to an
  unsharded single-process run for every shard count N (initial tasks
  root independent subtrees, so any partition enumerates every match
  exactly once).
* **Process invariance** — running a shard plan over a
  ``ProcessPoolExecutor`` is bit-equal, on *every* aggregate field
  (count, virtual cycles, busy/idle split, timeout/steal counters,
  queue and memory stats), to executing the identical shard plan
  sequentially inside one process.  Per-shard schedules are
  deterministic simulations, so process boundaries cannot perturb them.

For N=1 the two halves compose into full bit-identity with the plain
unsharded engine run.  For N>1 the per-shard schedules legitimately
differ from the unsharded schedule (each shard runs its own simulated
device), which is exactly why the process-vs-inline comparison — not a
vs-unsharded comparison — is the cycle-accounting conformance probe.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Observability, RunContext, TDFSConfig, match
from repro.core.engine import make_engine
from repro.errors import ReproError, UnsupportedError
from repro.graph.csr import CSRGraph
from repro.obs import TraceContext, ops_tracer
from repro.query.patterns import get_pattern
from repro.shard import (
    SHARD_STRATEGIES,
    ShardCoordinator,
    ShardPlanner,
    shutdown_workers,
)
from repro.shard import coordinator as shard_coordinator
from tests.fuzz import (
    CONFIG_VARIANTS,
    FAST,
    STEAL,
    TIGHT_QUEUE,
    assert_views_fold,
    case_labeled_graph,
    case_query,
    fuzz_cases,
)

#: Aggregate fields a process-mode run must reproduce bit-for-bit.
CONFORMANCE_FIELDS = (
    "count",
    "elapsed_cycles",
    "busy_cycles",
    "idle_cycles",
    "intersections",
    "reuse_hits",
    "timeouts",
    "steals",
    "overflowed",
)

SHARD_COUNTS = (1, 2, 3, 7)


def coordinator(
    config: TDFSConfig,
    num_shards=None,
    strategy=None,
    fault_shards=(),
    ctx=None,
    **kwargs,
) -> ShardCoordinator:
    """A coordinator over ``config`` with the shard count / strategy mapped
    onto the config and the killed shards onto the context (their homes)."""
    if num_shards is not None:
        config = config.replace(shards=num_shards)
    if strategy is not None:
        config = config.replace(shard_strategy=strategy)
    ctx = ctx or RunContext(shard_faults=tuple(sorted(fault_shards)))
    return ShardCoordinator(make_engine("tdfs", config, ctx), **kwargs)


def assert_bit_equal(a, b, label: str) -> None:
    for f in CONFORMANCE_FIELDS:
        assert getattr(a, f) == getattr(b, f), (
            f"{label}: diverge on {f}: {getattr(a, f)} != {getattr(b, f)}"
        )
    assert (a.queue.enqueued, a.queue.dequeued, a.queue.peak_tasks) == (
        b.queue.enqueued,
        b.queue.dequeued,
        b.queue.peak_tasks,
    ), f"{label}: queue stats diverge"
    assert a.memory.stack_bytes == b.memory.stack_bytes, label
    assert a.recovery.tasks_reexecuted == b.recovery.tasks_reexecuted, label


class TestCountInvariance:
    """Counts must survive any partition, for every config regime."""

    @pytest.mark.parametrize("variant", ["fast", "steal", "no-reuse"])
    def test_unlabeled_sweep(self, variant):
        config = CONFIG_VARIANTS[variant]
        for seed, graph, query in fuzz_cases(3, base=1100):
            base = match(graph, query, config=config)
            for n in SHARD_COUNTS:
                r = coordinator(config, num_shards=n, mode="inline").run(
                    graph, query
                )
                assert r.count == base.count, (
                    f"seed {seed} [{variant}] N={n}: "
                    f"{r.count} != {base.count}"
                )
                assert r.shards == n

    def test_labeled_sweep(self):
        for seed, graph, query in fuzz_cases(3, base=1600, num_labels=4):
            base = match(graph, query, config=CONFIG_VARIANTS["fast"])
            for n in SHARD_COUNTS:
                r = coordinator(
                    CONFIG_VARIANTS["fast"], num_shards=n, mode="inline"
                ).run(graph, query)
                assert r.count == base.count, f"seed {seed} N={n}"

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_strategy_invariance(self, strategy):
        for seed, graph, query in fuzz_cases(2, base=1150):
            base = match(graph, query, config=CONFIG_VARIANTS["fast"])
            r = coordinator(
                CONFIG_VARIANTS["fast"],
                num_shards=4,
                strategy=strategy,
                mode="inline",
            ).run(graph, query)
            assert r.count == base.count, f"seed {seed} [{strategy}]"

    def test_config_shards_path_matches(self):
        """``TDFSConfig(shards=N)`` routes through the coordinator and
        preserves the count end to end (the user-facing wiring)."""
        for seed, graph, query in fuzz_cases(2, base=1180):
            base = match(graph, query, config=TDFSConfig(num_warps=8))
            r = match(
                graph, query, config=TDFSConfig(num_warps=8, shards=3)
            )
            assert r.count == base.count and r.shards == 3


class TestProcessInvariance:
    """Pool-dispatched runs are bit-equal to inline runs of the same plan."""

    @pytest.mark.parametrize(
        "variant", ["fast", "steal", "no-reuse", "scalar-kernel"]
    )
    def test_process_equals_inline(self, variant):
        config = CONFIG_VARIANTS[variant]
        seed, graph, query = next(iter(fuzz_cases(1, base=1200)))
        inline = coordinator(config, num_shards=3, mode="inline").run(
            graph, query
        )
        process = coordinator(config, num_shards=3, mode="process").run(
            graph, query
        )
        assert_bit_equal(inline, process, f"seed {seed} [{variant}] N=3")

    def test_process_equals_inline_labeled(self):
        seed, graph, query = next(
            iter(fuzz_cases(1, base=1650, num_labels=4))
        )
        cfg = CONFIG_VARIANTS["fast"]
        inline = coordinator(cfg, num_shards=7, mode="inline").run(graph, query)
        process = coordinator(cfg, num_shards=7, mode="process").run(
            graph, query
        )
        assert_bit_equal(inline, process, f"seed {seed} labeled N=7")

    def test_half_steal_process_equals_inline(self):
        seed, graph, query = next(iter(fuzz_cases(1, base=1250)))
        cfg = CONFIG_VARIANTS["half-steal"]
        inline = coordinator(cfg, num_shards=2, mode="inline").run(graph, query)
        process = coordinator(cfg, num_shards=2, mode="process").run(
            graph, query
        )
        assert_bit_equal(inline, process, f"seed {seed} half-steal N=2")


class TestSingleShardIdentity:
    """N=1 sharded composes both halves: full bit-identity with unsharded."""

    def test_n1_is_bit_identical_to_unsharded(self):
        for seed, graph, query in fuzz_cases(2, base=1300):
            base = match(graph, query, config=CONFIG_VARIANTS["fast"])
            for mode in ("inline", "process"):
                r = coordinator(
                    CONFIG_VARIANTS["fast"], num_shards=1, mode=mode
                ).run(graph, query)
                assert_bit_equal(base, r, f"seed {seed} N=1 {mode}")

    def test_steal_counters_identical_at_n1(self):
        """The ISSUE's sharpest probe: timeout/steal counters — which move
        with a single mischarged cycle — survive the shard path at N=1."""
        seed, graph, query = next(iter(fuzz_cases(1, base=1901)))
        base = match(graph, query, config=CONFIG_VARIANTS["steal"])
        r = coordinator(
            CONFIG_VARIANTS["steal"], num_shards=1, mode="process"
        ).run(graph, query)
        assert (r.timeouts, r.steals) == (base.timeouts, base.steals)
        assert r.elapsed_cycles == base.elapsed_cycles


class TestOneSetOfBooks:
    def test_every_view_is_the_fold_of_the_shards(self, straggler_graph):
        """``shards=2`` merges through the same routine as devices: every
        typed view of the merged result is the fold of the per-shard runs
        (the hand-written merge lost the queue failures and five more)."""
        config = TIGHT_QUEUE.replace(shards=2)
        coord = coordinator(config, mode="inline")
        plan = coord.engine.compile(get_pattern("P3"))
        merged = coord.run(straggler_graph, plan)
        single = make_engine("tdfs", coord.child_config)
        parts = [  # a shard fetches its share as one edge array (_run_shard)
            single._run_single(
                straggler_graph,
                plan,
                [(np.concatenate([rows for rows, _ in groups]), 2)],
                f"shard{i}",
            )
            for i, groups in enumerate(coord.planner.plan(straggler_graph).shards)
        ]
        assert merged.queue.enqueue_failures > 0 < merged.queue.dequeue_failures
        assert_views_fold(merged, parts)
        assert merged.metrics["shard.process_failures"] == 0


class TestShardFaultRecovery:
    """A dead shard process is re-executed, never lost or double-counted."""

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_killed_shard_recovers_exact_count(self, mode):
        seed, graph, query = next(iter(fuzz_cases(1, base=1400)))
        base = match(graph, query, config=CONFIG_VARIANTS["fast"])
        r = coordinator(
            CONFIG_VARIANTS["fast"],
            num_shards=3,
            mode=mode,
            fault_shards=frozenset({1}),
        ).run(graph, query)
        assert r.count == base.count
        assert r.recovery.devices_failed_over == 1
        assert r.recovery.faults_survived == 1
        assert r.recovery.tasks_reexecuted > 0
        assert r.metrics["shard.process_failures"] == 1

    def test_context_crosses_the_process_boundary_in_one_place(self):
        """A context full of things that cannot (a registry with locks, a
        lambda hook) or must not (the kill list) reach a shard child: the
        process run — through the engine, as a caller reaches it — returns
        the inline count and the shard-level story lands in the caller's
        registry."""
        seed, graph, query = next(iter(fuzz_cases(1, base=1400)))
        config = CONFIG_VARIANTS["fast"].replace(shards=2)
        obs = Observability()
        ctx = RunContext(
            obs=obs,
            checkpoint_every_events=10,
            checkpoint_hook=lambda job, now: None,
            shard_faults=(0,),
        )
        inline = coordinator(config, mode="inline", ctx=ctx).run(graph, query)
        assert obs.flat() == {}  # only a finished top-level run is folded
        process = make_engine("tdfs", config, ctx).run(graph, query)
        published = obs.flat()
        assert_bit_equal(inline, process, "ctx-boundary")
        assert process.count == match(graph, query, config=config).count
        assert published["shard.process_failures"] == 1
        assert published["shard.rows_reexecuted"] > 0
        assert published["engine.matches"] == process.count

    def test_all_shards_killed_still_exact(self):
        seed, graph, query = next(iter(fuzz_cases(1, base=1450)))
        base = match(graph, query, config=CONFIG_VARIANTS["fast"])
        r = coordinator(
            CONFIG_VARIANTS["fast"],
            num_shards=2,
            mode="inline",
            fault_shards=frozenset({0, 1}),
        ).run(graph, query)
        assert r.count == base.count
        assert r.recovery.devices_failed_over == 2


def traced(config: TDFSConfig) -> TDFSConfig:
    """``config`` with a trace identity, so the run returns its ``shard.run``
    spans — the only place a worker's pid (and CPU, and RSS) is recorded."""
    return config.replace(trace_context=TraceContext.mint(test="standing-workers"))


def shard_runs(result) -> list[dict]:
    return [s for s in result.op_spans or () if s["name"] == "shard.run"]


def worker_pids(result) -> set[int]:
    return {span["pid"] for span in shard_runs(result)}


class _StallsAwayFromHome(CSRGraph):
    """Behaves normally in the process that made it; in any other, its first
    use inside a run (the device allocating it) writes that process's pid to
    ``marker`` and stalls — a worker provably *inside* a job, for a test to
    kill.  The coordinator's re-run happens at home, so it completes."""

    def __getstate__(self) -> dict:
        return {**super().__getstate__(), "home": self.home, "marker": self.marker}

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self.home, self.marker = state["home"], state["marker"]

    def memory_bytes(self) -> int:
        if os.getpid() != self.home:
            Path(self.marker).write_text(str(os.getpid()))
            time.sleep(120)
        return super().memory_bytes()


def stalling(graph: CSRGraph, marker: Path) -> CSRGraph:
    out = _StallsAwayFromHome(
        graph.row_ptr, graph.col_idx, graph.labels, graph.name, validate=False
    )
    out.home, out.marker = os.getpid(), str(marker)
    return out


def pid_in(marker: Path, timeout: float = 60.0) -> int:
    """The pid a stalled worker wrote into ``marker``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if marker.exists() and marker.read_text().isdigit():
            return int(marker.read_text())
        time.sleep(0.01)
    raise AssertionError(f"no worker entered its job within {timeout} s")


def in_thread(fn) -> tuple[threading.Thread, dict]:
    """Start ``fn`` on a thread; its return value lands in ``out["result"]``."""
    out: dict = {}
    thread = threading.Thread(target=lambda: out.update(result=fn()))
    thread.start()
    return thread, out


def finished(thread: threading.Thread, out: dict, timeout: float = 120.0):
    thread.join(timeout)
    assert not thread.is_alive(), "sharded run did not come back"
    return out["result"]


def _process_gone(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"  # dead, not yet reaped


def _sharded_count_into(queue, graph, config) -> None:
    queue.put(match(graph, "P1", config=config).count)
    shutdown_workers()  # a multiprocessing child skips atexit


class TestStandingWorkers:
    """One pool per process: launched once, fed jobs, and no job can tell."""

    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        shutdown_workers()
        yield
        shutdown_workers()

    def test_twenty_runs_use_one_pool_of_workers(self, small_plc):
        config = traced(FAST.replace(shards=2))
        pids: set[int] = set()
        for _ in range(20):
            result = match(small_plc, "P1", config=config)
            assert result.metrics["shard.process_failures"] == 0
            pids |= worker_pids(result)
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= shard_coordinator.cpu_budget()  # was 40
        # Still standing, one CPU of this process's budget each.
        cpus = [os.sched_getaffinity(pid) for pid in pids]
        assert all(len(c) == 1 and c <= os.sched_getaffinity(0) for c in cpus)
        assert len(set().union(*cpus)) == len(pids)

    def test_service_threads_share_the_pool(self, small_plc):
        from repro.serve import MatchRequest, MatchService, ServeConfig

        config = ServeConfig(
            workers=2,
            match_config=FAST.replace(shards=2),
            enable_result_cache=False,
        )
        with MatchService(config) as service:
            service.register_graph("g", small_plc)
            ops_tracer().clear()  # the ring is process-wide
            tickets = [
                service.submit(MatchRequest(graph_id="g", query=q))
                for q in ("P1", "P2", "P3") * 4
            ]
            assert all(t.result(timeout=120.0).ok for t in tickets)
            runs = [s for s in ops_tracer().spans() if s["name"] == "shard.run"]
        assert len(runs) == 2 * len(tickets)
        assert len({s["pid"] for s in runs}) <= shard_coordinator.cpu_budget()
        # stop() does not own the workers: they outlive the service.
        again = match(small_plc, "P1", config=traced(config.match_config))
        assert worker_pids(again) <= {s["pid"] for s in runs}

    def test_max_workers_grows_the_pool_and_bounds_the_request(self, small_plc):
        budget = shard_coordinator.cpu_budget()
        config = traced(FAST.replace(shards=4))
        inline = coordinator(config, mode="inline").run(small_plc, get_pattern("P1"))
        wide = coordinator(config, max_workers=budget + 1)
        first = wide.run(small_plc, get_pattern("P1"))
        one_at_a_time = coordinator(config, max_workers=1).run(small_plc, get_pattern("P1"))
        assert_bit_equal(inline, first, "max_workers > budget")
        assert_bit_equal(inline, one_at_a_time, "max_workers=1")
        # The larger pool stays; with one shard out at a time none overlap.
        spans = sorted(shard_runs(one_at_a_time), key=lambda s: s["start_ms"])
        for a, b in zip(spans, spans[1:]):
            assert a["start_ms"] + a["dur_ms"] <= b["start_ms"] + 1e-3

    def test_sigkilled_worker_mid_job_costs_a_rerun_never_a_count(
        self, small_plc, tmp_path
    ):
        config = FAST.replace(shards=2)
        # What losing both shards costs, from the injected-fault axis.
        want = coordinator(config, mode="inline", fault_shards={0, 1}).run(
            small_plc, get_pattern("P1")
        )
        assert want.count == match(small_plc, "P1", config=FAST).count
        marker = tmp_path / "in-job"
        thread, out = in_thread(
            lambda: match(stalling(small_plc, marker), "P1", config=config)
        )
        killed = pid_in(marker)
        os.kill(killed, signal.SIGKILL)
        result = finished(thread, out)
        assert_bit_equal(want, result, "real kill vs injected kill")
        assert result.metrics["shard.process_failures"] >= 1
        assert result.recovery.devices_failed_over >= 1
        # The broken pool is gone: the next request runs on a fresh one.
        after = match(small_plc, "P1", config=traced(config))
        assert after.count == want.count
        assert after.metrics["shard.process_failures"] == 0
        assert worker_pids(after).isdisjoint({killed, os.getpid()})

    def test_one_threads_dead_worker_costs_the_other_a_rerun(
        self, small_plc, small_er, tmp_path
    ):
        """Two requests in flight on the shared pool; the worker running
        the first is killed.  The pool breaks under both, both re-run their
        shard at home, both counts are exact."""
        jobs = {"a": (small_plc, get_pattern("P1")), "b": (small_er, get_pattern("P2"))}
        want = {
            k: coordinator(FAST, num_shards=1, mode="inline", fault_shards={0}).run(g, q)
            for k, (g, q) in jobs.items()
        }
        running = {
            k: in_thread(
                lambda g=g, q=q, k=k: coordinator(
                    FAST, num_shards=1, max_workers=2
                ).run(stalling(g, tmp_path / k), q)
            )
            for k, (g, q) in jobs.items()
        }
        pids = {k: pid_in(tmp_path / k) for k in jobs}
        assert pids["a"] != pids["b"] and os.getpid() not in pids.values()
        os.kill(pids["a"], signal.SIGKILL)
        for k, (thread, out) in running.items():
            result = finished(thread, out)
            assert_bit_equal(want[k], result, f"request {k}")
            assert result.metrics["shard.process_failures"] == 1

    def test_reuse_is_stateless(self, small_plc, monkeypatch):
        """The same job before and after a different graph, plan and config
        on the *same* process: byte-identical, and equal to inline."""
        monkeypatch.setattr(shard_coordinator, "cpu_budget", lambda: 1)
        job = (traced(STEAL.replace(shards=2)), small_plc, get_pattern("P3"))
        other = (
            traced(CONFIG_VARIANTS["half-steal"].replace(shards=3)),
            case_labeled_graph(7, num_labels=3),
            case_query(7, num_labels=3),
        )
        runs = [
            coordinator(cfg).run(graph, query) for cfg, graph, query in (job, other, job)
        ]
        assert len(set().union(*map(worker_pids, runs))) == 1
        inline = coordinator(job[0], mode="inline").run(job[1], job[2])
        for label, run in (("first", runs[0]), ("after another job", runs[2])):
            assert_bit_equal(inline, run, label)
            assert run.metrics == inline.metrics, label
        assert runs[1].count == match(other[1], other[2], config=FAST).count

    def test_worker_rss_is_flat_over_200_jobs(self, k6, monkeypatch):
        monkeypatch.setattr(shard_coordinator, "cpu_budget", lambda: 1)
        coord = coordinator(traced(FAST.replace(shards=2)))
        rss = []
        for _ in range(100):  # two jobs each, one worker
            rss.append(max(s["tags"]["rss_mb"] for s in shard_runs(coord.run(k6, get_pattern("P2")))))
        assert rss[-1] <= 1.10 * rss[9], (rss[9], rss[-1])

    def test_spawned_workers_round_trip_and_are_reused(self, small_plc, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        config = traced(FAST.replace(shards=2))
        inline = coordinator(config, mode="inline").run(small_plc, get_pattern("P1"))
        first = coordinator(config).run(small_plc, get_pattern("P1"))
        second = coordinator(config).run(small_plc, get_pattern("P1"))
        for run in (first, second):
            assert_bit_equal(inline, run, "spawn")
            assert run.metrics["shard.process_failures"] == 0
        pool = worker_pids(first) | worker_pids(second)
        assert os.getpid() not in pool
        assert len(pool) <= shard_coordinator.cpu_budget()
        # Still standing, and started the spawn way (not a fork of this one).
        cmdline = Path(f"/proc/{min(pool)}/cmdline").read_bytes()
        assert b"multiprocessing.spawn" in cmdline

    def test_shard_run_span_carries_the_workers_own_readings(self, small_plc):
        result = match(small_plc, "P3", config=traced(FAST.replace(shards=2)))
        for span in shard_runs(result):
            tags = span["tags"]
            assert {"shard", "rows", "count", "cpu_ms", "rss_mb"} <= set(tags)
            assert 0 < tags["cpu_ms"] <= span["dur_ms"] + 1.0
            assert tags["rss_mb"] > 1.0
        assert sum(s["tags"]["count"] for s in shard_runs(result)) == result.count

    def test_a_forked_child_builds_its_own_pool(self, small_plc):
        config = FAST.replace(shards=2)
        want = match(small_plc, "P1", config=config).count  # the pool is up
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        child = ctx.Process(target=_sharded_count_into, args=(queue, small_plc, config))
        child.start()
        child.join(60.0)
        if child.is_alive():  # it submitted to a pool whose threads it lacks
            child.kill()
            pytest.fail("a forked child hung on its parent's worker pool")
        assert child.exitcode == 0 and queue.get() == want

    _EXIT_SCRIPT = """
import os, signal, sys, time
from repro import TDFSConfig, match
from repro.graph.generators import power_law_cluster
from repro.obs import TraceContext
from repro.shard import shutdown_workers

graph = power_law_cluster(200, 3, p_triangle=0.6, seed=42)
config = TDFSConfig(num_warps=8, shards=2, trace_context=TraceContext.mint())

def run():
    result = match(graph, "P1", config=config)
    pids = {s["pid"] for s in result.op_spans if s["name"] == "shard.run"}
    print(result.count, sorted(pids - {os.getpid()}), flush=True)
    return pids

os.kill(min(run()), signal.SIGKILL)   # an idle worker dies: the pool is broken
time.sleep(0.3)
run()                                 # ... and replaced
shutdown_workers()
run()                                 # ... and comes back after a drain
if sys.argv[1:] == ["die"]:
    os.kill(os.getpid(), signal.SIGKILL)
"""

    def _exit_run(self, tmp_path: Path, *argv: str) -> tuple[int, list, str]:
        """Run the script; ``(exit code, [(count, worker pids)], stderr)``.
        Output goes to files: a worker that outlived the script would hold a
        pipe open and stall the read instead of failing the assertion."""
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-c", self._EXIT_SCRIPT, *argv],
                stdout=out, stderr=err, env=env, timeout=120,
            )
        runs = []
        for line in (tmp_path / "out").read_text().splitlines():
            count, pids = line.split(" ", 1)
            runs.append((int(count), set(map(int, pids.strip("[]").split(", ")))))
        return proc.returncode, runs, (tmp_path / "err").read_text()

    def test_interpreter_exit_is_silent(self, tmp_path):
        """Also after a broken pool and after a drain followed by another
        sharded run: nothing on stderr, exit 0, no worker left behind."""
        code, runs, stderr = self._exit_run(tmp_path)
        assert (code, stderr) == (0, "")
        assert len(runs) == 3 and len({count for count, _ in runs}) == 1
        pools = [pids for _, pids in runs]
        assert pools[0].isdisjoint(pools[1]) and pools[1].isdisjoint(pools[2])
        assert all(_process_gone(pid) for pool in pools for pid in pool)

    def test_workers_do_not_outlive_a_killed_parent(self, tmp_path):
        code, runs, _ = self._exit_run(tmp_path, "die")
        assert code == -signal.SIGKILL
        last = runs[-1][1]
        deadline = time.monotonic() + 30.0
        while not all(map(_process_gone, last)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_process_gone, last)), f"orphaned shard workers {last}"


class TestShardPlanner:
    """Partition properties of both strategies."""

    def _rows(self, plan):
        out = []
        for shard in plan.shards:
            for rows, width in shard:
                assert width == 2
                out.extend(map(tuple, rows.tolist()))
        return out

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_partition_is_exact(self, strategy, small_plc):
        edges = small_plc.directed_edge_array()
        plan = ShardPlanner(4, strategy).plan(small_plc)
        got = self._rows(plan)
        assert sorted(got) == sorted(map(tuple, edges.tolist()))
        assert len(got) == len(edges)  # disjoint: no row duplicated

    def test_hash_is_deterministic(self, small_plc):
        a = ShardPlanner(5, "hash").plan(small_plc)
        b = ShardPlanner(5, "hash").plan(small_plc)
        assert a.rows_per_shard() == b.rows_per_shard()
        assert [
            [rows.tolist() for rows, _ in s] for s in a.shards
        ] == [[rows.tolist() for rows, _ in s] for s in b.shards]

    def test_degree_balances_better_than_worst_case(self, skewed_graph):
        plan = ShardPlanner(4, "degree", split_factor=0).plan(skewed_graph)
        # Greedy heaviest-first is within 2x of perfect on any input.
        assert plan.imbalance() <= 2.0

    def test_presplit_engages_on_skew(self, skewed_graph):
        # One hub vertex concentrates weight; with a tight threshold the
        # oversized shard must be re-split through the reshard path.
        plan = ShardPlanner(4, "hash", split_factor=1.01).plan(skewed_graph)
        assert plan.presplit_shards >= 0  # well-formed either way
        assert sum(plan.rows_per_shard()) == len(
            skewed_graph.directed_edge_array()
        )

    def test_more_shards_than_rows(self, triangle):
        plan = ShardPlanner(7, "hash").plan(triangle)
        assert plan.total_rows == len(triangle.directed_edge_array())
        # Some shards are legitimately empty; coordinator runs them as
        # no-op device simulations.
        assert len(plan.shards) == 7

    def test_describe_mentions_strategy(self, small_plc):
        text = ShardPlanner(3, "degree").plan(small_plc).describe()
        assert "3 shards" in text and "degree" in text

    def test_planner_validation(self):
        with pytest.raises(ReproError, match="num_shards"):
            ShardPlanner(0)
        with pytest.raises(ReproError, match="unknown shard strategy"):
            ShardPlanner(2, "random")
        with pytest.raises(ReproError, match="split_factor"):
            ShardPlanner(2, split_factor=-1.0)


class TestConfigAndGates:
    def test_config_validation(self):
        with pytest.raises(ReproError, match="shards must be >= 1"):
            TDFSConfig(shards=0)
        with pytest.raises(ReproError, match="cannot both exceed 1"):
            TDFSConfig(shards=2, num_gpus=2)
        with pytest.raises(ReproError, match="unknown shard strategy"):
            TDFSConfig(shard_strategy="modulo")

    def test_host_filter_engine_rejected(self):
        with pytest.raises(UnsupportedError, match="cannot be sharded"):
            ShardCoordinator(
                make_engine("stmatch", TDFSConfig(num_warps=8))
            )

    def test_bad_mode_rejected(self):
        with pytest.raises(ReproError, match="shard mode"):
            ShardCoordinator(
                make_engine("tdfs", TDFSConfig(num_warps=8)), mode="thread"
            )


class TestServeSharding:
    """Serving wiring: shard-aware cache keys + version-bump invalidation."""

    def test_config_fingerprint_includes_shard_fields(self):
        from repro.serve import config_fingerprint

        base = TDFSConfig(num_warps=8)
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(shards=2)
        )
        assert config_fingerprint(base.replace(shards=2)) != config_fingerprint(
            base.replace(shards=2, shard_strategy="degree")
        )

    def test_serve_config_applies_shards(self):
        """``match_config.shards`` is the one home: no second knob on
        ``ServeConfig`` can contradict it."""
        from repro.serve import ServeConfig

        cfg = ServeConfig(
            workers=1, match_config=TDFSConfig(num_warps=8, shards=2)
        )
        assert cfg.match_config.shards == 2
        with pytest.raises(TypeError):
            ServeConfig(shards=2)

    def test_sharded_service_counts_and_cache(self, small_plc):
        from repro.serve import MatchRequest, MatchService, ServeConfig

        expected = match(
            small_plc, "P1", config=TDFSConfig(num_warps=8)
        ).count
        with MatchService(
            ServeConfig(
                workers=1, match_config=TDFSConfig(num_warps=8, shards=2)
            )
        ) as svc:
            svc.register_graph("g", small_plc)
            first = svc.query("g", "P1", timeout=120.0)
            assert first.ok and first.count == expected
            assert first.result.shards == 2
            repeat = svc.query("g", "P1", timeout=120.0)
            assert repeat.result_cache_hit and repeat.count == expected
            # A graph update bumps the version: the old sharded result
            # must not be served against the new graph.
            svc.update_graph("g", small_plc)
            after = svc.query("g", "P1", timeout=120.0)
            assert not after.result_cache_hit
            assert after.count == expected


class TestCLISharding:
    def test_run_shards_smoke(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "run",
                "--dataset", "dblp",
                "--pattern", "P1",
                "--shards", "2",
                "--warps", "8",
                "-v",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "shards" in out and "matches" in out

"""Source contracts: where in ``src/repro`` a thing may happen, by AST walk,
and which options the four configs expose.

Run alone with ``PYTHONPATH=src python -m pytest -q tests/test_contracts.py``
(the tier-1 CI job also runs it by name).  Each check names the function
scopes (``Class.method`` or ``function``) that make a given call; a second
site fails here by name.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import pickle
from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro import RunContext, TDFSConfig
from repro.gpusim.costmodel import CostModel
from repro.obs import OutcomeWindow
from repro.obs.registry import Histogram, TimeRing
from repro.serve import ServeConfig, SupervisorConfig
from repro.serve.resilience import Supervisor

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
BENCHMARKS = ROOT / "benchmarks"
EXAMPLES = ROOT / "examples"


@functools.cache
def _trees() -> tuple:
    """``(path, tree)`` of every module in ``src/repro``, parsed once per
    session; the checks only read the trees."""
    return tuple(
        (path, ast.parse(path.read_text())) for path in sorted(SRC.rglob("*.py"))
    )


@functools.cache
def _nodes() -> tuple:
    """``(node, path, scope)`` of every AST node in ``src/repro``, walked
    once per session; ``scope`` is the tuple of enclosing class and
    function names."""
    nodes = []

    def walk(node, scope, path):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        nodes.append((node, path, scope))
        for child in ast.iter_child_nodes(node):
            walk(child, scope, path)

    for path, tree in _trees():
        walk(tree, (), path)
    return tuple(nodes)


def _visit(visit) -> None:
    """Call ``visit(node, path, scope)`` on every AST node in ``src/repro``."""
    for node, path, scope in _nodes():
        visit(node, path, scope)


def _sites(predicate) -> set[tuple[str, str]]:
    """``(module path relative to src/repro, scope)`` of every AST node
    for which ``predicate(node, path)`` holds."""
    found: set[tuple[str, str]] = set()

    def visit(node, path, scope):
        if predicate(node, path):
            found.add((path.relative_to(SRC).as_posix(), ".".join(scope)))

    _visit(visit)
    return found


def _method_call(names):
    """Predicate: a call of an attribute named in ``names``."""
    return lambda node, _path: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    )


def _called(name: str):
    """Predicate: a call of ``name``, as a bare name or an attribute."""
    return lambda node, _path: isinstance(node, ast.Call) and (
        getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    )


def _scopes(sites) -> set[str]:
    return {scope for _, scope in sites}


class TestServeContracts:
    """One place a request ends, one place its keys are derived."""

    def test_one_place_settles_a_ticket(self):
        # claim_settle / _complete / _fail: called by MatchService._settle only.
        sites = _sites(_method_call({"claim_settle", "_complete", "_fail"}))
        assert _scopes(sites) == {"MatchService._settle"}, sites

    def test_one_place_closes_the_books(self):
        # ServeMetrics.settle is called by MatchService._settle only.
        sites = _sites(_method_call({"settle"}))
        assert _scopes(sites) == {"MatchService._settle"}, sites

    def test_books_move_only_in_metrics_settle(self):
        # A request's books (result_cache_hits, latency_ms) are moved only by
        # ServeMetrics.settle, so a forked hit path fails here by name.
        books = ("result_cache_hits", "latency_ms")
        updates = _method_call({"inc", "_inc", "incr", "observe", "_observe"})
        sites = _sites(
            lambda node, path: updates(node, path)
            and any(name in ast.unparse(node) for name in books)
        )
        assert _scopes(sites) == {"ServeMetrics.settle"}, sites

    def test_one_place_derives_cache_keys(self):
        # serve.cache's result_key / plan_key functions: used in serve/ only
        # by _PreparedRequest.
        sites = _sites(
            lambda node, path: isinstance(node, ast.Name)
            and node.id in {"result_key", "plan_key"}
            and path.parent.name == "serve"
            and path.name != "cache.py"
        )
        assert _scopes(sites) == {
            "_PreparedRequest.result_key", "_PreparedRequest.plan_key"
        }, sites


class TestSpanRecordContract:
    """A host span a tracer closes is kept as one compact record form."""

    def test_record_is_built_at_one_site(self):
        defs = _sites(
            lambda node, _p: isinstance(node, ast.FunctionDef)
            and node.name == "_host_record"
        )
        assert defs == {("obs/tracer.py", "_host_record")}, defs
        builds = _sites(_called("_host_record"))
        assert builds == {
            ("obs/tracer.py", "make_span"),
            ("obs/tracer.py", "_OpenSpan.to_span"),
            ("obs/tracer.py", "_OpenSpan.close"),
            ("obs/tracer.py", "Tracer.record_root"),
        }, builds
        # Spans are counted and retained through one method, reached from a
        # recorded dict, a closing span or a root recorded closed (a hit).
        tallies = _sites(_called("_tally"))
        assert tallies == {
            ("obs/tracer.py", "Tracer._record"),
            ("obs/tracer.py", "_OpenSpan.close"),
            ("obs/tracer.py", "Tracer.record_root"),
        }, tallies
        # The hit is the one caller of the closed-root record.
        assert _sites(_called("record_root")) == {
            ("serve/service.py", "MatchService._settle")
        }
        # Nothing outside the Tracer touches its ring.
        ring = _sites(
            lambda node, _p: isinstance(node, ast.Attribute) and node.attr == "_spans"
        )
        assert {path for path, _ in ring} == {"obs/tracer.py"}, ring
        assert all(scope.startswith("Tracer.") for _, scope in ring), ring


class TestOneRingContract:
    """Every windowed series in ``repro.obs`` keeps its samples in one
    :class:`~repro.obs.registry.TimeRing`."""

    def test_windows_are_rings(self):
        builds = _sites(_called("TimeRing"))
        assert builds == {
            ("obs/registry.py", "Histogram.__init__"),
            ("obs/slo.py", "OutcomeWindow.__init__"),
        }, builds
        for hist in (Histogram(), Histogram(max_age_s=60.0)):
            assert isinstance(hist._window, TimeRing)
        assert isinstance(OutcomeWindow()._ring, TimeRing)

    def test_no_deque_and_no_prune_loop(self):
        named_deque = _sites(
            lambda node, path: path.relative_to(SRC).as_posix()
            in ("obs/slo.py", "obs/registry.py")
            and "deque" in {getattr(node, key, None) for key in ("id", "attr", "name")}
        )
        assert not named_deque, named_deque
        prunes = _sites(
            lambda node, _p: isinstance(node, ast.FunctionDef) and node.name == "_prune"
        )
        assert not _scopes(prunes) & {"OutcomeWindow._prune", "Histogram._prune"}


#: Every option of the four configs, in declaration order: adding or
#: removing one is a diff here.
OPTIONS = """
TDFSConfig.num_warps
TDFSConfig.chunk_size
TDFSConfig.strategy
TDFSConfig.tau_cycles
TDFSConfig.queue_capacity_tasks
TDFSConfig.stack_mode
TDFSConfig.page_table_size
TDFSConfig.arena_pages
TDFSConfig.release_pages
TDFSConfig.enable_symmetry
TDFSConfig.enable_reuse
TDFSConfig.enable_edge_filter
TDFSConfig.kernel_backend
TDFSConfig.device_memory
TDFSConfig.num_gpus
TDFSConfig.cost
TDFSConfig.shards
TDFSConfig.planner
TDFSConfig.trace_context
RunContext.obs
RunContext.fault_plan
RunContext.retry
RunContext.shard_faults
RunContext.checkpoint_every_events
RunContext.checkpoint_hook
ServeConfig.workers
ServeConfig.max_queue
ServeConfig.enable_plan_cache
ServeConfig.enable_result_cache
ServeConfig.match_config
ServeConfig.supervisor
ServeConfig.worker_faults
ServeConfig.slos
ServeConfig.dump_on_error
ServeConfig.shard_faults
SupervisorConfig.watchdog_interval_s
SupervisorConfig.heartbeat_timeout_s
SupervisorConfig.checkpoint_every_events
SupervisorConfig.seed
""".split()

#: Settings that became constants; none may come back in ``src/``,
#: ``benchmarks/`` or ``examples/``.  A bare name may not appear there at
#: all.  ``Config.field`` names a setting whose name lives on at its new
#: owner (``OuroborosAllocator(page_bytes=...)``,
#: ``STMatchJob.stmatch_removal``): it may not be passed to ``Config`` or
#: to a ``replace``, nor read off a ``config`` / ``cfg``.
RETIRED = (
    "shard_strategy",
    "SHARD_STRATEGIES",
    "_assign_degree",
    "split_factor",
    "include_greedy",
    "max_fault_deliveries",
    "max_batch",
    "IncrementalConfig",
    "autostart",
    "breaker_threshold",
    "breaker_open_s",
    "breaker_jitter",
    "max_workers",
    "min_batch",
    "batch_window_ms",
    "window_ms",
    # A baseline's constants live on its engine (STMATCH_FIXED_CAPACITY,
    # STMatchJob, ChildKernelJob.fanout); the page size and the redelivery
    # budget on their modules (ouroboros.DEFAULT_PAGE_BYTES,
    # resilience.MAX_REDELIVERIES).  An ARRAY_FIXED level always truncates.
    "TDFSConfig.page_bytes",
    "fixed_capacity",
    "truncate_on_overflow",
    "TDFSConfig.stmatch_removal",
    "new_kernel_fanout",
    "max_redeliveries",
)

#: Second books and telemetry state nothing read, retired: each copied a
#: serve counter moved at the same point, or was written and never read.
#: ``Owner.member`` may not be defined on ``Owner`` again (a method, a
#: parameter of its methods, a ``self.`` attribute or a class-body field);
#: a bare name may not appear in ``src/`` at all.
RETIRED_BOOKS = (
    "CircuitBreaker.total_opens",
    "CircuitBreaker.total_rejections",
    "Quarantine.total_poisoned",
    "Quarantine.total_rejections",
    "Supervisor.restarts",
    "Supervisor.last_error",
    "breaker_rejections",
    "Histogram.buckets",
    "Histogram.bucket_counts",
    "Registry.buckets",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_MS",
    "BATCH_BUCKETS",
    "PLAN_ERROR_BUCKETS",
    "Histogram.total",
    "Counter.help",
    "Gauge.help",
    "ReadGauge.help",
    "Histogram.help",
    "Registry.help",
    "Histogram.mean",
    "Histogram.percentile",
    "Gauge.inc",
    "Gauge.dec",
    "Gauge.set_peak",
    "Registry.snapshot",
    "MatchCheckpoint.request_id",
    "MatchCheckpoint.elapsed_cycles",
    "MatchCheckpoint.seq",
    "DeltaCount.host_ms",
    "GraphProfile.label_avg_degree",
    "PlanChoice.cardinalities",
    "PlanPortfolio.plans",
    # A planner's portfolio and feedback live in its plan-cache entry
    # (planner.feedback.PlanFeedback); the version in the key is the only
    # invalidation.
    "PlanFeedbackStore",
    "FeedbackKey",
    "_Entry",
    "PlanFeedback.invalidate_graph",
    "PlanFeedback.clear",
    "PlanFeedback.observation",
    "PlanFeedback.__len__",
    "MatchService.portfolio_cache",
    "MatchService.feedback",
    "MatchService.record_plan_feedback",
    "LRUCache.invalidate_graph",
    "LRUCache.invalidate_matching",
    "LRUCache.clear",
    "CacheStats.invalidations",
    "PlanObservation.timeouts",
    "PlanObservation.steals",
    "PlanObservation.est_cycles",
    "PlanObservation.rel_error",
    "PlanPortfolio.choice_for_order",
    # Nothing outside the tests lifted a quarantine; the pop was its one
    # caller.
    "Quarantine.release",
    "LRUCache.pop",
)


def _definitions(node) -> set:
    """Names ``node`` defines on its class: a method, a parameter, a
    ``self.`` attribute or a class-body field."""
    if isinstance(node, ast.FunctionDef):
        return {node.name}
    if isinstance(node, ast.arg):
        return {node.arg}
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
        return {node.attr}
    if isinstance(node, ast.ClassDef):
        return {
            target.id
            for stmt in node.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in getattr(stmt, "targets", [getattr(stmt, "target", None)])
            if isinstance(target, ast.Name)
        }
    return set()


def _mentions(node) -> set:
    """Names ``node`` mentions: a definition, a name, an import, an
    attribute or a string constant."""
    names = {getattr(node, key, None) for key in ("name", "arg", "id", "attr")}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        names.add(node.value)
    return names


def _sets_or_reads(node, owner: str, member: str) -> bool:
    """Whether ``node`` passes ``member`` to ``owner(...)`` or to a
    ``replace(...)``, or reads it off a ``config`` / ``cfg``."""
    if isinstance(node, ast.Call):
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        return callee in (owner, "replace") and any(
            keyword.arg == member for keyword in node.keywords
        )
    if isinstance(node, ast.Attribute) and node.attr == member:
        base = getattr(node.value, "id", getattr(node.value, "attr", None))
        return base in ("config", "cfg")
    return False


class TestRetiredBooksContract:
    """Every record the ops layer writes has one home and a reader."""

    def test_retired_books_stay_retired(self):
        owners = {e.partition(".")[0] for e in RETIRED_BOOKS if "." in e}
        bare = {e for e in RETIRED_BOOKS if "." not in e}
        classes, hits = set(), []

        def visit(node, path, scope):
            if isinstance(node, ast.ClassDef) and len(scope) == 1:
                classes.add(node.name)
            owned = {f"{scope[0]}.{name}" for name in _definitions(node)} if scope else set()
            for entry in sorted(owned & set(RETIRED_BOOKS) | _mentions(node) & bare):
                hits.append((path.relative_to(SRC).as_posix(), ".".join(scope), entry))

        _visit(visit)
        assert owners <= classes, sorted(owners - classes)
        assert not hits, hits

    def test_supervisor_snapshot_keeps_no_counts(self):
        # Restarts and breaker rejections are the serve counters
        # supervisor_restarts / breaker_rejected, read by render_top.
        sup = Supervisor(SimpleNamespace(config=ServeConfig()))
        assert set(sup.snapshot()) == {"breakers", "quarantine"}


class TestConfigContract:
    """What a run computes (``TDFSConfig``) vs how it is run (``RunContext``)."""

    def test_config_and_context_stay_apart(self):
        config, context = ({f.name for f in fields(c)} for c in (TDFSConfig, RunContext))
        assert len(config) == 19, sorted(config)
        assert len(context) == 6, sorted(context)
        assert len(fields(ServeConfig)) == 10, [f.name for f in fields(ServeConfig)]
        assert not config & context, sorted(config & context)
        assert pickle.loads(pickle.dumps(TDFSConfig())) == TDFSConfig()

    def test_option_surface(self):
        options = [
            f"{cls.__name__}.{f.name}"
            for cls in (TDFSConfig, RunContext, ServeConfig, SupervisorConfig)
            for f in fields(cls)
        ]
        assert options == OPTIONS
        assert len(options) == 39
        assert len(fields(SupervisorConfig)) == 4

    def test_constants_stay_constants(self):
        files = [
            path
            for path in (*SRC.rglob("*"), *BENCHMARKS.rglob("*.py"), *EXAMPLES.rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts
        ]
        bare = [name for name in RETIRED if "." not in name]
        hits = [
            f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
            for path in files
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if any(name in line for name in bare)
        ]
        qualified = [name.split(".") for name in RETIRED if "." in name]
        for path in files:
            if path.suffix != ".py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                for owner, member in qualified:
                    if _sets_or_reads(node, owner, member):
                        hits.append(f"{path.relative_to(ROOT)}:{node.lineno}: {owner}.{member}")
        assert not hits, hits

    @pytest.mark.parametrize(
        "source, flagged",
        [
            ("TDFSConfig(page_bytes=32)", True),
            ("cfg.replace(stmatch_removal=True)", True),
            ("self.config.page_bytes", True),
            ("OuroborosAllocator(4, page_bytes=64)", False),
            ("job.stmatch_removal", False),
        ],
    )
    def test_a_retired_field_is_caught_at_its_caller(self, source, flagged):
        node = ast.parse(source, mode="eval").body
        retired = [name.split(".") for name in RETIRED if "." in name]
        assert any(_sets_or_reads(node, *name) for name in retired) is flagged

    def test_every_cost_model_field_is_read(self):
        # Every CostModel field enters config_fingerprint: one that no code
        # reads would split the result cache over a number that charges
        # nothing.
        read = {
            node.attr
            for node, _path, _scope in _nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        unread = sorted({f.name for f in fields(CostModel)} - read)
        assert not unread, unread


#: Names of the replay machinery that was folded away, and of the
#: scheduler hooks and per-warp objects a warp no longer pays for (faults
#: wrap bodies; a level's page table is its ``pages`` list; a run state
#: owns its levels), and of the host-side shadows of ``Q_task`` (the queue
#: is its own recovery record: a task carries its hand-off and a torn entry
#: keeps its original), and of the serve layer's shadows of the admission
#: queue (it holds every admitted entry until settle, checkpoint included)
#: and its write-only counters; none may return.
GONE = {
    "_leaf_block", "_slot_sums", "plan_writes", "sums", "_work",
    "commit_writes", "read_cost",
    "resume_hook", "charge_hook", "_on_resume", "_on_finish", "PageTable",
    "WarpStack",
    "journal", "handoff", "_shipped", "_validate_task", "_handed_off",
    "recovery_armed",
    "_inflight", "_inflight_lock", "set_inflight", "remove_inflight",
    "take_inflight", "has_inflight", "unsettled_inflight",
    "checkpoints", "CHECKPOINT_CAPACITY", "checkpoints_stored",
    "total_admitted", "total_shed", "total_rejected", "peak_depth", "sealed",
    "crashed",
}


def _block_fields(node) -> set:
    """Annotated names in the class body of a ``Block`` (not its methods)."""
    if not (isinstance(node, ast.ClassDef) and node.name == "Block"):
        return set()
    names, stack = set(), list(node.body)
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            continue
        if isinstance(child, ast.AnnAssign):
            names.add(getattr(child.target, "id", None))
        stack.extend(ast.iter_child_nodes(child))
    return names


def _assigns_run_state(node, _path) -> bool:
    """An assignment to an entry of ``path``, ``filtered`` or ``iters``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(sub, ast.Subscript)
        and isinstance(sub.value, ast.Attribute)
        and sub.value.attr in {"path", "filtered", "iters"}
        for target in targets
        for sub in ast.walk(target)
    )


def _gone_names(node, _path) -> bool:
    names = {getattr(node, "name", None), getattr(node, "attr", None)}
    if isinstance(node, ast.Name):
        names.add(node.id if node.id != "sums" else None)
    return bool((names | _block_fields(node)) & GONE)


class TestReplayContract:
    """One per-slot write site, one page-growth site, three fold sites, one
    growth question; the fold writes only what is read."""

    def test_levels_are_written_by_the_replay_and_the_fold_only(self):
        # A stack level's contents are written only by the per-slot replay,
        # one slot at a time; the fold of a run of slots only grows pages.
        writes = _sites(
            lambda node, path: _method_call({"write"})(node, path)
            and "level" in ast.unparse(node.func.value)
        )
        assert _scopes(writes) == {"MatchJob._fill_level"}, writes
        grows = _sites(_method_call({"grow"}))
        assert _scopes(grows) == {"MatchJob._fold"}, grows

    def test_the_fold_leaves_no_path(self):
        # Nothing reads a folded slot's level contents or its path, iterator
        # and candidate entries before a descent rewrites them, so the fold
        # reads no slot's raw set or child and writes none of those entries.
        reads = _sites(_method_call({"raw_set", "child_at"}))
        assert "MatchJob._fold" not in _scopes(reads), reads
        writes = _sites(_assigns_run_state)
        assert "MatchJob._fold" not in _scopes(writes), writes
        assert "MatchJob._process_item" in _scopes(writes), writes  # seen at all

    def test_three_fold_sites(self):
        # The fold runs at the fold-first item site, inside a chunk and
        # inside an item — no fourth bulk consumer.
        folds = _sites(_method_call({"_fold"}))
        assert _scopes(folds) == {
            "MatchJob.warp_body", "MatchJob._process_chunk", "MatchJob._process_item"
        }, folds

    def test_growth_is_asked_by_the_fold_and_pages_come_from_alloc(self):
        # How many pages a folded run allocates is asked only by the fold,
        # and pages are handed out only inside the allocator package.
        growth = _sites(_method_call({"growth"}))
        assert _scopes(growth) == {"MatchJob._fold"}, growth
        pages = _sites(_method_call({"malloc_page"}))
        folders = {pathlib.PurePosixPath(path).parent.name for path, _ in pages}
        assert folders == {"alloc"}, pages

    def test_retired_replay_names_stay_gone(self):
        gone = _sites(_gone_names)
        assert not gone, gone


def _defined(name: str) -> set[tuple[str, str]]:
    return _sites(
        lambda node, _p: isinstance(node, ast.FunctionDef) and node.name == name
    )


def _compares_strategy(node, _path) -> bool:
    """A comparison with a ``Strategy`` member or a ``.strategy`` operand."""
    if not isinstance(node, ast.Compare):
        return False
    return any(
        isinstance(sub, ast.Attribute)
        and (
            sub.attr == "strategy"
            or (isinstance(sub.value, ast.Name) and sub.value.id == "Strategy")
        )
        for operand in (node.left, *node.comparators)
        for sub in ast.walk(operand)
    )


class TestLoadBalancingContract:
    """The strategy is decided once per job; the T-DFS core holds no
    baseline's strategy code."""

    def test_one_strategy_comparison(self):
        # Only the queue rule compares a strategy; the job class is looked
        # up, not branched on (core.engine.job_class).
        sites = _sites(_compares_strategy)
        assert sites == {("core/engine.py", "TDFSEngine._execute")}, sites

    def test_baseline_strategies_live_next_to_their_baselines(self):
        owners = {
            "_steal": ("baselines/stmatch.py", "HalfStealJob"),
            "_steal_from": ("baselines/stmatch.py", "HalfStealJob"),
            "_process_stolen": ("baselines/stmatch.py", "HalfStealJob"),
            "_spawn": ("baselines/egsm.py", "ChildKernelJob"),
            "_child_body": ("baselines/egsm.py", "ChildKernelJob"),
        }
        for name, (path, cls) in owners.items():
            assert _defined(name) == {(path, f"{cls}.{name}")}, name

    def test_one_aux_loop_and_one_run_state_constructor(self):
        for name in ("_process_aux", "new_run_state"):
            assert _defined(name) == {("core/warp_matcher.py", f"MatchJob.{name}")}
        built = _sites(_called("RunState"))
        assert built == {("core/warp_matcher.py", "MatchJob.new_run_state")}, built


class TestDispatchContract:
    """The scheduler's loop does nothing per event but dispatch: fault
    injection wraps warp bodies and checkpoints ride the event limit."""

    def test_the_dispatch_loop_reads_no_hook(self):
        tree = dict(_trees())[SRC / "gpusim" / "scheduler.py"]
        run = next(
            node
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "Scheduler"
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "run"
        )
        loops = [node for node in ast.walk(run) if isinstance(node, ast.While)]
        assert len(loops) == 1, loops
        inside = list(ast.walk(loops[0]))
        # Neither a hook attribute nor a local the loop bound one to.
        hooks = [
            name
            for node in inside
            for name in (getattr(node, "attr", None), getattr(node, "id", None))
            if name is not None and name.endswith("_hook")
        ]
        assert not hooks, hooks
        getattrs = [node for node in inside if _called("getattr")(node, None)]
        assert not getattrs, [ast.unparse(node) for node in getattrs]

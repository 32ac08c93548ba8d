"""Kernel-backend conformance: scalar vs vectorized, bit for bit.

The vectorized backend (:mod:`repro.kernels.vectorized`) replaces the
matcher's per-candidate leaf loop with one NumPy pass per sync-window
batch.  Its contract is *exact equivalence*: on every input it must
produce the same match count AND the same simulated cycle schedule as the
scalar reference — identical makespan, busy/idle split, timeout and steal
events.  Host wall-clock is the only permitted difference.

The suite sweeps seeded differential cases (same ``REPRO_DIFF_SEED``
offsetting scheme as ``test_differential_engines``) across the regimes
that exercise distinct code paths: unlabeled/labeled, reuse on/off,
timeout-steal and half-steal schedules, paged and truncating array
stacks, the non-T-DFS engines, and empty/degenerate frontiers.  White-box
tests force block engagement with ``UngatedBackend`` (``MIN_BATCH = 1``) so
tiny graphs still cover the batched path, and pin the
``intersect_sorted`` out-of-range clamp.

The block suites at the end check every producer of a
:class:`~repro.kernels.base.Block` (``prefix_block`` windows of initial
rows, ``child_block`` cells of another block's survivors, ``leaf_block``
windows of pre-leaf candidates) slot by slot against ``_raw`` /
``filter_candidates``, then prefix windows and child cells end to end with
chunks and sync windows that straddle them, the interruptible (non-bulk)
leaf replay through a truncating level, and one test per documented
decline.  With ``REPRO_DIFF_SEED`` set (the ``kernel-conformance`` CI job)
the child-cell sweeps run their whole cross-product; tier-1 runs a slice.
"""

from __future__ import annotations

import os
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    FaultPlan,
    RetryPolicy,
    RunContext,
    TDFSConfig,
    from_edges,
    get_pattern,
    match,
)
from repro.alloc import ouroboros
from repro.alloc.stack import array_level_factory
from repro.baselines.egsm import ChildKernelJob
from repro.baselines.pbe import bfs_expand_level
from repro.baselines.stmatch import HalfStealJob
from repro.core import config as config_module
from repro.core.candidates import filter_candidates
from repro.core.config import StackMode, Strategy
from repro.core.edge_filter import edge_mask
from repro.core.engine import TDFSEngine
from repro.core.intersect import intersect_sorted
from repro.core.warp_matcher import MatchJob, RunState
from repro.errors import DeviceOOMError, ReproError, StackLevelOverflowError
from repro.faults.recovery import snapshot_pending_work
from repro.gpusim.device import VirtualGPU, Warp
from repro.graph import csr
from repro.graph.builder import relabel_random
from repro.graph.csr import CSRGraph
from repro.kernels import (
    BACKEND_NAMES,
    ScalarBackend,
    VectorizedBackend,
    available_backends,
    make_backend,
    resolve_backend,
)
from repro.kernels.vectorized import PREFIX_MIN_ROWS
from repro.obs import Observability
from repro.query.pattern import QueryGraph
from repro.query.plan import compile_plan
from repro.taskqueue.ring import LockFreeTaskQueue
from repro.taskqueue.tasks import PLACEHOLDER
from tests.fuzz import (  # shared case space (see tests/fuzz.py)
    FAST,
    SEED_BASE,
    STEAL,
    case_graph,
    case_labeled_graph,
    case_query,
)

class UngatedBackend(VectorizedBackend):
    """The vectorized backend without its size gate: tiny graphs still
    drive the batched leaf path."""

    MIN_BATCH = 1


#: The ``kernel-conformance`` CI job sets the seed slice and gets the whole
#: cross-product of the child-cell sweeps; tier-1 runs a fixed slice of it.
EXHAUSTIVE = "REPRO_DIFF_SEED" in os.environ

#: Everything two backend runs must agree on.  ``elapsed_cycles`` alone
#: nearly implies the rest (one mischarged candidate shifts the whole
#: virtual schedule), but naming the fields makes divergence reports
#: point at the mechanism, not just the symptom.
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


def assert_same(a, b, label=""):
    """Two runs agree on the whole conformance field set."""
    for f in CONFORMANCE_FIELDS:
        assert getattr(a, f) == getattr(b, f), (
            f"{label}: runs diverge on {f}: {getattr(a, f)} != {getattr(b, f)}"
        )


def assert_conformant(graph, query, config, engine="tdfs", label="", ctx=None):
    """Run both backends and assert the full conformance field set."""
    scalar = match(
        graph, query, engine=engine,
        config=config.replace(kernel_backend="scalar"), ctx=ctx,
    )
    vec = match(
        graph, query, engine=engine,
        config=config.replace(kernel_backend="vectorized"), ctx=ctx,
    )
    name = query if isinstance(query, str) else query.name
    assert_same(scalar, vec, f"{label or graph.name}/{name} [{engine}]")
    return scalar, vec


def assert_spans_identical(graph, query, cfg):
    """Tracing on: both backends record the same virtual spans, one
    ``intersect`` per replayed slot included."""
    spans = []
    for name in ("scalar", "vectorized"):
        obs = Observability(tracing=True)
        ctx = RunContext(obs=obs)
        match(graph, query, config=cfg.replace(kernel_backend=name), ctx=ctx)
        spans.append(obs.tracer.spans())
    assert spans[0] == spans[1]
    assert any(s["name"] == "intersect" for s in spans[0])


def assert_checkpoint_resumes(graph, pattern, cfg, every, when):
    """Both backends snapshot at the first checkpoint where ``when(job)``
    holds: the snapshots are equal — arrays of vertex ids, nothing of a
    block — and both resume to the uninterrupted count, conformant.
    Returns the snapshot's groups and what ``when`` said on each backend."""
    full = match(graph, pattern, config=cfg).count
    snaps = {}
    for name in ("scalar", "vectorized"):
        taken = []

        def hook(job, now, taken=taken):
            note = not taken and when(job)
            if note:
                taken.append((snapshot_pending_work(job), job.count, now, note))

        ctx = RunContext(checkpoint_every_events=every, checkpoint_hook=hook)
        run = match(graph, pattern, config=cfg.replace(kernel_backend=name), ctx=ctx)
        assert run.count == full
        snaps[name] = taken[0]
    groups, base, now, note = snaps["scalar"]
    vgroups, vbase, vnow, vnote = snaps["vectorized"]
    assert (base, now) == (vbase, vnow)
    assert [(r.tolist(), w) for r, w in groups] == [
        (r.tolist(), w) for r, w in vgroups
    ]
    resumed = [
        TDFSEngine(cfg.replace(kernel_backend=name)).run_resume(
            graph, get_pattern(pattern), groups, base_count=base
        )
        for name in ("scalar", "vectorized")
    ]
    assert resumed[0].count == resumed[1].count == full
    assert_same(*resumed)
    return groups, note, vnote


class TestUnlabeledConformance:
    """Seeded unlabeled cases across both graph families."""

    @pytest.mark.parametrize("case", range(8))
    def test_backends_agree(self, case):
        seed = SEED_BASE + case
        assert_conformant(case_graph(seed), case_query(seed), FAST)


class TestLabeledConformance:
    """Labeled graphs: label filters shrink and sometimes empty frontiers."""

    @pytest.mark.parametrize("case", range(4))
    def test_backends_agree(self, case):
        seed = SEED_BASE + 500 + case
        graph = case_graph(seed)
        labeled = relabel_random(graph, 4, seed=seed, name=f"{graph.name}-L4")
        query = case_query(seed, num_labels=4)
        assert_conformant(labeled, query, FAST)


class TestScheduleConformance:
    """The schedule itself must be backend-invariant.

    Timeout decomposition and stealing key off warp-local virtual clocks;
    a single mischarged cycle moves a timeout and changes who steals what.
    Equal timeout/steal/queue behaviour is therefore the sharpest
    cycle-conformance probe available.
    """

    @pytest.mark.parametrize("case", range(4))
    def test_timeout_steal(self, case):
        seed = SEED_BASE + 900 + case
        scalar, _ = assert_conformant(
            case_graph(seed), case_query(seed), STEAL, label="steal"
        )

    def test_some_steal_case_decomposes(self):
        """Guard against a vacuous schedule sweep: at least one case in the
        current seed slice must actually trigger timeout decomposition."""
        for case in range(4):
            seed = SEED_BASE + 900 + case
            cfg = STEAL.replace(kernel_backend="vectorized")
            if match(case_graph(seed), case_query(seed), config=cfg).timeouts:
                return
        pytest.fail("no steal case decomposed; τ/chunk too lax for the slice")

    @pytest.mark.parametrize("case", range(2))
    def test_half_steal(self, case):
        seed = SEED_BASE + 950 + case
        cfg = TDFSConfig(num_warps=8, strategy=Strategy.HALF_STEAL, chunk_size=2)
        assert_conformant(case_graph(seed), case_query(seed), cfg, label="half")

    @pytest.mark.parametrize("case", range(2))
    def test_reuse_disabled(self, case):
        seed = SEED_BASE + 970 + case
        cfg = FAST.replace(enable_reuse=False)
        assert_conformant(case_graph(seed), case_query(seed), cfg, label="noreuse")


class TestStackVariantConformance:
    """Stack storage changes write charges; backends must track exactly."""

    def test_release_pages_declines_bulk_path(self, small_plc):
        # Page release interleaves frees with writes, so no level is ever
        # warm: every fold declines and every block slot goes through the
        # per-slot write — which must still be charge-identical.
        cfg = FAST.replace(release_pages=True)
        assert_conformant(small_plc, "P3", cfg, label="release")

    def test_truncating_array_stacks(self, small_plc, monkeypatch):
        # STMatch-style fixed levels with silent truncation: both backends
        # must truncate the *same* candidates (the vectorized plan declines
        # on any would-be overflow) and report the overflow flag.
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        cfg = FAST.replace(stack_mode=StackMode.ARRAY_FIXED)
        scalar, vec = assert_conformant(small_plc, "P3", cfg, label="trunc")
        assert scalar.overflowed and vec.overflowed

    def test_array_dmax_stacks(self, small_plc):
        cfg = FAST.replace(stack_mode=StackMode.ARRAY_DMAX)
        assert_conformant(small_plc, "P3", cfg, label="dmax")


class TestEngineConformance:
    """Baseline engines route through the same matcher and backends."""

    @pytest.mark.parametrize("engine", ["stmatch", "egsm", "pbe"])
    def test_backends_agree(self, engine, small_plc):
        assert_conformant(small_plc, "P2", FAST, engine=engine)


class TestDegenerateFrontiers:
    """Empty and near-empty inputs: the decline paths must line up too."""

    def test_no_instances(self):
        path = from_edges([(i, i + 1) for i in range(30)], name="path")
        scalar, vec = assert_conformant(path, "P1", FAST, label="empty")
        assert scalar.count == 0

    def test_graph_smaller_than_query(self, triangle):
        scalar, vec = assert_conformant(triangle, "P8", FAST, label="tiny")
        assert scalar.count == 0

    def test_single_edge(self):
        pair = from_edges([(0, 1)], name="pair")
        assert_conformant(pair, "P1", FAST, label="edge")


class TestForcedBlockEngagement:
    """White-box: ``MIN_BATCH = 1`` removes the size gate, so even tiny
    graphs drive the batched leaf path; results must still be exact."""

    @pytest.fixture(autouse=True)
    def no_windows(self, monkeypatch):
        """Under a prefix window only what inherits no block offers sync
        windows; with every window declined, every item does."""
        from repro.kernels import vectorized

        monkeypatch.setattr(vectorized, "PREFIX_MIN_ROWS", 1 << 30)

    def test_forced_blocks_agree(self):
        engaged = 0
        for case in range(6):
            seed = SEED_BASE + 980 + case
            graph = case_graph(seed)
            query = case_query(seed)
            scalar = match(
                graph, query, config=FAST.replace(kernel_backend="scalar")
            )
            backend = UngatedBackend()
            produced = []
            inner = backend.leaf_block

            def spy(job, st, position, candidates):
                block = inner(job, st, position, candidates)
                produced.append(block)
                return block

            backend.leaf_block = spy
            vec = match(graph, query, config=FAST.replace(kernel_backend=backend))
            assert_same(scalar, vec, f"forced-block case {case}")
            accepted = [b for b in produced if b is not None]
            assert all(b.count >= 1 for b in accepted)
            engaged += len(accepted)
        # Not every case can engage (k = 3 queries have no stack-position
        # leaves; some leaf shapes are unsupported and decline), but a
        # whole slice without a single block means the gate is broken.
        assert engaged, "MIN_BATCH = 1 never engaged the block path in the slice"

    def test_sync_windows_fold(self, monkeypatch):
        """A sync window's own leaf block folds like any leaf block: runs of
        its slots advance by running totals, exactly as the scalar replay."""
        seen = Counter()
        fold = MatchJob._fold

        def spy(self, warp, st, block, lo, hi):
            took = fold(self, warp, st, block, lo, hi)
            # No prefix window, so no child: every block is a window's own.
            assert block.position == self._k - 1 and block.rows is None
            seen["asks"] += 1
            seen["slots"] += took
            return took

        monkeypatch.setattr(MatchJob, "_fold", spy)
        for case in range(6):
            seed = SEED_BASE + 980 + case
            graph, query = case_graph(seed), case_query(seed)
            cfg = FAST.replace(kernel_backend=UngatedBackend())
            assert_same(
                match(graph, query, config=FAST.replace(kernel_backend="scalar")),
                match(graph, query, config=cfg),
                f"window-fold case {case}",
            )
        assert seen["slots"] > seen["asks"] > 0, seen

    def test_forced_blocks_under_steal(self):
        seed = SEED_BASE + 990
        graph = case_graph(seed)
        query = case_query(seed)
        scalar = match(
            graph, query, config=STEAL.replace(kernel_backend="scalar")
        )
        vec = match(
            graph,
            query,
            config=STEAL.replace(kernel_backend=UngatedBackend()),
        )
        assert_same(scalar, vec)


class TestIntersectSortedClamp:
    """Regression: probes past ``b``'s end must clamp, never alias."""

    def test_element_beyond_b_max(self):
        a = np.array([5, 100], dtype=np.int32)
        b = np.array([1, 5, 7], dtype=np.int32)
        assert intersect_sorted(a, b).tolist() == [5]

    def test_all_elements_beyond_b_max(self):
        a = np.array([50, 60, 70], dtype=np.int32)
        b = np.array([1, 2, 3], dtype=np.int32)
        out = intersect_sorted(a, b)
        assert out.size == 0 and out.dtype == np.int32

    def test_boundary_element_equal_to_b_max(self):
        a = np.array([3, 99], dtype=np.int32)
        b = np.array([1, 2, 3], dtype=np.int32)
        assert intersect_sorted(a, b).tolist() == [3]

    def test_symmetry_with_swapped_sizes(self):
        # intersect_sorted swaps to stream the smaller list; the clamp must
        # hold regardless of which side carries the out-of-range element.
        a = np.array([10], dtype=np.int32)
        b = np.array([1, 2, 3, 4, 5], dtype=np.int32)
        assert intersect_sorted(a, b).size == 0
        assert intersect_sorted(b, a).size == 0


class TestBackendRegistry:
    """Construction-surface checks for the backend plumbing."""

    def test_available_names(self):
        assert available_backends() == BACKEND_NAMES == ("scalar", "vectorized")
        for name, cls in zip(BACKEND_NAMES, (ScalarBackend, VectorizedBackend)):
            assert type(make_backend(name)) is cls

    def test_make_backend_unknown_name(self):
        # One typed error, the same one the config raises, listing the names.
        for name in ("simd", "vectorized+cache"):
            with pytest.raises(ReproError, match="unknown kernel backend") as err:
                make_backend(name)
            assert all(known in str(err.value) for known in BACKEND_NAMES)

    def test_resolve_passes_instances_through(self):
        inst = VectorizedBackend()
        assert resolve_backend(inst) is inst
        assert isinstance(resolve_backend(None), VectorizedBackend)

    def test_config_rejects_unknown_backend_name(self):
        for name in ("simd", "vectorized+cache"):
            with pytest.raises(ReproError, match="unknown kernel backend"):
                TDFSConfig(kernel_backend=name)

    def test_scalar_backend_never_offers_blocks(self):
        backend = ScalarBackend()
        assert backend.batched is False
        assert backend.block_threshold(None, None, 3) == 0


# --------------------------------------------------------------------------- #
# Level-2 prefix blocks (VectorizedBackend.prefix_block)
# --------------------------------------------------------------------------- #


@pytest.fixture()
def small_windows(monkeypatch):
    """Prefix-block windows of 13 rows: smaller than any group here and a
    multiple of no chunk size the tests use, so chunks straddle windows."""
    from repro.kernels import vectorized

    monkeypatch.setattr(vectorized, "PREFIX_MAX_ROWS", 13)


#: A wedge reads one adjacency list at position 2 (the copy path), a
#: triangle two — and both make position 2 the leaf.
WEDGE = QueryGraph(3, [(0, 1), (1, 2)], name="wedge")
TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
CYCLE5 = QueryGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], name="5-cycle")
PREFIX_QUERIES = [get_pattern(p) for p in ("P1", "P2", "P3", "P5", "P7")] + [
    WEDGE,
    TRIANGLE,
]


def _direct_job(graph, query, config, backend):
    """A bare :class:`MatchJob` over every directed edge (no engine)."""
    plan = compile_plan(query)
    return MatchJob(
        graph=graph,
        plan=plan,
        config=config,
        gpu=VirtualGPU(num_warps=1, memory_bytes=1 << 24),
        groups=[(graph.directed_edge_array(), 2)],
        queue=None,
        level_factory=array_level_factory(max(graph.max_degree, 1)),
        backend=backend,
    )


def assert_slot_equals_scalar(job, st, position, block, slot):
    """``block``'s ``slot`` holds exactly what the scalar functions return
    for the partial match ``st.path[:position]`` — whichever producer made
    the block."""
    cfg = job.config
    before = (job.intersections, job.reuse_hits)
    raw, raw_cycles = job._raw(st, position)
    got = block.raw_set(slot)
    assert got.dtype == raw.dtype and np.array_equal(got, raw)
    assert block.raw_sizes[slot] == raw.size
    assert block.raw_cycles[slot] == raw_cycles
    assert (block.intersections, block.reuse) == (
        job.intersections - before[0],
        job.reuse_hits - before[1],
    )
    want, filter_cycles = filter_candidates(
        job.graph, job.plan, st.path, position, raw, job.cost, job.stmatch_removal
    )
    assert block.survivors[slot] == want.size
    assert block.filter_cycles[slot] == filter_cycles
    if block.filtered is not None:
        offs = block.filtered_offsets
        assert np.array_equal(block.filtered[offs[slot] : offs[slot + 1]], want)


class TestPrefixBlockRows:
    """Row by row, a block holds exactly what the scalar functions return."""

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("case", range(2))
    def test_block_equals_scalar_per_row(self, case, labeled, monkeypatch):
        from repro.kernels import vectorized

        # Several windows per graph, cut by volume at uneven row counts.
        monkeypatch.setattr(vectorized, "PREFIX_VOLUME", 97)
        seed = SEED_BASE + 1200 + case
        graph = case_labeled_graph(seed, 3) if labeled else case_graph(seed)
        checked = 0
        for query in PREFIX_QUERIES:
            if labeled:
                query = query.with_labels(
                    [(seed + u) % 3 for u in range(query.num_vertices)]
                )
            for removal in (False, True):
                monkeypatch.setattr(MatchJob, "stmatch_removal", removal)
                for prune in (False, True):
                    cfg = FAST.replace(enable_edge_filter=prune)
                    checked += self._check_rows(graph, query, cfg)
        assert checked, "no row survived the edge filter anywhere in the case"

    @staticmethod
    def _check_rows(graph, query, cfg) -> int:
        job = _direct_job(graph, query, cfg, VectorizedBackend())
        plan = job.plan
        k = plan.num_levels
        st = RunState(k, job.level_factory)
        st.valid_from = 2
        rows = graph.directed_edge_array()
        lo = kept_rows = 0
        while lo < len(rows):
            block = job.backend.prefix_block(job, rows[lo:])
            if block is None:  # a tail too short to be worth a block
                assert len(rows) - lo < PREFIX_MIN_ROWS
                break
            covered = block.window
            assert cfg.chunk_size <= covered or lo + covered == len(rows)
            window = rows[lo : lo + covered]
            keep = edge_mask(graph, plan, window, cfg.enable_edge_filter)
            assert np.diff(block.kept_before).tolist() == keep.astype(int).tolist()
            assert np.array_equal(block.rows, window[keep])
            assert block.count == len(block.rows) and block.filtered is not None
            for slot, row in enumerate(window[keep]):
                st.path[0], st.path[1] = int(row[0]), int(row[1])
                assert_slot_equals_scalar(job, st, 2, block, slot)
                # The row replay indexes plain lists of plain ints.
                assert type(block.raw_cycles[slot]) is int
                assert type(block.filter_cycles[slot]) is int
            kept_rows += int(keep.sum())
            lo += covered
        return kept_rows


#: Leaf shapes by pattern (reuse on / off): P1 one shared seed / two shared
#: lists; P2 varying + seed / three lists with the varying one (declined);
#: P3, P8, P11 varying + one fixed list; P4 two shared lists; P5, P7 varying
#: + seed / declined; P6 the pre-leaf level's own raw set as the seed.
LEAF_PATTERNS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P11")


class TestLeafBlockSlots:
    """The same slot-by-slot check for the leaf producer: a scalar DFS walks
    to the pre-leaf level, offers its candidates as one window, and every
    slot must equal ``_raw`` / ``filter_candidates`` at the leaf."""

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("case", range(2))
    def test_block_equals_scalar_per_slot(self, case, labeled, monkeypatch):
        seed = SEED_BASE + 1250 + case
        graph = case_labeled_graph(seed, 2) if labeled else case_graph(seed)
        shapes = set()
        for name in LEAF_PATTERNS:
            query = get_pattern(name)
            if labeled:
                query = query.with_labels(
                    [(seed + u) % 2 for u in range(query.num_vertices)]
                )
            for removal in (False, True):
                monkeypatch.setattr(MatchJob, "stmatch_removal", removal)
                for reuse in (False, True):
                    cfg = FAST.replace(enable_reuse=reuse)
                    shapes |= self._check_windows(graph, query, cfg)
        # Both kinds of block were produced, and some shape declined.
        assert shapes >= {"shared", "segmented", "declined"}, shapes

    @staticmethod
    def _check_windows(graph, query, cfg, limit=12) -> set:
        job = _direct_job(graph, query, cfg, UngatedBackend())
        plan = job.plan
        k = plan.num_levels
        st = RunState(k, job.level_factory)
        st.valid_from = 2
        shapes = set()

        def windows(pos):
            """Scalar DFS below ``st.path[:pos]``, stack levels written as
            the matcher writes them; yields the pre-leaf candidate sets."""
            raw, _ = job._raw(st, pos)
            st.levels[pos - 2].write(raw, job.cost)
            filtered, _ = filter_candidates(
                graph, plan, st.path, pos, raw, job.cost, job.stmatch_removal
            )
            if pos == k - 2:
                if len(filtered):
                    yield filtered
                return
            for v in filtered[:2]:
                st.path[pos] = int(v)
                yield from windows(pos + 1)

        rows = graph.directed_edge_array()
        rows = rows[edge_mask(graph, plan, rows, cfg.enable_edge_filter)]
        checked = 0
        for row in rows:
            st.path[0], st.path[1] = int(row[0]), int(row[1])
            for candidates in windows(2):
                block = job.backend.leaf_block(job, st, k - 1, candidates)
                threshold = job.backend.block_threshold(job, st, k - 1)
                if block is None:
                    # The shared shape decision: a decline is a shape the
                    # threshold refuses, or a window below it.
                    assert not threshold or len(candidates) < threshold
                    shapes.add("declined")
                    continue
                assert threshold and block.count == len(candidates) >= threshold
                assert block.filtered is None and block.rows is None
                shapes.add("shared" if block.raw_offsets is None else "segmented")
                for slot, v in enumerate(candidates):
                    st.path[k - 2] = int(v)
                    assert_slot_equals_scalar(job, st, k - 1, block, slot)
                checked += 1
                if checked == limit:
                    return shapes
        return shapes


@pytest.fixture()
def small_cells(monkeypatch):
    """Child cells of at most 48 gathered elements under 13-row prefix
    windows, no minimum size: every window has several cells per level,
    some slots are over the budget on their own, and chunks and sync
    windows straddle cell boundaries."""
    from repro.kernels import vectorized

    monkeypatch.setattr(vectorized, "PREFIX_MAX_ROWS", 13)
    monkeypatch.setattr(vectorized, "PREFIX_VOLUME", 48)
    monkeypatch.setattr(vectorized, "PREFIX_MIN_ROWS", 1)


def _no_parent():
    raise AssertionError("Block.parent() dereferenced above an inherited child")


def child_shape(job, position) -> str:
    """The list shape of ``position`` below a prefix window, by name."""
    _, _, reuse, positions, per_slot = job.backend._shape(job, position, 2)
    if not per_slot:
        return "declined"
    if reuse:
        return "seed-segment" if positions else "seed-only"
    return "partner" if len(positions) == 2 else "copy"


class TestChildBlockSlots:
    """The slot-by-slot check for child cells: under every slot of a prefix
    window a scalar DFS walks down, writing stack levels as the matcher
    does, and at every depth the child's slot must equal ``_raw`` /
    ``filter_candidates`` on the same path."""

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("case", range(2 if EXHAUSTIVE else 1))
    def test_child_equals_scalar_per_slot(self, case, labeled, small_cells, monkeypatch):
        seed = SEED_BASE + 1270 + case
        graph = case_labeled_graph(seed, 2) if labeled else case_graph(seed)
        shapes = set()
        for name in LEAF_PATTERNS:
            query = get_pattern(name)
            if labeled:
                query = query.with_labels(
                    [(seed + u) % 2 for u in range(query.num_vertices)]
                )
            for removal in (False, True):
                monkeypatch.setattr(MatchJob, "stmatch_removal", removal)
                for reuse in (False, True):
                    cfg = FAST.replace(enable_reuse=reuse)
                    shapes |= self._check_tree(graph, query, cfg)
        # Alternating labels leave no position whose seed is the whole
        # intersection (P1's and P6's leaves reuse across unequal labels).
        wanted = {"partner", "copy", "seed-segment", "declined"}
        assert shapes >= (wanted if labeled else wanted | {"seed-only"}), shapes

    @staticmethod
    def _check_tree(
        graph, query, cfg, limit=150 if EXHAUSTIVE else 100, job=None, hits=None
    ):
        """Walks below every slot of ``job``'s prefix windows — or, given
        ``hits`` (``(task, block, slot)`` hand-offs of ``Q_task``), below
        each task's inherited slot with the stack valid from the task's
        depth.  Past ``limit`` slots a slot is still checked, not entered."""
        job = job or _direct_job(graph, query, cfg, VectorizedBackend())
        plan, backend = job.plan, job.backend
        k = plan.num_levels
        st = RunState(k, array_level_factory(max(graph.max_degree, 1)))
        st.valid_from = 2
        shapes, counts = set(), {"slots": 0}

        def descend(pos, block, slot):
            """``block``'s ``slot`` resolves ``pos`` for ``st.path[:pos]``:
            check it, write the level, and walk into its survivors."""
            assert block.position == pos
            assert_slot_equals_scalar(job, st, pos, block, slot)
            counts["slots"] += 1
            raw = block.raw_set(slot)
            st.levels[pos - 2].write(raw, job.cost)
            if pos == k - 1:
                # Leaf cells only count, unless matches are collected.
                assert block.filtered is None and block.matched is None
                return
            offs = block.filtered_offsets
            survivors = st.filtered[pos] = block.filtered[offs[slot] : offs[slot + 1]]
            if not len(survivors) or counts["slots"] >= limit:
                return
            child, base = job._child(st, pos, block, slot)
            shape = child_shape(job, pos + 1)
            if child is None:
                if not backend.shape_holds(job, pos + 1, st.valid_from):
                    shape = "shape-rule"
                elif shape != "declined":
                    # Only a slot heavier than the budget has no child.
                    lo = block.cells.index(slot)
                    assert block.cells[lo + 1] == slot + 1
                    shape = "over-budget"
                shapes.add(shape)
                return
            shapes.add(shape)
            # Asking again returns the same object: built once per cell.
            assert backend.child_block(job, block, slot) == (child, base)
            assert child.intersections == (shape in ("partner", "seed-segment"))
            assert child.reuse == (shape in ("seed-segment", "seed-only"))
            for i, v in enumerate(survivors[:3]):
                st.path[pos] = int(v)
                descend(pos + 1, child, base + i)

        for task, block, slot in hits or ():
            n = st.valid_from = task.depth
            st.path[:n] = task[:n]
            # The ship site hands a three-vertex task no block where the
            # shape rule withholds position 3.
            assert n == 2 or backend.shape_holds(job, 3, 3)
            if block.parent is not None:
                # Whatever the walk builds below an inherited child reads no
                # block above it: the window may be gone by the dequeue.
                block.parent = _no_parent
            descend(n, block, slot)
        rows = graph.directed_edge_array()
        lo = 0
        while hits is None and lo < len(rows) and counts["slots"] < limit:
            block = backend.prefix_block(job, rows[lo:])
            for slot, row in enumerate(block.rows):
                st.path[0], st.path[1] = int(row[0]), int(row[1])
                descend(2, block, slot)
                if counts["slots"] >= limit:
                    break
            lo += block.window
        return shapes

    def test_cells_partition_the_slots_within_budget(self, small_cells):
        """Cells are cut once, cover every slot exactly once, and gather at
        most ``PREFIX_VOLUME`` elements unless they are one heavy slot."""
        from repro.kernels import vectorized

        graph = case_graph(SEED_BASE + 1271)
        job = _direct_job(graph, get_pattern("P3"), FAST, VectorizedBackend())
        block = job.backend.prefix_block(job, graph.directed_edge_array())
        slot = int(np.flatnonzero(block.survivors)[0])
        job.backend.child_block(job, block, slot)
        cells = block.cells
        assert cells[0] == 0 and cells[-1] == block.count
        assert all(a < b for a, b in zip(cells, cells[1:]))
        # P3 copies N(v1) at position 3: one survivor streams deg(v1).
        per_slot = block.survivors * graph.degrees[block.rows[:, 1]]
        for c, (a, b) in enumerate(zip(cells, cells[1:])):
            volume = int(per_slot[a:b].sum())
            if volume > vectorized.PREFIX_VOLUME:
                assert b == a + 1 and block.children[c] is None
            else:
                assert block.children.get(c, True) is not None
        assert job.backend.child_block(job, block, slot)[0] is block.children[
            int(np.searchsorted(cells, slot, side="right")) - 1
        ]


class TestInterruptibleLeafReplay:
    """Tracing or a fault plan turn every fold off, leaf folds included,
    so every slot of a leaf window goes through
    ``_expand_leaf`` → ``_fill_level`` — including slots whose
    fixed-capacity level truncates and is rescanned."""

    #: STMatch's truncating array stacks; each test using them patches
    #: their capacity to 8.
    TRUNCATING = FAST.replace(stack_mode=StackMode.ARRAY_FIXED)
    #: The leaf reads one whole adjacency list, so hubs overflow the level:
    #: the swept vertex's list (a segmented block) or a fixed one's (shared).
    LOLLIPOP = QueryGraph(
        5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], name="lollipop"
    )
    STAR = QueryGraph(4, [(0, 1), (0, 2), (0, 3)], name="star")

    @pytest.mark.parametrize("query", [LOLLIPOP, STAR], ids=lambda q: q.name)
    @pytest.mark.parametrize(
        "ctx",
        [
            lambda: {"obs": Observability(tracing=True)},
            # Stragglers and CAS storms only: armed, but nothing fatal, so
            # the one attempt reaches every window.
            lambda: {
                "fault_plan": FaultPlan(
                    seed=SEED_BASE + 1, cas_storm_rate=0.05, stall_rate=0.25
                )
            },
        ],
        ids=["tracing", "fault-plan"],
    )
    def test_truncating_leaf_window(self, ctx, query, small_plc, monkeypatch):
        seen = {"slots": 0, "truncated": 0}
        fill_level = MatchJob._fill_level

        def spy(self, warp, st, pos, block, slot):
            out = fill_level(self, warp, st, pos, block, slot)
            if block is not None and block.rows is None:  # a leaf window
                seen["slots"] += 1
                seen["truncated"] += int(
                    st.levels[pos - 2].length != block.raw_sizes[slot]
                )
            return out

        monkeypatch.setattr(MatchJob, "_fill_level", spy)
        fold = MatchJob._fold
        folded = []

        def spy_fold(self, warp, st, block, lo, hi):
            folded.append(lo)
            return fold(self, warp, st, block, lo, hi)

        monkeypatch.setattr(MatchJob, "_fold", spy_fold)
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        results = {
            name: match(
                small_plc,
                query,
                config=self.TRUNCATING.replace(kernel_backend=name),
                ctx=RunContext(**ctx()),
            )
            for name in ("scalar", "vectorized")
        }
        assert_same(results["scalar"], results["vectorized"])
        assert results["scalar"].overflowed
        # The decline is observable: no slot was folded past the spy.
        assert not folded
        assert seen["slots"] > seen["truncated"] > 0, seen


class TestPrefixBlockEndToEnd:
    """Whole runs with chunks straddling 13-row windows."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 8, 16])  # 16 > the window
    @pytest.mark.parametrize(
        "strategy",
        [Strategy.TIMEOUT, Strategy.HALF_STEAL, Strategy.NEW_KERNEL, Strategy.NONE],
    )
    def test_strategies_and_stack_modes(
        self, strategy, chunk_size, small_windows, monkeypatch
    ):
        seed = SEED_BASE + 1300 + chunk_size
        graph, query = case_graph(seed), case_query(seed)
        monkeypatch.setattr(ChildKernelJob, "fanout", 4)
        for mode in StackMode:
            cfg = TDFSConfig(
                num_warps=8,
                strategy=strategy,
                chunk_size=chunk_size,
                tau_cycles=600,
                stack_mode=mode,
            )
            assert_conformant(graph, query, cfg, label=f"{strategy.value}/{mode.value}")

    @pytest.mark.parametrize("query", ["P2", "P3", TRIANGLE], ids=str)
    def test_truncation_at_level_two(self, query, small_plc, small_windows, monkeypatch):
        # Capacity 2 cuts most position-2 sets: the replay must rescan what
        # was stored (k > 3) or count it (k == 3), exactly as scalar does.
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 2)
        cfg = FAST.replace(stack_mode=StackMode.ARRAY_FIXED, chunk_size=3)
        scalar, vec = assert_conformant(small_plc, query, cfg, label="trunc-l2")
        assert scalar.overflowed and vec.overflowed
        exact = match(small_plc, query, engine="cpu").count
        assert scalar.count != exact  # the truncation really bit

    def test_overflow_raises_on_the_same_row(self, small_plc, small_windows, monkeypatch):
        # A full page table raises: one page of two ids here.
        monkeypatch.setattr(ouroboros, "DEFAULT_PAGE_BYTES", 8)
        cfg = FAST.replace(page_table_size=1, chunk_size=3)
        scalar, vec = assert_conformant(small_plc, "P2", cfg, label="raise-l2")
        assert scalar.error is not None
        assert str(scalar.error) == str(vec.error)
        assert scalar.chunks_fetched == vec.chunks_fetched

    @pytest.mark.parametrize("query", ["P3", TRIANGLE], ids=str)
    def test_spans_identical_with_tracing_on(self, query, small_plc, small_windows):
        assert_spans_identical(small_plc, query, STEAL.replace(chunk_size=3))

    @pytest.mark.parametrize("fault_seed", range(3))
    def test_fault_plan_with_retry(self, fault_seed, small_plc, small_windows):
        cfg = TDFSConfig(num_warps=8, chunk_size=3)
        ctx = RunContext(
            fault_plan=FaultPlan.seeded(SEED_BASE + fault_seed),
            retry=RetryPolicy(max_attempts=4),
        )
        scalar, vec = assert_conformant(
            small_plc, "P2", cfg, label="faults", ctx=ctx
        )
        assert scalar.recovery.to_dict() == vec.recovery.to_dict()
        assert scalar.recovery.faults_injected > 0

    def test_checkpoint_cuts_through_a_window(self, small_plc, small_windows):
        """A snapshot taken while the cursor is inside a window resumes to
        the uninterrupted count, and the resumed runs conform too."""

        def when(job):
            block, lo = job._block, job._block_lo
            if job._cursor and (block is None or job._cursor > lo):
                mid_window = block is not None and job._cursor < lo + block.window
                return "mid-window" if mid_window else "outside"

        _, _, note = assert_checkpoint_resumes(
            small_plc, "P2", FAST.replace(chunk_size=3), 40, when
        )
        assert note == "mid-window", "the checkpoint did not land inside a window"

    def test_shared_backend_two_threads(self, small_plc, small_er):
        """The serve configuration: one backend instance, two concurrent
        jobs — block state lives on the job, so neither sees the other's."""
        import sys
        import threading

        backend = VectorizedBackend()
        cells = [(small_plc, "P2"), (small_er, "P1")]
        want = [
            match(g, p, config=FAST.replace(kernel_backend="scalar")) for g, p in cells
        ]
        got: list = [None, None]

        def work(i):
            for _ in range(3):
                g, p = cells[i]
                got[i] = match(g, p, config=FAST.replace(kernel_backend=backend))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for w, g in zip(want, got):
            assert_same(w, g)


class _ChildSpy(VectorizedBackend):
    """Records what every ``child_block`` ask came back with."""

    def __init__(self):
        super().__init__()
        self.asks = []  # (position resolved, had a child, base)

    def child_block(self, job, block, slot):
        child, base = super().child_block(job, block, slot)
        self.asks.append((block.position + 1, child is not None, base))
        return child, base

    def built(self, position) -> int:
        return sum(1 for p, ok, _ in self.asks if p == position and ok)


def assert_children_conformant(graph, query, config, ctx=None, engine="tdfs"):
    """Scalar vs vectorized on every conformance field, and the vectorized
    run really descended through child cells.  Returns both results and the
    spy that recorded the asks."""
    spy = _ChildSpy()
    scalar = match(
        graph, query, engine=engine,
        config=config.replace(kernel_backend="scalar"), ctx=ctx,
    )
    vec = match(
        graph, query, engine=engine,
        config=config.replace(kernel_backend=spy), ctx=ctx,
    )
    assert_same(scalar, vec, f"{graph.name}/{query}")
    return scalar, vec, spy


class TestChildBlockEndToEnd:
    """Whole runs through cells of 48 gathered elements: chunks straddle
    prefix windows, items straddle level-3 cells, sync windows straddle
    leaf cells.  P3 has five vertices and no reuse (copy and partner
    shapes), P5 five with a seeded leaf, P11 six."""

    PATTERNS = ("P3", "P5", "P11") if EXHAUSTIVE else ("P3",)
    CHUNKS = (1, 3, 8) if EXHAUSTIVE else (3,)

    # ``no-bitset``: the graph is over the adjacency-bitset byte bound, so
    # every block that would probe a partner list declines.
    @pytest.mark.parametrize("bitset", [True, False], ids=["bitset", "no-bitset"])
    @pytest.mark.parametrize("chunk_size", CHUNKS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize(
        "strategy",
        [Strategy.TIMEOUT, Strategy.HALF_STEAL, Strategy.NEW_KERNEL, Strategy.NONE],
    )
    def test_strategies_and_stack_modes(
        self, strategy, pattern, chunk_size, bitset, small_cells, monkeypatch
    ):
        graph = case_graph(SEED_BASE + 1400 + chunk_size)
        partners = []
        probe = VectorizedBackend._partner_probe

        def partner_probe(job, partner):
            assert bitset or partner is None, "a partner probe without a bitset"
            partners.append(partner is not None)
            return probe(job, partner)

        monkeypatch.setattr(
            VectorizedBackend, "_partner_probe", staticmethod(partner_probe)
        )
        if not bitset:
            monkeypatch.setattr(csr, "ADJACENCY_BITS_MAX_BYTES", 0)
        monkeypatch.setattr(ChildKernelJob, "fanout", 4)
        for mode in StackMode:
            cfg = TDFSConfig(
                num_warps=8,
                strategy=strategy,
                chunk_size=chunk_size,
                tau_cycles=600,
                stack_mode=mode,
            )
            _, _, spy = assert_children_conformant(graph, pattern, cfg)
            if bitset:
                assert spy.built(3), f"{strategy.value}/{mode.value}: no cell built"
        assert any(partners) == bitset

    def test_sync_windows_are_slices_of_the_leaf_child(
        self, small_plc, small_cells, monkeypatch
    ):
        """With a leaf-level child a sync window is a slice of it: leaf folds
        start at offsets all over a cell, and the slot a fold stops before
        is replayed from the same child by ``_fill_level``.  Paged leaf
        folds take their growth, so only a slot whose level would truncate
        stops one: that run reads whole hub lists at the leaf (the lollipop)
        into STMatch's truncating array stacks."""
        fold, fill_level = MatchJob._fold, MatchJob._fill_level

        def spy_fold(self, warp, st, block, lo, hi):
            if block.position == self._k - 1 and block.matched is None:
                seen["child"].add(lo)
            return fold(self, warp, st, block, lo, hi)

        def spy_fill(self, warp, st, pos, block, slot):
            if pos == self._k - 1 and block is not None and block.matched is None:
                seen["replayed"] += 1
            return fill_level(self, warp, st, pos, block, slot)

        monkeypatch.setattr(MatchJob, "_fold", spy_fold)
        monkeypatch.setattr(MatchJob, "_fill_level", spy_fill)
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        truncating = TestInterruptibleLeafReplay
        for query, cfg in (("P3", FAST), (truncating.LOLLIPOP, truncating.TRUNCATING)):
            seen = {"child": set(), "replayed": 0}
            _, vec, spy_backend = assert_children_conformant(small_plc, query, cfg)
            assert spy_backend.built(4)
            assert len(seen["child"]) > 3 and min(seen["child"]) == 0
            if query == "P3":
                assert vec.count == match(small_plc, "P3", engine="cpu").count
        assert seen["replayed"] and vec.overflowed

    def test_level_two_decomposes_under_a_built_child(self, small_plc, small_cells):
        # τ = 400: position 2 ships the rest of its level to Q_task while
        # the cell that precomputed those survivors stays on the block; the
        # shipped slots are never replayed, the tasks run the scalar path.
        scalar, _, spy = assert_children_conformant(small_plc, "P3", STEAL)
        assert scalar.timeouts > 0 and spy.built(3) and spy.built(4)

    def test_half_steal_robs_a_cascaded_victim(
        self, small_plc, small_cells, monkeypatch
    ):
        """A thief truncates a victim's level 2 or 3 while the victim
        descends through cells: what the victim keeps stays aligned with its
        child's slots, the stolen half runs without a block."""
        depths = set()
        steal_from = HalfStealJob._steal_from

        def spy_steal(self, warp, victim):
            out = steal_from(self, warp, victim)
            if out is not None and out[0] == "prefix":
                depths.add(len(out[1]))
            return out

        monkeypatch.setattr(HalfStealJob, "_steal_from", spy_steal)
        cfg = TDFSConfig(num_warps=8, strategy=Strategy.HALF_STEAL, chunk_size=32)
        scalar, _, spy = assert_children_conformant(small_plc, "P3", cfg)
        assert scalar.steals > 0 and spy.built(3) and spy.built(4)
        assert depths >= {2, 3}, depths

    def test_truncation_at_a_middle_level_drops_the_child(
        self, small_plc, small_cells, monkeypatch
    ):
        """Capacity 8 cuts position-3 sets of P3 (whole adjacency lists):
        the level is rescanned, its subtree gets no child — the descendants
        were computed from the full set — and the counts stay identically
        wrong."""
        seen = {"dropped": 0, "kept": 0}
        child_of = MatchJob._child

        def spy(self, st, pos, block, slot):
            out = child_of(self, st, pos, block, slot)
            if pos == 3 and block is not None and len(st.filtered[pos]):
                truncated = st.levels[pos - 2].length != block.raw_sizes[slot]
                assert (out[0] is None) or not truncated
                seen["dropped" if truncated else "kept"] += 1
            return out

        monkeypatch.setattr(MatchJob, "_child", spy)
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        cfg = FAST.replace(stack_mode=StackMode.ARRAY_FIXED, chunk_size=3)
        scalar, vec, _ = assert_children_conformant(small_plc, "P3", cfg)
        assert scalar.overflowed and vec.overflowed
        assert scalar.count != match(small_plc, "P3", engine="cpu").count
        assert seen["dropped"] and seen["kept"], seen

    def test_overflow_raises_on_the_same_slot(self, small_plc, small_cells, monkeypatch):
        # A full page table raises: one page of eight ids here.
        monkeypatch.setattr(ouroboros, "DEFAULT_PAGE_BYTES", 32)
        cfg = FAST.replace(page_table_size=1, chunk_size=3)
        scalar, vec, _ = assert_children_conformant(small_plc, "P3", cfg)
        assert scalar.error is not None
        assert str(scalar.error) == str(vec.error)
        assert scalar.chunks_fetched == vec.chunks_fetched

    def test_release_pages(self, small_plc, small_cells):
        # The release rule interleaves frees with writes: no level is ever
        # warm, every leaf slot of a child is replayed write by write.
        cfg = FAST.replace(release_pages=True, chunk_size=3)
        _, _, spy = assert_children_conformant(small_plc, "P3", cfg)
        assert spy.built(4)

    @pytest.mark.parametrize("pattern", ["P3", "P5"])
    def test_spans_identical_with_tracing_on(self, pattern, small_plc, small_cells):
        assert_spans_identical(small_plc, pattern, STEAL.replace(chunk_size=3))

    @pytest.mark.parametrize("fault_seed", range(3 if EXHAUSTIVE else 2))
    def test_fault_plan_with_retry(self, fault_seed, small_plc, small_cells):
        cfg = TDFSConfig(num_warps=8, chunk_size=3)
        ctx = RunContext(
            fault_plan=FaultPlan.seeded(SEED_BASE + 10 + fault_seed),
            retry=RetryPolicy(max_attempts=4),
        )
        scalar, vec, spy = assert_children_conformant(small_plc, "P3", cfg, ctx=ctx)
        assert scalar.recovery.to_dict() == vec.recovery.to_dict()
        assert scalar.recovery.faults_injected > 0 and spy.built(3)

    def test_checkpoint_cuts_through_a_cell(self, small_plc, small_cells):
        """A snapshot taken while a warp is below a child cell — its stack
        holds views of the cell's survivors — resumes to the uninterrupted
        count, and the resumed runs conform."""

        def when(job):
            return any(
                st.busy_flag and st.filtered[3] is not None
                and st.iters[3] < len(st.filtered[3])
                for st in job.run_states
            )

        groups, _, _ = assert_checkpoint_resumes(
            small_plc, "P3", FAST.replace(chunk_size=3), 25, when
        )
        assert any(w > 2 for _, w in groups), "no partial item in the snapshot"

    def test_collect_matches(self, small_plc, small_cells):
        """Collecting keeps the leaf survivors: same embeddings, in the same
        order, and the same schedule."""
        spy = _ChildSpy()
        results = {
            name: TDFSEngine(FAST.replace(kernel_backend=backend)).run(
                small_plc, get_pattern("P3"), collect_matches=10**6
            )
            for name, backend in (("scalar", "scalar"), ("vectorized", spy))
        }
        assert_same(results["scalar"], results["vectorized"])
        assert results["scalar"].matches == results["vectorized"].matches
        assert len(results["scalar"].matches) == results["scalar"].count
        assert spy.built(4)

    def test_shared_backend_two_threads(self, small_plc, small_er, small_cells):
        """Cells live on their parent block, blocks on the job: two jobs on
        one backend instance never see each other's."""
        import sys
        import threading

        backend = _ChildSpy()
        cells = [(small_plc, "P3"), (small_er, "P5")]
        want = [
            match(g, p, config=FAST.replace(kernel_backend="scalar")) for g, p in cells
        ]
        got: list = [None, None]

        def work(i):
            for _ in range(2):
                g, p = cells[i]
                got[i] = match(g, p, config=FAST.replace(kernel_backend=backend))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for w, g in zip(want, got):
            assert_same(w, g)
        assert backend.built(3)


class TestChildBlockDeclines:
    """Each documented decline of a child cell takes the per-item path and
    still conforms."""

    def test_three_lists_decline(self, small_plc, small_cells):
        # P2 without reuse intersects three adjacency lists at its leaf.
        cfg = FAST.replace(enable_reuse=False)
        _, _, spy = assert_children_conformant(small_plc, "P2", cfg)
        assert spy.asks and not spy.built(3)

    def test_partner_cells_decline_without_a_bitset(
        self, small_plc, small_cells, monkeypatch
    ):
        # A 5-cycle reads one list at positions 2 and 3 and a partner pair
        # at 4: with no adjacency bitset the copy cells build, the partner
        # ones do not.
        monkeypatch.setattr(csr, "ADJACENCY_BITS_MAX_BYTES", 0)
        graph = CSRGraph(small_plc.row_ptr, small_plc.col_idx, name="no-bitset")
        _, _, spy = assert_children_conformant(graph, CYCLE5, FAST)
        assert spy.built(3) and not spy.built(4)
        assert any(position == 4 for position, _, _ in spy.asks)

    def test_egsm_labeled_is_never_asked(self, small_plc, small_cells):
        # Label-pruned adjacency: no prefix window, so nothing to descend.
        graph = relabel_random(small_plc, 3, seed=5)
        query = get_pattern("P3").with_labels([0, 1, 2, 0, 1])
        _, _, spy = assert_children_conformant(graph, query, FAST, engine="egsm")
        assert spy.asks == []

    def test_single_over_budget_slot_declines(self, small_plc, monkeypatch):
        """A hub's survivors gather more than the budget on their own: that
        slot has no child, its neighbours in the window do."""
        from repro.kernels import vectorized

        monkeypatch.setattr(vectorized, "PREFIX_VOLUME", 48)
        monkeypatch.setattr(vectorized, "PREFIX_MIN_ROWS", 1)
        # The window itself stays whole (PREFIX_MAX_ROWS untouched), so the
        # decline is the cell rule's, not the window's.
        _, _, spy = assert_children_conformant(small_plc, "P3", FAST)
        declined = [ask for ask in spy.asks if not ask[1]]
        assert declined and spy.built(3) and spy.built(4)
        assert all(base == 0 for _, _, base in declined)

    def test_three_vertex_query_is_never_asked(self, small_plc, small_cells):
        # k == 3: position 2 is the leaf, nothing descends from the window.
        _, _, spy = assert_children_conformant(small_plc, TRIANGLE, FAST)
        assert spy.asks == []

    def test_small_blocks_decline(self, small_plc):
        """Fewer survivors than ``PREFIX_MIN_ROWS`` in the whole parent are
        cheaper one by one (default constants: 9 rows make no window, 13
        make one whose handful of survivors is not worth a pass)."""
        every = small_plc.directed_edge_array()
        probe = _direct_job(small_plc, get_pattern("P3"), FAST, VectorizedBackend())
        for lo in range(0, len(every) - 13, 13):
            rows = every[lo : lo + 13]
            survivors = len(probe.backend.prefix_block(probe, rows).filtered)
            if 0 < survivors < PREFIX_MIN_ROWS:
                break
        else:
            pytest.fail("no 13-row window with a handful of survivors")
        results = {}
        spy = _ChildSpy()
        for name, backend in (("scalar", "scalar"), ("vec", spy)):
            engine = TDFSEngine(FAST.replace(kernel_backend=backend))
            results[name] = engine.run_resume(
                small_plc, get_pattern("P3"), [(rows, 2)]
            )
        assert_same(results["scalar"], results["vec"])
        assert spy.asks and not any(ok for _, ok, _ in spy.asks)


class _SpyBackend(VectorizedBackend):
    """Records every prefix-block offer and what came back."""

    def __init__(self):
        super().__init__()
        self.offers = []

    def prefix_block(self, job, rows):
        block = super().prefix_block(job, rows)
        self.offers.append(block)
        return block


class TestPrefixBlockDeclines:
    """Each documented decline takes the scalar path and still conforms."""

    def _run(self, graph, query, config, backend, engine="tdfs"):
        scalar = match(
            graph, query, engine=engine, config=config.replace(kernel_backend="scalar")
        )
        vec = match(
            graph, query, engine=engine, config=config.replace(kernel_backend=backend)
        )
        assert_same(scalar, vec)
        return vec

    def test_engaged_by_default(self, small_plc):
        spy = _SpyBackend()
        self._run(small_plc, "P2", FAST, spy)
        assert spy.offers and all(b is not None for b in spy.offers)
        covered = sum(b.window for b in spy.offers)
        assert covered >= small_plc.num_directed_edges

    def test_small_groups_decline(self, small_plc):
        # A handful of rows (a dynamic anchor run, a small recovery
        # snapshot) is cheaper row by row than through a block.
        rows = small_plc.directed_edge_array()[:9]
        results = {}
        for name, backend in (("scalar", "scalar"), ("vec", _SpyBackend())):
            engine = TDFSEngine(FAST.replace(kernel_backend=backend))
            results[name] = engine.run_resume(
                small_plc, get_pattern("P2"), [(rows, 2)]
            )
        assert_same(results["scalar"], results["vec"])
        assert backend.offers and all(b is None for b in backend.offers)

    def test_egsm_labeled_declines(self, small_plc):
        graph = relabel_random(small_plc, 3, seed=5)
        query = get_pattern("P2").with_labels([0, 1, 2, 0])
        spy = _SpyBackend()
        self._run(graph, query, FAST, spy, engine="egsm")
        assert spy.offers and all(b is None for b in spy.offers)

    def test_wider_groups_are_never_offered(self, small_plc):
        # Width-3 prefixes (what a recovery snapshot hands a resumed run):
        # the DFS starts one level deeper, scalar, and still counts exactly.
        plan = compile_plan(get_pattern("P7"))
        edges = small_plc.directed_edge_array()
        edges = edges[edge_mask(small_plc, plan, edges, prune_degree=True)]
        _, rows, _ = bfs_expand_level(small_plc, plan, edges, 2, FAST.cost)
        results = {}
        for name, backend in (("scalar", "scalar"), ("vec", _SpyBackend())):
            engine = TDFSEngine(FAST.replace(kernel_backend=backend))
            results[name] = engine.run_resume(small_plc, plan, [(rows, 3)])
        assert_same(results["scalar"], results["vec"])
        assert results["vec"].count == match(small_plc, "P7", engine="cpu").count
        assert backend.offers == []

    def test_host_prefiltered_rows_are_never_offered(self, small_plc):
        spy = _SpyBackend()
        self._run(small_plc, "P2", FAST, spy, engine="stmatch")
        assert spy.offers == []

    def test_two_vertex_query_is_never_offered(self, small_plc):
        spy = _SpyBackend()
        self._run(small_plc, QueryGraph(2, [(0, 1)], name="edge"), FAST, spy)
        assert spy.offers == []


# --------------------------------------------------------------------------- #
# Q_task tasks inherit the block slot that resolved them (it rides in the queue)
# --------------------------------------------------------------------------- #


@pytest.fixture()
def handoffs(monkeypatch, small_cells):
    """Spies on both ends of ``Q_task``.  Every hand-off a task is shipped
    with passes the index-alignment oracle: the slot's own path is the
    task.  ``kinds`` tallies ``(depth, hit)`` per dequeue, ``hits`` keeps
    ``(task, block, slot)``, ``queues`` every queue that dequeued."""
    seen = SimpleNamespace(kinds=Counter(), hits=[], queues={})

    def reset():
        seen.kinds.clear(), seen.hits.clear(), seen.queues.clear()

    seen.reset = reset
    enqueue, dequeue = LockFreeTaskQueue.enqueue, LockFreeTaskQueue.dequeue

    def spy_enqueue(queue, task, block=None, slot=0):
        if block is not None:
            if task.v3 == PLACEHOLDER:
                assert tuple(block.rows[slot]) == task[:2]
            elif block.matched is not None:  # a leaf child keeps no paths
                assert block.position == 3 and block.rows is None
                assert tuple(int(m[slot]) for m in block.matched) == task
        return enqueue(queue, task, block, slot)

    def spy_dequeue(queue):
        task, block, slot, cycles = dequeue(queue)
        if task is not None:
            seen.kinds[task.depth, block is not None] += 1
            seen.queues[id(queue)] = queue
            if block is not None:
                seen.hits.append((task, block, slot))
        return task, block, slot, cycles

    monkeypatch.setattr(LockFreeTaskQueue, "enqueue", spy_enqueue)
    monkeypatch.setattr(LockFreeTaskQueue, "dequeue", spy_dequeue)
    yield seen
    reset()


class TestTaskHandoff:
    """A dequeued task starts from the slot its shipper handed off: edge
    tasks from their prefix window's row, three-vertex tasks from the
    level-2 child's slot where the shape rule allows — and every miss or
    decline is the scalar path, cycle for cycle."""

    #: τ and the chunk are small enough that chunks ship their tails and
    #: level 2 ships its rest on every graph of the sweep.
    TASKS = TDFSConfig(num_warps=8, tau_cycles=300, chunk_size=4)
    CHUNKS = (1, 4, 8) if EXHAUSTIVE else (4,)

    @pytest.mark.parametrize("name", LEAF_PATTERNS)
    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("case", range(2 if EXHAUSTIVE else 1))
    def test_inherited_slots_equal_scalar(
        self, case, labeled, name, handoffs, monkeypatch
    ):
        seed = SEED_BASE + 1500 + case
        graph = case_labeled_graph(seed, 2) if labeled else case_graph(seed)
        shapes, tally = {}, Counter()
        query = get_pattern(name)
        if labeled:
            query = query.with_labels(
                [(seed + u) % 2 for u in range(query.num_vertices)]
            )
        for removal in (False, True):
            monkeypatch.setattr(MatchJob, "stmatch_removal", removal)
            for reuse in (False, True):
                cfg = self.TASKS.replace(
                    enable_reuse=reuse,
                    chunk_size=self.CHUNKS[(removal + reuse) % len(self.CHUNKS)],
                )
                handoffs.reset()
                assert_conformant(graph, query, cfg, label=name)
                # The scalar run's dequeues all miss; the vectorized
                # run's edge tasks all hit.
                kinds = handoffs.kinds
                assert kinds[2, True] == kinds[2, False]
                tally += kinds
                job = _direct_job(graph, query, cfg, VectorizedBackend())
                found = shapes.setdefault(reuse, set())
                if kinds[3, False] and job._task_blocks_end == 3:
                    # Every three-vertex task was shipped without a block.
                    assert not kinds[3, True]
                    found.add("shape-rule")
                for depth in (2, 3):
                    hits = [h for h in handoffs.hits if h[0].depth == depth]
                    found.update(
                        TestChildBlockSlots._check_tree(
                            graph, query, cfg, limit=40, job=job, hits=hits
                        )
                    )
        # The pattern dequeued both kinds of task.
        assert tally[2, True] and tally[3, False], tally
        if not labeled and name in ("P1", "P5", "P7"):
            # Position 2 seeds P1, P2 and P7 at position 3 and P5 below it.
            assert "shape-rule" in shapes[True], shapes
            assert "shape-rule" not in shapes[False], shapes
        if not labeled and name == "P3":
            assert "shape-rule" not in shapes[True], shapes

    def test_edge_tasks_fill_level_two_from_the_window(
        self, straggler_graph, handoffs, monkeypatch
    ):
        """Level 2 of an edge task is its window's slot, never ``_raw``;
        under tracing, which declines the subtree fold, so is every chunk
        row's."""
        fills = Counter()
        fill_level = MatchJob._fill_level

        def spy_fill(self, warp, st, pos, block, slot):
            if pos == 2:  # ``st.chunk`` is set while a warp works through rows
                fills[st.chunk is None, block is not None] += 1
            return fill_level(self, warp, st, pos, block, slot)

        cfg = TDFSConfig(num_warps=8, tau_cycles=300, chunk_size=8)
        traced = RunContext(obs=Observability(tracing=True))
        scalar = match(
            straggler_graph,
            "P2",
            config=cfg.replace(kernel_backend="scalar"),
            ctx=traced,
        )
        handoffs.reset()
        monkeypatch.setattr(MatchJob, "_fill_level", spy_fill)
        assert_same(scalar, match(straggler_graph, "P2", config=cfg, ctx=traced))
        edge_tasks = handoffs.kinds[2, True]
        assert edge_tasks > 0 and not handoffs.kinds[2, False]
        assert fills[True, True] == edge_tasks and not fills[True, False]
        assert fills[False, True] > 0

    @pytest.mark.parametrize("truncating", [False, True])
    def test_three_vertex_tasks_ask_the_child(
        self, truncating, small_plc, handoffs, monkeypatch
    ):
        """Level 3 of an inherited task is the child's slot — no ``_raw`` —
        and the level below is asked of it, unless the task folded whole at
        the fold-first site; capacity 8 cuts position-3 sets of P3 on the
        dequeuing warp, which drops the child there and keeps the counts
        identically wrong."""
        asked = Counter()
        child_of, raw, fold = MatchJob._child, MatchJob._raw, MatchJob._fold

        def spy_child(self, st, pos, block, slot):
            out = child_of(self, st, pos, block, slot)
            if st.item_prefix == pos == 3 and block is not None:
                cut = st.levels[pos - 2].length != block.raw_sizes[slot]
                assert out[0] is None or not cut
                asked["child", cut] += 1
            return out

        def spy_raw(self, st, pos):
            asked["raw"] += st.item_prefix == pos == 3
            return raw(self, st, pos)

        def spy_fold(self, warp, st, block, lo, hi):
            took = fold(self, warp, st, block, lo, hi)
            # Only a three-vertex task's own slot is a position-3 block below
            # a three-vertex prefix; a task folds whole or not at all.
            asked["folded"] += st.item_prefix == block.position == 3 and took
            return took

        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        cfg = TestInterruptibleLeafReplay.TRUNCATING if truncating else FAST
        cfg = cfg.replace(tau_cycles=300, chunk_size=4)  # TASKS, capacity 8
        scalar = match(small_plc, "P3", config=cfg.replace(kernel_backend="scalar"))
        handoffs.reset()
        monkeypatch.setattr(MatchJob, "_child", spy_child)
        monkeypatch.setattr(MatchJob, "_raw", spy_raw)
        monkeypatch.setattr(MatchJob, "_fold", spy_fold)
        assert_same(scalar, match(small_plc, "P3", config=cfg))
        hits, misses = handoffs.kinds[3, True], handoffs.kinds[3, False]
        assert hits and asked["folded"] < hits
        assert asked["child", False] + asked["child", True] + asked["folded"] == hits
        assert asked["raw"] == misses
        assert scalar.overflowed == bool(asked["child", True]) == truncating
        exact = match(small_plc, "P3", engine="cpu").count
        assert (scalar.count != exact) == truncating

    @pytest.mark.parametrize(
        "overrides",
        [{"queue_capacity_tasks": n} for n in (2, 3, 4)] + [{"release_pages": True}],
        ids=str,
    )
    def test_full_queue_and_page_release(self, overrides, small_plc, handoffs):
        # A refused enqueue stores nothing; the remainder is processed in
        # place.
        cfg = self.TASKS.replace(**overrides)
        _, vec = assert_conformant(small_plc, "P3", cfg)
        assert handoffs.kinds[2, True] and handoffs.kinds[3, True]
        assert bool(vec.queue.enqueue_failures) == ("queue_capacity_tasks" in overrides)

    def test_spans_identical_with_tracing_on(self, small_plc, handoffs):
        assert_spans_identical(small_plc, "P3", self.TASKS)
        assert handoffs.kinds[2, True] and handoffs.kinds[3, True]

    @pytest.mark.parametrize("pattern", ["P1", "P3"])  # a leaf child, a middle one
    def test_collect_matches(self, pattern, small_plc, handoffs):
        cfg = self.TASKS.replace(enable_reuse=False)
        scalar, vec = (
            TDFSEngine(cfg.replace(kernel_backend=name)).run(
                small_plc, get_pattern(pattern), collect_matches=10**6
            )
            for name in ("scalar", "vectorized")
        )
        assert_same(scalar, vec)
        assert scalar.matches == vec.matches and len(vec.matches) == vec.count
        assert handoffs.kinds[2, True] and handoffs.kinds[3, True]

    @pytest.mark.parametrize("fault_seed", range(3 if EXHAUSTIVE else 2))
    def test_queue_corruption_with_retry(self, fault_seed, small_plc, handoffs):
        ctx = RunContext(
            fault_plan=FaultPlan(
                seed=SEED_BASE + fault_seed, queue_corruption_rate=0.01
            ),
            retry=RetryPolicy(max_attempts=6),
        )
        scalar, vec = assert_conformant(small_plc, "P3", self.TASKS, ctx=ctx)
        assert scalar.recovery.to_dict() == vec.recovery.to_dict()
        assert scalar.recovery.faults_by_kind["queue-corruption"] > 0
        assert vec.count == match(small_plc, "P3", engine="cpu").count
        assert handoffs.kinds[2, True] and handoffs.kinds[3, True]
        # An aborted attempt dies with its queued hand-offs; the recovered
        # tasks of the next one come out of the snapshot and miss.
        assert any(
            block is not None
            for queue in handoffs.queues.values()
            for _, block, _ in queue
        )

    def test_checkpoint_with_tasks_in_flight(self, small_plc, handoffs):
        """The snapshot reads the queued tasks and carries no block; the
        resumed runs start every queued task without one."""

        def handed_off(job):
            """At least four queued tasks: how many carry a hand-off."""
            blocks = [block for _, block, _ in job.queue]
            return len(blocks) >= 4 and ("entries", sum(b is not None for b in blocks))

        _, _, entries = assert_checkpoint_resumes(
            small_plc, "P3", self.TASKS, 25, handed_off
        )
        assert entries[1] >= 4

    def test_shards(self, small_plc):
        # No spies: the shard workers are other processes.
        scalar, vec = assert_conformant(small_plc, "P3", self.TASKS.replace(shards=2))
        assert scalar.timeouts > 0
        assert vec.count == match(small_plc, "P3", engine="cpu").count


# --------------------------------------------------------------------------- #
# Subtree folds: runs of block slots advance by running totals (MatchJob._fold)
# --------------------------------------------------------------------------- #


def _unbuilt(block, slot) -> bool:
    """Whether ``slot``'s subtree meets a cell without a child (once a fold
    has totalled the block, every cell below it is built)."""
    offs = block.filtered_offsets
    if block.filtered is None or offs[slot] == offs[slot + 1]:
        return False
    at = block.child_at(slot)
    if at is None:  # the fold declined before totalling the block
        return False
    child, base = at
    n = offs[slot + 1] - offs[slot]
    return child is None or any(_unbuilt(child, base + i) for i in range(n))


def _attempts(monkeypatch) -> list:
    """Spies on device attempts: how each ended — the error's type and
    text, the job's count, the scheduler's clock and every warp's busy
    cycles — even where the result keeps none of it (an OOM zeroes the
    count)."""
    ended, attempt = [], TDFSEngine._run_attempt

    def spy(engine, *args, **kwargs):
        out = attempt(engine, *args, **kwargs)
        _, job, gpu, fatal = out
        busy = [warp.busy_cycles for warp in gpu.warps]
        ended.append((type(fatal), str(fatal), job.count, gpu.scheduler.now, busy))
        return out

    monkeypatch.setattr(TDFSEngine, "_run_attempt", spy)
    return ended


@pytest.fixture()
def folds(monkeypatch, small_cells):
    """Spies on :meth:`MatchJob._fold`: ``asks`` counts its calls and
    ``tall`` those of blocks above the leaf, ``leaves`` the leaf slots
    leaf folds took (by pre-leaf path, with whether it began the run) and
    ``leaf_stops`` the slots they stopped before, ``rows`` lists the chunk
    rows folds took and ``task_rows`` the edge tasks' rows, ``stops`` and
    ``task_stops`` the rows a fold stopped before (with whether the row
    meets a cell without a child), ``slots`` counts candidates folded below
    a level and ``in_tasks`` those inside a ``Q_task`` task; ``chunks`` maps
    a warp to ``(state, rows)`` for the last chunk a fold took rows of.
    ``grew`` counts the folds that took page growth and ``grown`` keeps the
    rows and leaf slots they took; ``cold_stops`` counts the other folds
    that stopped right before their first slot that would allocate (none
    takes that slot).

    A prefix window's row folds either inside :meth:`MatchJob._process_chunk`
    (``st.chunk`` is set) or at the fold-first site of ``warp_body`` right
    after the warp claimed it — no yield between — so the last claim made,
    a chunk fetch or a task's dequeue, tells the two kinds apart."""
    seen = SimpleNamespace(
        asks=0, tall=0, rows=[], stops=[], slots=0, in_tasks=0, chunks={},
        leaves=[], leaf_stops=[], task_rows=[], task_stops=[], claimed=None,
        grew=0, grown=set(), cold_stops=0,
    )
    fold = MatchJob._fold
    next_chunk, dequeue = MatchJob._next_chunk, LockFreeTaskQueue.dequeue

    def spy_next_chunk(self):
        seen.claimed = "chunk"
        return next_chunk(self)

    def spy_dequeue(queue):
        got = dequeue(queue)
        if got[0] is not None:
            seen.claimed = "task"
        return got

    def spy(self, warp, st, block, lo, hi):
        seen.asks += 1
        seen.tall += block.position < self._k - 1
        if block.position == self._k - 1:
            pos = block.position - 1
            f, i, prefix = st.filtered[pos], st.iters[pos], tuple(st.path[:pos])
        caps = [level.capacity for level in st.levels]
        arena = getattr(st.levels[0], "allocator", None)
        allocs = arena.total_allocs if arena is not None else 0
        took = fold(self, warp, st, block, lo, hi)
        grew = arena is not None and arena.total_allocs > allocs
        seen.grew += grew
        if block.subtree is not None and not grew:
            top, highs = block.position, block.subtree[7]
            first = next(
                (
                    s
                    for s in range(lo, hi)
                    if any(h[s] > caps[top - 2 + d] for d, h in enumerate(highs))
                ),
                hi,
            )
            assert lo + took <= first, "a fold took a slot it did not grow for"
            seen.cold_stops += lo + took == first < hi
        if block.position == self._k - 1:
            keys = [prefix + (int(v),) for v in f[i : i + took + 1]]
            seen.leaves += [(key, j == 0) for j, key in enumerate(keys[:took])]
            if grew:
                seen.grown.update(keys[:took])
            if lo + took < hi:
                seen.leaf_stops.append(keys[took])
        if block.rows is None:
            seen.slots += took
            seen.in_tasks += took if st.chunk is None else 0
            return took
        in_chunk = st.chunk is not None or seen.claimed == "chunk"
        rows, stops = (
            (seen.rows, seen.stops) if in_chunk else (seen.task_rows, seen.task_stops)
        )
        taken = [tuple(row) for row in block.rows[lo : lo + took].tolist()]
        rows += taken
        if grew:
            seen.grown.update(taken)
        if took and in_chunk:
            chunk = st.chunk if st.chunk is not None else block.rows[lo:hi]
            seen.chunks[id(st)] = (st, chunk.tolist())
        if lo + took < hi:
            row = tuple(block.rows[lo + took].tolist())
            stops.append((row, _unbuilt(block, lo + took)))
        return took

    monkeypatch.setattr(MatchJob, "_fold", spy)
    monkeypatch.setattr(MatchJob, "_next_chunk", spy_next_chunk)
    monkeypatch.setattr(LockFreeTaskQueue, "dequeue", spy_dequeue)
    return seen


def replayed_rows(graph, pattern, cfg) -> dict:
    """What the per-slot replay (tracing on: nothing folds) shows in each
    chunk row of a prefix window, and in each edge task that starts from one
    (keyed ``("task", *row)``): ``sync`` — a yield inside it; ``timeout``
    — a check fired at its start or inside it; ``cold`` — a level allocated
    or truncated.  The virtual schedule is the folded run's, so a row is the
    same row at the same virtual time in both.  Each leaf slot is logged too,
    by its pre-leaf path: ``sync`` — its turn yielded; ``timeout`` — its
    turn's check fired; ``cold`` — its write allocated or truncated."""
    log, syncs = {}, Counter()
    sync, item = Warp.sync, MatchJob._process_item
    ship = MatchJob._enqueue_remaining_edges
    leaf, decompose = MatchJob._expand_leaf, MatchJob._decompose_level

    def spy_sync(self):
        syncs[self.wid] += 1
        return sync(self)

    def seen(warp, st):
        return (
            syncs[warp.wid],
            warp.timeouts,
            # Pages held (a paged level's capacity) and truncations per level.
            tuple((level.capacity, getattr(level, "overflows", 0)) for level in st.levels),
        )

    def spy_item(self, warp, st, prefix_len, block=None, slot=0):
        if block is None or block.rows is None:
            return (yield from item(self, warp, st, prefix_len, block, slot))
        # A chunk row by its row, an edge task that inherited its row by
        # ``("task", *row)``.
        row = (st.path[0], st.path[1])
        if st.chunk is None:
            row = ("task", *row)
        before = seen(warp, st)
        yield from item(self, warp, st, prefix_len, block, slot)
        flags = ("sync", "timeout", "cold", "cold")
        log.setdefault(row, set()).update(
            flag for flag, a, b in zip(flags, before, seen(warp, st)) if a != b
        )

    def spy_ship(self, warp, st, block, slot):
        log.setdefault(tuple(st.chunk[st.chunk_pos].tolist()), set()).add("timeout")
        return (yield from ship(self, warp, st, block, slot))

    def spy_leaf(self, warp, st, pos, cycles, block=None, slot=0):
        if not cycles:  # an item that starts at the leaf: no loop turn
            return leaf(self, warp, st, pos, cycles, block, slot)
        flags = log.setdefault(tuple(st.path[:pos]), set())
        if st.nodes == 0:  # the turn's tick reached the sync interval
            flags.add("sync")
        before = seen(warp, st)
        leaf(self, warp, st, pos, cycles, block, slot)
        if before[2:] != seen(warp, st)[2:]:
            flags.add("cold")

    def spy_decompose(self, warp, st, pos, child, base):
        key = tuple(st.path[:pos]) + (int(st.filtered[pos][st.iters[pos]]),)
        log.setdefault(key, set()).add("timeout")
        return (yield from decompose(self, warp, st, pos, child, base))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Warp, "sync", spy_sync)
        m.setattr(MatchJob, "_process_item", spy_item)
        m.setattr(MatchJob, "_enqueue_remaining_edges", spy_ship)
        m.setattr(MatchJob, "_expand_leaf", spy_leaf)
        m.setattr(MatchJob, "_decompose_level", spy_decompose)
        traced = RunContext(obs=Observability(tracing=True))
        match(graph, pattern, config=cfg, ctx=traced)
    return log


class TestSubtreeFold:
    """A run of block slots folds — one charge from subtree totals — exactly
    as far as nobody could see its per-slot replay: each stop is checked
    against the per-slot replay of the same rows, each axis against the
    scalar backend, and each decline by the spy never folding."""

    #: τ and chunk at which small-plc ships chunk tails and level-2 rests.
    STOPS = TDFSConfig(num_warps=8, tau_cycles=1500, chunk_size=8)
    MODES = tuple(StackMode) if EXHAUSTIVE else (StackMode.PAGED,)

    @pytest.mark.parametrize("pattern", ["P1", "P3", "P5"] if EXHAUSTIVE else ["P3"])
    def test_stops_exactly_where_the_replay_is_seen(self, pattern, small_plc, folds):
        log = replayed_rows(small_plc, pattern, self.STOPS)
        assert_conformant(small_plc, pattern, self.STOPS)
        assert folds.rows, "no chunk fold engaged"
        # A row or leaf slot a fold took shows nothing in its replay, but
        # the pages it allocated when the fold took them as growth.
        def shown(key, row):
            return log[key] - ({"cold"} if row in folds.grown else set())

        for row in folds.rows:
            assert not shown(row, row), (row, log[row])
        reasons = Counter()
        for row, unbuilt in folds.stops:
            why = log.get(row, set()) | ({"unbuilt"} if unbuilt else set())
            assert why, f"a fold stopped before {row} for no reason"
            reasons.update(why)
        assert {"sync", "timeout"} <= set(reasons), reasons
        # Edge tasks fold whole or not at all, against their own replay.
        assert folds.task_rows, "no edge task folded"
        for row in folds.task_rows:
            assert not shown(("task", *row), row), (row, log[("task", *row)])
        for row, unbuilt in folds.task_stops:
            why = log[("task", *row)] | ({"unbuilt"} if unbuilt else set())
            assert why, f"a task fold declined {row} for no reason"
        # Leaf folds: a run's first slot was picked up by the caller's turn
        # (its sync and timeout check are the caller's); no other slot shows
        # anything, and every stop is right before a slot that does.
        assert folds.leaves, "no leaf fold engaged"
        for key, first in folds.leaves:
            assert not shown(key, key) - ({"sync", "timeout"} if first else set()), (
                key, log[key],
            )
        leaf_reasons = Counter()
        for key in folds.leaf_stops:
            assert log.get(key), f"a leaf fold stopped before {key} for no reason"
            leaf_reasons.update(log[key])
        # P1's sets are small: its levels are warm before any fold.
        # Elsewhere folds take their growth, so no leaf fold stops at a cold
        # slot here (``cold`` stops: test_fallbacks_stop_before_growth).
        wanted = {"sync", "timeout"} if pattern == "P1" else {"sync"}
        assert wanted <= set(leaf_reasons), leaf_reasons
        assert pattern == "P1" or folds.grown, "no fold took page growth"

    @pytest.mark.parametrize("pattern", ["P1", "P3", "P5"])
    def test_whole_folds_build_no_generator(self, pattern, small_plc, monkeypatch):
        """A chunk or a task that folds whole at the fold-first site builds
        no generator for its item; one that does not builds it right away,
        with no yield in between."""
        seen = SimpleNamespace(site=None, whole=None, tally=Counter())
        originals = {
            name: getattr(MatchJob, name)
            for name in ("_next_chunk", "_fold", "_process_chunk", "_process_task")
        }
        dequeue = LockFreeTaskQueue.dequeue

        def claim_chunk(self):
            seen.site, seen.whole = "chunk", None
            return originals["_next_chunk"](self)

        def claim_task(queue):
            got = dequeue(queue)
            if got[0] is not None:
                seen.site, seen.whole = "task", None
            return got

        def spy_fold(self, warp, st, block, lo, hi):
            took = originals["_fold"](self, warp, st, block, lo, hi)
            if seen.site is not None:
                seen.whole = lo + took == hi
                seen.tally[seen.site, seen.whole] += 1
                seen.site = None
            return took

        def built(name):
            def spy(self, *args, **kwargs):
                assert seen.whole is not True, f"{name} after a whole fold"
                seen.site = None
                return originals[name](self, *args, **kwargs)
            return spy

        monkeypatch.setattr(MatchJob, "_next_chunk", claim_chunk)
        monkeypatch.setattr(LockFreeTaskQueue, "dequeue", claim_task)
        monkeypatch.setattr(MatchJob, "_fold", spy_fold)
        for name in ("_process_chunk", "_process_task"):
            monkeypatch.setattr(MatchJob, name, built(name))
        assert_conformant(small_plc, pattern, self.STOPS)
        tally = seen.tally
        assert tally["chunk", True] and tally["task", True], tally
        assert tally["chunk", False], tally

    def test_partial_chunk_resumes_at_its_stop_row(self, small_plc, monkeypatch):
        """A chunk whose first rows folded at the fold-first site resumes
        :meth:`MatchJob._process_chunk` at the row the fold stopped before:
        that row is the first one processed or shipped, per slot, under the
        chunk's own ``t0``."""
        pending, resumed = {}, Counter()
        chunk, item = MatchJob._process_chunk, MatchJob._process_item
        ship = MatchJob._enqueue_remaining_edges

        def spy_chunk(self, warp, st, edges, block=None, slot=0, start=0):
            if start:
                pending[id(st)] = (edges[start].tolist(), start, st.t0)
            return chunk(self, warp, st, edges, block, slot, start)

        def first_row(st, how):
            row, start, t0 = pending.pop(id(st))
            assert st.t0 == t0, "the resumed chunk restarted its clock"
            assert st.chunk[st.chunk_pos - (how == "item")].tolist() == row
            assert st.chunk_pos == start + (how == "item")
            resumed[how] += 1

        def spy_item(self, warp, st, prefix_len, block=None, slot=0):
            if st.chunk is not None and id(st) in pending:
                first_row(st, "item")
            return item(self, warp, st, prefix_len, block, slot)

        def spy_ship(self, warp, st, block, slot):
            if id(st) in pending:
                first_row(st, "ship")
            return ship(self, warp, st, block, slot)

        monkeypatch.setattr(MatchJob, "_process_chunk", spy_chunk)
        monkeypatch.setattr(MatchJob, "_process_item", spy_item)
        monkeypatch.setattr(MatchJob, "_enqueue_remaining_edges", spy_ship)
        assert_conformant(small_plc, "P3", self.STOPS)
        assert resumed["item"] and not pending, (resumed, pending)

    @pytest.mark.parametrize("reuse", [True, False])
    @pytest.mark.parametrize("pattern", ["P1", "P3", "P5"])
    def test_task_rules(self, pattern, reuse, small_plc, handoffs, monkeypatch):
        """Which handed-off tasks the fold-first site offers to the fold:
        every edge task, and a three-vertex task only where every block
        below it holds for it — never one whose first unfilled position is
        the leaf."""
        seen = Counter()
        dequeue, fold, task = (
            LockFreeTaskQueue.dequeue, MatchJob._fold, MatchJob._process_task
        )
        site = {}

        def spy_dequeue(queue):
            got = dequeue(queue)
            if got[1] is not None:
                site["depth"] = got[0].depth
            return got

        def spy_fold(self, warp, st, block, lo, hi):
            depth = site.pop("depth", None)
            if depth is not None:
                k = self._k
                assert depth < k - 1, "a task starting at the leaf was offered"
                assert depth == 2 or self._task_blocks_end == k
                seen["offered", depth] += 1
            return fold(self, warp, st, block, lo, hi)

        def spy_task(self, warp, st, t, block, slot):
            depth = site.pop("depth", None)
            if depth is not None:  # handed a block, not offered to the fold
                leaf = depth == self._k - 1
                shape = depth == 3 and self._task_blocks_end < self._k
                seen["leaf" if leaf else "shape" if shape else "other", depth] += 1
            return task(self, warp, st, t, block, slot)

        monkeypatch.setattr(LockFreeTaskQueue, "dequeue", spy_dequeue)
        monkeypatch.setattr(MatchJob, "_fold", spy_fold)
        monkeypatch.setattr(MatchJob, "_process_task", spy_task)
        assert_conformant(small_plc, pattern, self.STOPS.replace(enable_reuse=reuse))
        # P1's three-vertex tasks start at its leaf (with reuse the shape
        # rule withholds their blocks at the ship site); with reuse the
        # shape rule withholds position 4 from P5's.
        want = {("P1", False): "leaf", ("P1", True): None, ("P5", True): "shape"}
        want = want.get((pattern, reuse), "offered")
        assert seen["offered", 2]
        assert bool(handoffs.kinds[3, True]) == (want is not None), handoffs.kinds
        assert {kind for kind, depth in seen if depth == 3} == {want} - {None}, seen

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_strategies_and_stack_modes(self, strategy, mode, small_plc, folds, monkeypatch):
        monkeypatch.setattr(ChildKernelJob, "fanout", 4)
        cfg = TDFSConfig(
            num_warps=8,
            strategy=strategy,
            chunk_size=3,
            tau_cycles=600,
            stack_mode=mode,
        )
        assert_conformant(small_plc, "P3", cfg, label=f"{strategy.value}/{mode.value}")
        if strategy in (Strategy.TIMEOUT, Strategy.NONE):
            assert folds.rows and folds.slots
        else:  # a fill above the leaf locks a stack or may launch a kernel
            assert folds.asks and not folds.tall

    def test_release_pages_never_folds(self, small_plc, folds):
        # Frees interleave with writes: no level is ever warm.
        assert_conformant(small_plc, "P3", FAST.replace(release_pages=True))
        assert folds.asks and not (folds.rows or folds.slots)

    @pytest.mark.parametrize("page_bytes", [16, 64, 256])
    def test_folds_take_page_growth(self, page_bytes, small_plc, folds, monkeypatch):
        """A run that outgrows its levels folds and takes their pages: page
        peak, stack bytes, events and every warp's busy cycles equal the
        per-slot replay's."""
        ended = _attempts(monkeypatch)
        monkeypatch.setattr(ouroboros, "DEFAULT_PAGE_BYTES", page_bytes)
        scalar, vec = assert_conformant(small_plc, "P3", self.STOPS)
        for key in (
            "alloc.pages_in_use.peak", "mem.stack_bytes", "sim.busy_cycles", "sim.events"
        ):
            assert scalar.metrics[key] == vec.metrics[key], key
        assert ended[0] == ended[1]  # every warp's busy cycles included
        assert folds.grew and folds.grown, "no fold took page growth"

    #: Where a fold may not take its growth, as ``(graph, pattern, config,
    #: page bytes, error)``: the arena lacks the pages (one short of the
    #: run's peak), the page table cannot hold them, or their charge would
    #: reach a live check.
    FALLBACKS = {
        "arena": ("small_plc", "P5", FAST, 64, DeviceOOMError),
        "table": (
            "small_er", "P3", FAST.replace(page_table_size=2), 16,
            StackLevelOverflowError,
        ),
        "tau": ("small_plc", "P3", STOPS.replace(tau_cycles=3000), 16, type(None)),
    }

    @pytest.mark.parametrize("fallback", list(FALLBACKS))
    def test_fallbacks_stop_before_growth(self, fallback, request, folds, monkeypatch):
        """A fold that may not grow stops right before its first slot that
        would allocate; the per-slot replay then ends the same way as the
        scalar run — the same error at the same count, cycle and busy
        cycles, or, under τ, a stop before a row whose replay shows only
        the allocation."""
        name, pattern, cfg, page_bytes, error = self.FALLBACKS[fallback]
        monkeypatch.setattr(ouroboros, "DEFAULT_PAGE_BYTES", page_bytes)
        graph = request.getfixturevalue(name)
        if fallback == "arena":
            peak = match(graph, pattern, config=cfg).metrics["alloc.pages_in_use.peak"]
            cfg = cfg.replace(arena_pages=peak - 1)
        ended = _attempts(monkeypatch)
        assert_conformant(graph, pattern, cfg)
        assert ended[-2] == ended[-1] and ended[-1][0] is error
        assert folds.cold_stops, "no fold stopped before a slot that allocates"
        if fallback == "tau":
            log = replayed_rows(graph, pattern, cfg)
            assert any(log.get(row) == {"cold"} for row, _ in folds.stops), (
                "no fold stopped for its growth charge alone"
            )

    def test_truncating_array_stacks(self, small_plc, folds, monkeypatch):
        # A slot whose subtree would truncate is cold: it and everything
        # after it in the run go slot by slot, the rest folds.
        monkeypatch.setattr(config_module, "STMATCH_FIXED_CAPACITY", 8)
        cfg = TestInterruptibleLeafReplay.TRUNCATING.replace(chunk_size=3)
        scalar, vec = assert_conformant(small_plc, "P3", cfg)
        assert scalar.overflowed and vec.overflowed and folds.rows

    def test_spans_identical_with_tracing_on(self, small_plc, folds):
        assert_spans_identical(small_plc, "P3", TestTaskHandoff.TASKS)
        assert folds.asks == 0

    def test_fault_plan_with_retry(self, small_plc, folds):
        ctx = RunContext(
            fault_plan=FaultPlan.seeded(SEED_BASE + 10),
            retry=RetryPolicy(max_attempts=4),
        )
        scalar, vec = assert_conformant(small_plc, "P3", FAST, ctx=ctx)
        assert scalar.recovery.to_dict() == vec.recovery.to_dict()
        assert scalar.recovery.faults_injected > 0 and folds.asks == 0

    def test_checkpoint_cuts_a_folded_chunk(self, small_plc, folds):
        """A snapshot taken inside a chunk whose first rows folded: the fold
        left ``chunk_pos`` where the per-slot replay does and no pending
        candidates on the stack, so the snapshots are equal and both resume
        to the uninterrupted count."""

        def when(job):
            if job.count < 350:  # past the cold start: levels warm, rows fold
                return None
            for st in job.run_states:
                if (
                    st.busy_flag
                    and st.chunk is not None
                    and st.chunk_pos < len(st.chunk)
                ):
                    state, rows = folds.chunks.get(id(st), (None, None))
                    folded = state is st and rows == st.chunk.tolist()
                    return "folded" if folded else "per-slot"

        _, _, note = assert_checkpoint_resumes(
            small_plc, "P3", FAST.replace(chunk_size=16), 25, when
        )
        assert note == "folded", "the checkpoint did not land in a folded chunk"

    def test_collect_matches_never_folds(self, small_plc, folds):
        results = [
            TDFSEngine(FAST.replace(kernel_backend=name)).run(
                small_plc, get_pattern("P3"), collect_matches=10**6
            )
            for name in ("scalar", "vectorized")
        ]
        assert_same(*results)
        assert results[0].matches == results[1].matches and folds.asks == 0

    @pytest.mark.parametrize("pattern", ["P3", "P11"])
    def test_folds_past_tau_below_level_two(self, pattern, small_plc, monkeypatch):
        """τ is checked only at level 2 of an edge item, so blocks at position
        4 fold on in items already past τ: P3's leaf blocks and P11's level
        folds at position 3."""
        late = Counter()
        fold = MatchJob._fold

        def spy(self, warp, st, block, lo, hi):
            past = warp.now - st.t0 > self.tau
            took = fold(self, warp, st, block, lo, hi)
            if block.position == 4 and past:
                late["slots"] += took
            return took

        monkeypatch.setattr(MatchJob, "_fold", spy)
        scalar, _ = assert_conformant(small_plc, pattern, TestTaskHandoff.TASKS)
        assert scalar.timeouts and late["slots"], late

    @pytest.mark.parametrize("pattern", ["P1", "P3", "P5"])
    def test_folds_leave_nothing_read(self, pattern, small_plc, small_cells, monkeypatch):
        """A fold writes only what is read afterwards.  At entry no level at
        or below the block's holds pending candidates, so there are none
        for it to mark done; and poisoning, after every fold that took
        slots, the contents of those levels and the path past the level
        above them changes no conformance field and no checkpoint
        snapshot."""
        fold, engaged = MatchJob._fold, Counter()
        state = SimpleNamespace(poison=False)
        # Read as a candidate or reuse set, this breaks the count or raises.
        poison = np.full(1, -1, dtype=np.int32)

        def spy(self, warp, st, block, lo, hi):
            top = block.position
            for p in range(top, self._k):
                f = st.filtered[p]
                assert f is None or st.iters[p] >= len(f), (p, st.iters[p], len(f))
            took = fold(self, warp, st, block, lo, hi)
            if took:
                engaged["leaf" if top == self._k - 1 else "tall"] += 1
                if state.poison:
                    for level in st.levels[top - 2 :]:
                        level.data = level.raw = poison
                    st.path[top:] = [-1] * (len(st.path) - top)
            return took

        def run(cfg, poison, every):
            state.poison, snaps = poison, []

            def hook(job, now):
                snaps.append([(r.tolist(), w) for r, w in snapshot_pending_work(job)])

            ctx = RunContext(checkpoint_every_events=every, checkpoint_hook=hook)
            return match(small_plc, pattern, config=cfg, ctx=ctx if every else None), snaps

        monkeypatch.setattr(MatchJob, "_fold", spy)
        sweep = (
            ("fast", FAST, 0),
            ("steal", STEAL, 0),
            ("chunk-16", FAST.replace(chunk_size=16), 0),
            ("release-pages", FAST.replace(release_pages=True), 0),
            ("checkpoint-25", FAST.replace(chunk_size=16), 25),
        )
        for label, cfg, every in sweep:
            plain, plain_snaps = run(cfg, False, every)
            poisoned, snaps = run(cfg, True, every)
            assert_same(poisoned, plain, f"{pattern}/{label}")
            assert snaps == plain_snaps, label
            assert bool(snaps) == bool(every), label
        assert engaged["leaf"] and engaged["tall"], engaged

    def test_tasks_fold_below_inherited_slots(self, small_plc, handoffs, folds):
        # Edge tasks start from their window's row and fold level 2's
        # candidates from the child cell below it.
        assert_conformant(small_plc, "P3", TestTaskHandoff.TASKS)
        assert handoffs.kinds[2, True] and folds.in_tasks

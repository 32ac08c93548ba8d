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
tests force block engagement with ``VectorizedBackend(min_batch=1)`` so
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
from repro.alloc.stack import WarpStack, array_level_factory
from repro.baselines.pbe import bfs_expand_level
from repro.core.candidates import filter_candidates
from repro.core.config import StackMode, Strategy
from repro.core.edge_filter import edge_mask
from repro.core.engine import TDFSEngine
from repro.core.intersect import intersect_sorted
from repro.core.warp_matcher import MatchJob, RunState
from repro.errors import ReproError
from repro.faults.recovery import snapshot_pending_work
from repro.gpusim.device import VirtualGPU
from repro.graph.builder import relabel_random
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
from repro.taskqueue.tasks import PLACEHOLDER
from tests.fuzz import (  # shared case space (see tests/fuzz.py)
    FAST,
    SEED_BASE,
    STEAL,
    case_graph,
    case_labeled_graph,
    case_query,
)

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
        # Page release interleaves frees with writes, so ``plan_writes``
        # declines and every block falls back to the scalar write loop —
        # which must still be charge-identical.
        cfg = FAST.replace(release_pages=True)
        assert_conformant(small_plc, "P3", cfg, label="release")

    def test_truncating_array_stacks(self, small_plc):
        # STMatch-style fixed levels with silent truncation: both backends
        # must truncate the *same* candidates (the vectorized plan declines
        # on any would-be overflow) and report the overflow flag.
        cfg = FAST.replace(
            stack_mode=StackMode.ARRAY_FIXED,
            fixed_capacity=8,
            truncate_on_overflow=True,
        )
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
    """White-box: ``min_batch=1`` removes the size gate, so even tiny
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
            backend = VectorizedBackend(min_batch=1)
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
        assert engaged, "min_batch=1 never engaged the block path in the slice"

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
            config=STEAL.replace(kernel_backend=VectorizedBackend(min_batch=1)),
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
        job.graph, job.plan, st.path, position, raw, job.cost, cfg.stmatch_removal
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
                for prune in (False, True):
                    cfg = FAST.replace(
                        stmatch_removal=removal, enable_edge_filter=prune
                    )
                    checked += self._check_rows(graph, query, cfg)
        assert checked, "no row survived the edge filter anywhere in the case"

    @staticmethod
    def _check_rows(graph, query, cfg) -> int:
        job = _direct_job(graph, query, cfg, VectorizedBackend())
        plan = job.plan
        k = plan.num_levels
        st = RunState(k, WarpStack(k, job.level_factory))
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
    def test_block_equals_scalar_per_slot(self, case, labeled):
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
                for reuse in (False, True):
                    cfg = FAST.replace(stmatch_removal=removal, enable_reuse=reuse)
                    shapes |= self._check_windows(graph, query, cfg)
        # Both kinds of block were produced, and some shape declined.
        assert shapes >= {"shared", "segmented", "declined"}, shapes

    @staticmethod
    def _check_windows(graph, query, cfg, limit=12) -> set:
        job = _direct_job(graph, query, cfg, VectorizedBackend(min_batch=1))
        plan = job.plan
        k = plan.num_levels
        st = RunState(k, WarpStack(k, job.level_factory))
        st.valid_from = 2
        shapes = set()

        def windows(pos):
            """Scalar DFS below ``st.path[:pos]``, stack levels written as
            the matcher writes them; yields the pre-leaf candidate sets."""
            raw, _ = job._raw(st, pos)
            st.stack.level(pos).write(raw, job.cost)
            filtered, _ = filter_candidates(
                graph, plan, st.path, pos, raw, job.cost, cfg.stmatch_removal
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
    def test_child_equals_scalar_per_slot(self, case, labeled, small_cells):
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
                for reuse in (False, True):
                    cfg = FAST.replace(stmatch_removal=removal, enable_reuse=reuse)
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
        st = RunState(k, WarpStack(k, array_level_factory(max(graph.max_degree, 1))))
        st.valid_from = 2
        shapes, counts = set(), {"slots": 0}

        def descend(pos, block, slot):
            """``block``'s ``slot`` resolves ``pos`` for ``st.path[:pos]``:
            check it, write the level, and walk into its survivors."""
            assert block.position == pos
            assert_slot_equals_scalar(job, st, pos, block, slot)
            counts["slots"] += 1
            raw = block.raw_set(slot)
            st.stack.level(pos).write(raw, job.cost)
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
            if n == 3 and not backend.shape_holds(job, 3, 3):
                shapes.add("shape-rule")  # the task runs scalar, as dequeued
                continue
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
    """Tracing or a fault plan turn the bulk array-sum replay off, so every
    slot of a leaf window goes through ``_expand_leaf`` → ``_fill_level`` —
    including slots whose fixed-capacity level truncates and is rescanned."""

    TRUNCATING = FAST.replace(
        stack_mode=StackMode.ARRAY_FIXED,
        fixed_capacity=8,
        truncate_on_overflow=True,
    )
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
                    st.stack.level(pos).length != block.raw_sizes[slot]
                )
            return out

        monkeypatch.setattr(MatchJob, "_fill_level", spy)
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
        assert seen["slots"] > seen["truncated"] > 0, seen


class TestPrefixBlockEndToEnd:
    """Whole runs with chunks straddling 13-row windows."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 8, 16])  # 16 > the window
    @pytest.mark.parametrize(
        "strategy",
        [Strategy.TIMEOUT, Strategy.HALF_STEAL, Strategy.NEW_KERNEL, Strategy.NONE],
    )
    def test_strategies_and_stack_modes(self, strategy, chunk_size, small_windows):
        seed = SEED_BASE + 1300 + chunk_size
        graph, query = case_graph(seed), case_query(seed)
        for mode in StackMode:
            cfg = TDFSConfig(
                num_warps=8,
                strategy=strategy,
                chunk_size=chunk_size,
                tau_cycles=600,
                stack_mode=mode,
                new_kernel_fanout=4,
            )
            assert_conformant(graph, query, cfg, label=f"{strategy.value}/{mode.value}")

    @pytest.mark.parametrize("query", ["P2", "P3", TRIANGLE], ids=str)
    def test_truncation_at_level_two(self, query, small_plc, small_windows):
        # Capacity 2 cuts most position-2 sets: the replay must rescan what
        # was stored (k > 3) or count it (k == 3), exactly as scalar does.
        cfg = FAST.replace(
            stack_mode=StackMode.ARRAY_FIXED,
            fixed_capacity=2,
            truncate_on_overflow=True,
            chunk_size=3,
        )
        scalar, vec = assert_conformant(small_plc, query, cfg, label="trunc-l2")
        assert scalar.overflowed and vec.overflowed
        exact = match(small_plc, query, engine="cpu").count
        assert scalar.count != exact  # the truncation really bit

    def test_overflow_raises_on_the_same_row(self, small_plc, small_windows):
        cfg = FAST.replace(
            stack_mode=StackMode.ARRAY_FIXED,
            fixed_capacity=2,
            truncate_on_overflow=False,
            chunk_size=3,
        )
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

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize(
        "strategy",
        [Strategy.TIMEOUT, Strategy.HALF_STEAL, Strategy.NEW_KERNEL, Strategy.NONE],
    )
    def test_strategies_and_stack_modes(
        self, strategy, pattern, chunk_size, small_cells
    ):
        graph = case_graph(SEED_BASE + 1400 + chunk_size)
        for mode in StackMode:
            cfg = TDFSConfig(
                num_warps=8,
                strategy=strategy,
                chunk_size=chunk_size,
                tau_cycles=600,
                stack_mode=mode,
                new_kernel_fanout=4,
            )
            _, _, spy = assert_children_conformant(graph, pattern, cfg)
            assert spy.built(3), f"{strategy.value}/{mode.value}: no cell built"

    def test_sync_windows_are_slices_of_the_leaf_child(
        self, small_plc, small_cells, monkeypatch
    ):
        """With a leaf-level child a sync window is a slice of it — windows
        start at offsets all over a cell — and only slots without one (over
        the budget) ask for a window block of their own."""
        seen = {"child": set(), "own": 0}
        leaf_block = MatchJob._leaf_block

        def spy(self, warp, st, pos, f, i, block, first):
            if block.parent is None and block.matched is None:
                seen["child"].add(first)
            else:
                seen["own"] += 1
            return leaf_block(self, warp, st, pos, f, i, block, first)

        monkeypatch.setattr(MatchJob, "_leaf_block", spy)
        _, vec, spy_backend = assert_children_conformant(small_plc, "P3", FAST)
        assert spy_backend.built(4)
        assert len(seen["child"]) > 3 and min(seen["child"]) == 0
        assert vec.count == match(small_plc, "P3", engine="cpu").count

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
        steal_from = MatchJob._steal_from

        def spy_steal(self, warp, victim):
            out = steal_from(self, warp, victim)
            if out is not None and out[0] == "prefix":
                depths.add(len(out[1]))
            return out

        monkeypatch.setattr(MatchJob, "_steal_from", spy_steal)
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
                truncated = st.stack.level(pos).length != block.raw_sizes[slot]
                assert (out[0] is None) or not truncated
                seen["dropped" if truncated else "kept"] += 1
            return out

        monkeypatch.setattr(MatchJob, "_child", spy)
        cfg = FAST.replace(
            stack_mode=StackMode.ARRAY_FIXED,
            fixed_capacity=8,
            truncate_on_overflow=True,
            chunk_size=3,
        )
        scalar, vec, _ = assert_children_conformant(small_plc, "P3", cfg)
        assert scalar.overflowed and vec.overflowed
        assert scalar.count != match(small_plc, "P3", engine="cpu").count
        assert seen["dropped"] and seen["kept"], seen

    def test_overflow_raises_on_the_same_slot(self, small_plc, small_cells):
        cfg = FAST.replace(
            stack_mode=StackMode.ARRAY_FIXED,
            fixed_capacity=8,
            truncate_on_overflow=False,
            chunk_size=3,
        )
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
# Q_task tasks inherit the block slot that resolved them (MatchJob.handoff)
# --------------------------------------------------------------------------- #


@pytest.fixture()
def handoffs(monkeypatch, small_cells):
    """Spies on both ends of the hand-off.  Every write and every dequeue
    holds the bound — entries ≤ tasks in the ring — and every hit passes the
    index-alignment oracle: the slot's own path is the task.  ``kinds``
    tallies ``(depth, hit)`` per dequeue, ``hits`` keeps ``(task, block,
    slot)``, ``jobs`` every job that dequeued."""
    seen = SimpleNamespace(kinds=Counter(), hits=[], jobs={})

    def reset():
        """A finished job has handed everything off."""
        assert all(not job.handoff for job in seen.jobs.values())
        seen.kinds.clear(), seen.hits.clear(), seen.jobs.clear()

    seen.reset = reset
    shipped, process_task = MatchJob._shipped, MatchJob._process_task

    def spy_shipped(self, task, block, slot):
        shipped(self, task, block, slot)
        assert len(self.handoff) <= self.queue.num_tasks

    def spy_task(self, warp, st, task):
        # The dequeued task has left the ring; its entry is popped next.
        assert len(self.handoff) <= self.queue.num_tasks + 1
        hit = self.handoff.get(task)
        seen.kinds[task.depth, hit is not None] += 1
        seen.jobs[id(self)] = self
        if hit is not None:
            block, slot = hit
            seen.hits.append((task, block, slot))
            if task.v3 == PLACEHOLDER:
                assert tuple(block.rows[slot]) == task[:2]
            elif block.matched is not None:  # a leaf child keeps no paths
                assert block.position == 3 and block.rows is None
                assert tuple(int(m[slot]) for m in block.matched) == task
        return process_task(self, warp, st, task)

    monkeypatch.setattr(MatchJob, "_shipped", spy_shipped)
    monkeypatch.setattr(MatchJob, "_process_task", spy_task)
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

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("case", range(2 if EXHAUSTIVE else 1))
    def test_inherited_slots_equal_scalar(self, case, labeled, handoffs):
        seed = SEED_BASE + 1500 + case
        graph = case_labeled_graph(seed, 2) if labeled else case_graph(seed)
        shapes, tally = {}, {name: Counter() for name in LEAF_PATTERNS}
        for name in LEAF_PATTERNS:
            query = get_pattern(name)
            if labeled:
                query = query.with_labels(
                    [(seed + u) % 2 for u in range(query.num_vertices)]
                )
            for removal in (False, True):
                for reuse in (False, True):
                    cfg = self.TASKS.replace(
                        stmatch_removal=removal,
                        enable_reuse=reuse,
                        chunk_size=self.CHUNKS[(removal + reuse) % len(self.CHUNKS)],
                    )
                    handoffs.reset()
                    assert_conformant(graph, query, cfg, label=name)
                    # The scalar run's dequeues all miss; the vectorized
                    # run's edge tasks all hit.
                    kinds = handoffs.kinds
                    assert kinds[2, True] == kinds[2, False]
                    tally[name] += kinds
                    job = next(reversed(handoffs.jobs.values()), None)
                    for depth in (2, 3):
                        hits = [h for h in handoffs.hits if h[0].depth == depth]
                        shapes.setdefault((name, reuse), set()).update(
                            TestChildBlockSlots._check_tree(
                                graph, query, cfg, limit=40, job=job, hits=hits
                            )
                        )
        # Every pattern dequeued both kinds of task.
        for name, kinds in tally.items():
            assert kinds[2, True] and kinds[3, False], (name, kinds)
        if not labeled:
            # Position 2 seeds P1, P2 and P7 at position 3 and P5 below it.
            for name in ("P1", "P5", "P7"):
                assert "shape-rule" in shapes[name, True], (name, shapes)
                assert "shape-rule" not in shapes[name, False], (name, shapes)
            assert "shape-rule" not in shapes["P3", True]

    def test_edge_tasks_fill_level_two_from_the_window(
        self, straggler_graph, handoffs, monkeypatch
    ):
        """Level 2 of an edge task is its window's slot, never ``_raw``."""
        fills = Counter()
        fill_level = MatchJob._fill_level

        def spy_fill(self, warp, st, pos, block, slot):
            if pos == 2:  # ``st.chunk`` is set while a warp works through rows
                fills[st.chunk is None, block is not None] += 1
            return fill_level(self, warp, st, pos, block, slot)

        cfg = TDFSConfig(num_warps=8, tau_cycles=300, chunk_size=8)
        scalar = match(
            straggler_graph, "P2", config=cfg.replace(kernel_backend="scalar")
        )
        handoffs.reset()
        monkeypatch.setattr(MatchJob, "_fill_level", spy_fill)
        assert_same(scalar, match(straggler_graph, "P2", config=cfg))
        edge_tasks = handoffs.kinds[2, True]
        assert edge_tasks > 0 and not handoffs.kinds[2, False]
        assert fills[True, True] == edge_tasks and not fills[True, False]
        assert fills[False, True] > 0

    @pytest.mark.parametrize("truncating", [False, True])
    def test_three_vertex_tasks_ask_the_child(
        self, truncating, small_plc, handoffs, monkeypatch
    ):
        """Level 3 of an inherited task is the child's slot — no ``_raw`` —
        and the level below is asked of it; capacity 8 cuts position-3 sets
        of P3 on the dequeuing warp, which drops the child there and keeps
        the counts identically wrong."""
        asked = Counter()
        child_of, raw = MatchJob._child, MatchJob._raw

        def spy_child(self, st, pos, block, slot):
            out = child_of(self, st, pos, block, slot)
            if st.item_prefix == pos == 3 and block is not None:
                cut = st.stack.level(pos).length != block.raw_sizes[slot]
                assert out[0] is None or not cut
                asked["child", cut] += 1
            return out

        def spy_raw(self, st, pos):
            asked["raw"] += st.item_prefix == pos == 3
            return raw(self, st, pos)

        cfg = TestInterruptibleLeafReplay.TRUNCATING if truncating else FAST
        cfg = cfg.replace(tau_cycles=300, chunk_size=4)  # TASKS, capacity 8
        scalar = match(small_plc, "P3", config=cfg.replace(kernel_backend="scalar"))
        handoffs.reset()
        monkeypatch.setattr(MatchJob, "_child", spy_child)
        monkeypatch.setattr(MatchJob, "_raw", spy_raw)
        assert_same(scalar, match(small_plc, "P3", config=cfg))
        hits, misses = handoffs.kinds[3, True], handoffs.kinds[3, False]
        assert hits and asked["child", False] + asked["child", True] == hits
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
        # A refused enqueue books nothing — the fixture holds entries ≤ ring
        # tasks at every write — and the remainder is processed in place.
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
        # An aborted attempt dies with its entries; the recovered tasks of
        # the next one come out of the journal and miss.
        assert any(job.handoff for job in handoffs.jobs.values())
        handoffs.jobs.clear()

    def test_checkpoint_with_tasks_in_flight(self, small_plc, handoffs):
        """The snapshot is built from the journal and carries no block; the
        resumed runs start every queued task without one."""
        _, _, entries = assert_checkpoint_resumes(
            small_plc, "P3", self.TASKS, 25,
            lambda job: job.queue.num_tasks >= 4 and ("entries", len(job.handoff)),
        )
        assert entries[1] >= 4

    def test_shards(self, small_plc):
        # No spies: the shard workers are other processes.
        scalar, vec = assert_conformant(small_plc, "P3", self.TASKS.replace(shards=2))
        assert scalar.timeouts > 0
        assert vec.count == match(small_plc, "P3", engine="cpu").count

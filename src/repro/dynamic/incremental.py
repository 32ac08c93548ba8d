"""Incremental match counting over batch-dynamic edge deltas.

The key observation (paper §1, optimization 4, applied in reverse): the
matches a delta gains or loses are exactly those containing **at least one
delta edge**, and the engine's edge-grained initial tasks are the natural
hook for enumerating them.  For a net delta ``G' = G − R + A`` (``R ⊆
E(G)``, ``A ∩ E(G) = ∅``, ``R ∩ A = ∅`` — see
:meth:`repro.dynamic.delta.DeltaBatch.normalize`):

    count(G') = count(G) − lost + gained
    lost      = #matches of Q in G  containing ≥ 1 edge of R
    gained    = #matches of Q in G' containing ≥ 1 edge of A

Each side is enumerated by **delta-edge-anchored initial tasks**: for every
query edge ``(a, b)`` we compile a plan whose matching order starts ``[a,
b, ...]`` (:func:`repro.query.ordering.anchored_matching_order`, symmetry
breaking off) and feed the *unmodified* T-DFS engine both directions of
every delta edge as its entire initial-task set.  Because an embedding is
injective, a delta data edge is covered by **exactly one** query edge of a
match, so sweeping all query edges finds every affected embedding — and a
match containing ``t ≥ 2`` delta edges is found ``t`` times (once per
delta edge it contains, possibly under different anchor plans).

The inclusion–exclusion correction for that multi-delta-edge overcount is
performed *exactly* by keying the enumerated embeddings into one set: the
anchored runs collect full embeddings (tuples indexed by query vertex id,
identical keys under every anchor plan), and deduplication subtracts each
pairwise overlap, re-adds each triple overlap, and so on — the same
alternating sum as explicit inclusion–exclusion, evaluated on the actual
match sets rather than on counts (DESIGN.md §13 has the argument).

Symmetry normalization: the anchored runs count raw embeddings (symmetry
breaking must be off — a canonical representative might place the delta
edge on a different query edge than the anchor).  The affected-embedding
set is closed under ``Aut(Q)`` (an automorphism permutes query vertices
and preserves the edge image), so dividing by ``|Aut(Q)|`` is exact and
recovers instance counts when the caller's config has symmetry on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.config import RunContext, TDFSConfig
from repro.core.engine import TDFSEngine, make_engine
from repro.core.result import MatchResult
from repro.dynamic.delta import DeltaBatch, NetDelta
from repro.errors import ReproError, UnsupportedError
from repro.graph.csr import CSRGraph
from repro.obs.ops import ops_tracer
from repro.query.ordering import anchored_matching_order
from repro.query.pattern import QueryGraph
from repro.query.patterns import get_pattern
from repro.query.plan import MatchingPlan, compile_plan
from repro.query.symmetry import automorphism_group_size


#: Net delta edges (adds + removes) beyond which the full re-match runs:
#: the incremental path only wins while the affected-match set is small.
MAX_DELTA_EDGES = 64

#: Embedding-enumeration cap per anchored run; exceeding it falls back
#: (the affected set would not fit the dedup buffer).
MAX_ANCHOR_MATCHES = 200_000


@dataclass
class DeltaCount:
    """Outcome of one incremental delta count."""

    count: int
    """Exact match count on the successor graph ``G'``."""
    base_count: Optional[int]
    """Count on the previous graph (``None`` = the caller had none)."""
    gained: int = 0
    lost: int = 0
    incremental: bool = True
    """False when the full-re-match fallback produced ``count``."""
    fallback_reason: Optional[str] = None
    """Why the full re-match ran: ``engine-not-tdfs``, ``no-cached-base``,
    ``delta-too-large``, ``anchor-error (...)`` or ``anchor-overflow``."""
    anchored_tasks: int = 0
    """Initial-task rows fed across all anchored runs."""
    anchor_runs: int = 0
    """Anchored runs made: ``|E_Q|`` per non-empty side of the delta."""
    elapsed_cycles: int = 0
    """Virtual cycles across the anchored (or fallback) runs."""
    result: Optional[MatchResult] = None
    """A result for ``G'`` carrying the exact count (synthesized from the
    anchored runs on the incremental path, the real run on fallback)."""


class _AnchorFallback(Exception):
    """Internal: an anchored run could not complete; fall back to full."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class _AnchorEngine(TDFSEngine):
    """The unmodified engine, minus the per-run statistics: an anchored run
    is read for its count, matches and elapsed cycles only."""

    def _account(self, *run) -> None:
        pass


def _anchored_plan(query: QueryGraph, a: int, b: int, reuse: bool) -> MatchingPlan:
    """The plan of the anchored runs for query edge ``(a, b)``: matching
    order starting ``[a, b, ...]``, symmetry breaking off.  A constant of
    the (immutable) query, so compiled once and kept on it — a delta
    compiles nothing."""
    try:
        plans = query._anchored_plans
    except AttributeError:
        plans = query._anchored_plans = {}
    key = (a, b, reuse)
    if key not in plans:
        plans[key] = compile_plan(
            query,
            order=anchored_matching_order(query, a, b),
            enable_symmetry=False,
            enable_reuse=reuse,
        )
    return plans[key]


class IncrementalMatcher:
    """Counts ``count(G')`` from ``count(G)`` plus delta-anchored runs.

    ``config`` fixes the count semantics being maintained (symmetry on →
    instance counts, off → raw embeddings) and supplies the engine knobs
    the anchored runs inherit (strategy, τ, stacks, kernel backend…).
    Beyond ``MAX_DELTA_EDGES`` or ``MAX_ANCHOR_MATCHES`` it falls back to
    a full re-match.  ``ctx`` wires the full re-match fallback; the
    anchored runs themselves are plain runs.  ``trace`` parents the
    ``delta.*`` spans (and is threaded into the fallback's config) when
    ``config`` carries no ``trace_context`` of its own.
    """

    def __init__(
        self,
        config: Optional[TDFSConfig] = None,
        ctx: Optional[RunContext] = None,
        trace=None,
    ) -> None:
        self.config = config or TDFSConfig()
        self.ctx = ctx or RunContext()
        self.trace = self.config.trace_context or trace

    # ------------------------------------------------------------------ #

    def count_delta(
        self,
        old_graph: CSRGraph,
        new_graph: CSRGraph,
        delta: Union[DeltaBatch, NetDelta],
        query: Union[QueryGraph, MatchingPlan, str],
        base_count: Optional[int],
        engine: str = "tdfs",
    ) -> DeltaCount:
        """Exact match count on ``new_graph`` given ``base_count`` on
        ``old_graph`` and the delta between them.

        ``delta`` may be the applied :class:`DeltaBatch` (normalized here
        against ``old_graph``) or an already-normalized :class:`NetDelta`;
        ``query`` may be a pattern name like ``"P1"``.  Falls back to a
        full re-match by ``engine`` of what the caller passed (a
        precompiled plan keeps its order) — still returning the exact
        count — when there is no ``base_count``, when ``engine`` is not
        ``"tdfs"``, when the delta or the affected-match set is too large,
        or when an anchored run fails; ``fallback_reason`` says why.
        """
        if isinstance(query, str):
            query = get_pattern(query)
        target = query
        if isinstance(query, MatchingPlan):
            query = query.query
        if query.is_labeled and not new_graph.is_labeled:
            raise UnsupportedError(
                "labeled query on an unlabeled data graph; attach labels first"
            )
        out = DeltaCount(count=0, base_count=base_count)
        reason = None
        if engine != "tdfs":
            # Baseline engines seed initial tasks differently (STMatch
            # re-filters them on the host), so anchored seeding only
            # matches tdfs semantics.
            reason = "engine-not-tdfs"
        elif base_count is None:
            reason = "no-cached-base"
        else:
            net = delta if isinstance(delta, NetDelta) else delta.normalize(old_graph)
            if net.size > MAX_DELTA_EDGES:
                reason = "delta-too-large"
        trace = self.trace
        if reason is None:
            anchored = self._anchor_engine()
            with ops_tracer(trace).span("delta.count", parent=trace) as span:
                try:
                    lost_emb, lost_tasks, lost_cycles, lost_runs = self._affected(
                        anchored, old_graph, net.removed, query, trace, side="removed"
                    )
                    gained_emb, gained_tasks, gained_cycles, gained_runs = (
                        self._affected(
                            anchored, new_graph, net.added, query, trace, side="added"
                        )
                    )
                except _AnchorFallback as exc:
                    reason = span.tags["fallback"] = exc.reason
                else:
                    out.lost = self._to_instances(query, len(lost_emb))
                    out.gained = self._to_instances(query, len(gained_emb))
                    out.count = int(base_count) + out.gained - out.lost
                    out.anchored_tasks = lost_tasks + gained_tasks
                    out.anchor_runs = lost_runs + gained_runs
                    out.elapsed_cycles = lost_cycles + gained_cycles
                    out.result = self._synthesize(new_graph, query, out)
                    span.tags.update(
                        gained=out.gained, lost=out.lost, anchor_runs=out.anchor_runs
                    )
        if reason is not None:
            # The one full re-match: exact, never wrong.
            config = self.config
            if config.trace_context is None and trace is not None:
                config = config.replace(trace_context=trace)
            rematch = make_engine(engine, config, self.ctx)
            with ops_tracer(trace).span("delta.fallback", parent=trace, reason=reason):
                result = rematch.run(new_graph, target)
            if result.error is not None:
                raise ReproError(
                    f"incremental fallback re-match failed: {result.error}"
                )
            out.count = result.count
            out.incremental = False
            out.fallback_reason = reason
            out.elapsed_cycles = result.elapsed_cycles
            out.result = result
        return out

    # ------------------------------------------------------------------ #

    def _anchor_engine(self) -> _AnchorEngine:
        """The engine every anchored run of one delta goes through:
        single-device, symmetry handled at plan level, and a default
        context — no recovery machinery, no statistics.  An engine
        keeps no state between runs, so each run still starts a fresh
        device at virtual time 0.  Its config is derived once per caller
        config and kept on it (frozen), as the cache fingerprint is."""
        try:
            anchored = self.config._anchor_config
        except AttributeError:
            anchored = self.config.replace(
                shards=1, num_gpus=1, planner=None, enable_symmetry=False
            )
            object.__setattr__(self.config, "_anchor_config", anchored)
        return _AnchorEngine(anchored)

    def _affected(
        self,
        engine: _AnchorEngine,
        graph: CSRGraph,
        pairs: np.ndarray,
        query: QueryGraph,
        trace=None,
        side: str = "",
    ) -> tuple[set, int, int, int]:
        """Embeddings of ``query`` in ``graph`` using ≥ 1 edge of ``pairs``.

        Returns ``(embedding_set, tasks_fed, virtual_cycles, runs)``: one
        anchored run per query edge, none for an empty side.  Every pair
        must be an existing edge of ``graph`` (the net-delta invariants
        guarantee this).
        """
        if len(pairs) == 0:
            return set(), 0, 0, 0
        cap = MAX_ANCHOR_MATCHES
        groups = [(np.concatenate([pairs, pairs[:, ::-1]]).astype(np.int64), 2)]
        embeddings: set = set()
        tasks = 0
        cycles = 0
        with ops_tracer(trace).span(
            "delta.affected", parent=trace, side=side, edges=len(pairs)
        ) as span:
            for a, b in query.edges():
                plan = _anchored_plan(query, a, b, engine.config.enable_reuse)
                result = engine._run_single(
                    graph, plan, groups, "gpu0", collect_matches=cap
                )
                if result.error is not None:
                    raise _AnchorFallback(f"anchor-error ({result.error})")
                found = result.matches or []
                if result.count > len(found):
                    raise _AnchorFallback("anchor-overflow")
                embeddings.update(found)
                tasks += 2 * len(pairs)
                cycles += result.elapsed_cycles
            span.tags.update(embeddings=len(embeddings), tasks=tasks)
        return embeddings, tasks, cycles, query.num_edges

    def _to_instances(self, query: QueryGraph, num_embeddings: int) -> int:
        """Raw affected embeddings → counts in the caller's semantics."""
        if not self.config.enable_symmetry:
            return num_embeddings
        aut = automorphism_group_size(query)
        if num_embeddings % aut:
            # The affected set is Aut-closed, so this cannot happen unless
            # an anchored run miscounted — surface it loudly.
            raise ReproError(
                f"incremental: {num_embeddings} affected embeddings not "
                f"divisible by |Aut| = {aut} for query {query.name!r}"
            )
        return num_embeddings // aut

    def _synthesize(
        self, new_graph: CSRGraph, query: QueryGraph, out: DeltaCount
    ) -> MatchResult:
        """A :class:`MatchResult` for ``G'`` carrying the incremental count.

        The count is exact (conformance-tested against full re-match); the
        cycle figure is the anchored runs' total — the work actually done —
        not what a from-scratch run would have cost.  It carries no
        statistics: the delta's own figures (``gained``, ``lost``,
        ``anchored_tasks``) live on the :class:`DeltaCount`.
        """
        return MatchResult(
            engine="tdfs",
            graph_name=new_graph.name,
            query_name=query.name,
            count=out.count,
            elapsed_cycles=out.elapsed_cycles,
            aut_size=automorphism_group_size(query),
            symmetry_enabled=self.config.enable_symmetry,
        )

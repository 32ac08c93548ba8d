"""Stateful fuzz of one :class:`MatchService` against a reference model.

A hypothesis ``RuleBasedStateMachine`` drives register / update /
``apply_edges`` / ``match_delta`` / ``submit`` (cold, repeated, uncached,
under the default config, a ``replace()`` of it and a planner config) and
checks after every step what the serve path must never get wrong:

* every ticket settles exactly once, and the counters, the latency
  histogram and the SLO outcome stream each saw it exactly once;
* a response carries the model's version of its graph and the CPU
  oracle's count on *that* graph — never one computed at another version;
* a result-cache hit is served only for an identical ``(structure, engine,
  config fingerprint, collect)`` computed at the current version;
* a plan is reused across versions (and graphs) iff it was compiled
  without a planner; a planner's plan only at the version it was made for,
  and no planned plan-cache entry of a stale version serves a request.

Tier-1 runs a small derandomized slice.  With ``REPRO_FAULT_SEED`` set (the
``serve-resilience`` CI job) it runs the exhaustive profile under that seed.
"""

from __future__ import annotations

from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import TDFSConfig, match
from repro.bench.harness import fault_seed
from repro.dynamic import DeltaBatch
from repro.graph.generators import erdos_renyi
from repro.planner.search import PlannerConfig
from repro.query.pattern import QueryGraph
from repro.query.patterns import get_pattern
from repro.serve import (
    MatchRequest,
    MatchService,
    MatchTicket,
    ServeConfig,
    config_fingerprint,
    plan_fingerprint,
)

# Few ids and patterns on purpose: the invariants are about *repeats* —
# the same key at another version, on another graph, after a delta.
GRAPH_IDS = ("g0", "g1")
PATTERNS = ("P1", "P3")
DEFAULT = TDFSConfig(num_warps=4)
PLANNER = PlannerConfig(beam_width=2, portfolio_size=2, samples=16, descents=2)

graphs = st.builds(
    lambda n, seed: erdos_renyi(n, 4.0, seed=seed, name=f"er{n}-{seed}"),
    st.integers(8, 14),
    st.integers(0, 10_000),
)
picks = st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=3)
config_kinds = st.sampled_from(("default", "replaced", "planner", "planner"))


def make_config(kind: str):
    """``None`` (the service default), or a *new* config object per call —
    equal ones must fingerprint equal and share cache entries."""
    if kind == "default":
        return None
    if kind == "replaced":
        return DEFAULT.replace(num_warps=3)
    return DEFAULT.replace(planner=PLANNER)


def new_edges(graph, picks) -> list:
    """Distinct vertex pairs, possibly existing edges (a net no-op) and
    possibly naming one vertex past ``|V|`` (the vertex set grows)."""
    n = graph.num_vertices + 1
    return sorted({(min(u % n, v % n), max(u % n, v % n)) for u, v in picks if u % n != v % n})


def old_edges(graph, picks) -> list:
    rows = graph.directed_edge_array()
    return [tuple(int(x) for x in rows[u % len(rows)]) for u, _ in picks] if len(rows) else []


class ServeMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model: dict = {}  # graph_id -> (graph, version)
        self.oracle: dict = {}  # (id(graph), pattern) -> CPU count
        self.graphs: list = []  # every graph seen, so that no id is reused
        self.results: set = set()  # result keys computed and cached
        self.unplanned: set = set()  # (plan_fp, engine, config_fp) compiled
        self.planned: set = set()  # (graph_id, version, plan_fp, engine, config_fp)
        self.stale: dict = {}  # stale planned plan key -> its recorded runs
        self.tickets: list = []
        self.settles: Counter = Counter()
        settles, init, settle = self.settles, MatchTicket.__init__, MatchTicket._settle

        def counting_init(ticket, request_id, response=None):
            init(ticket, request_id, response)
            settles[id(ticket)] += response is not None  # born settled

        def counting_settle(ticket, response, error):
            settles[id(ticket)] += 1
            settle(ticket, response, error)

        self._restore = (init, settle)
        MatchTicket.__init__, MatchTicket._settle = counting_init, counting_settle
        self.svc = MatchService(
            ServeConfig(workers=2, match_config=DEFAULT)
        )

    def teardown(self) -> None:
        self.svc.stop()
        MatchTicket.__init__, MatchTicket._settle = self._restore

    # -- the reference model -------------------------------------------- #

    def expected(self, graph, pattern: str) -> int:
        key = (id(graph), pattern)
        if key not in self.oracle:
            self.graphs.append(graph)
            self.oracle[key] = match(graph, pattern, engine="cpu").count
        return self.oracle[key]

    def bump(self, graph_id: str, graph) -> int:
        version = self.model[graph_id][1] + 1
        self.model[graph_id] = (graph, version)
        return version

    # -- rules ------------------------------------------------------------ #

    @initialize(graph=graphs)
    def first_graph(self, graph) -> None:
        self.model["g0"] = (graph, self.svc.register_graph("g0", graph))

    @precondition(lambda self: len(self.model) < len(GRAPH_IDS))
    @rule(graph=graphs)
    def register_graph(self, graph) -> None:
        graph_id = GRAPH_IDS[len(self.model)]
        self.model[graph_id] = (graph, self.svc.register_graph(graph_id, graph))

    @rule(slot=st.integers(0, 1), graph=graphs)
    def update_graph(self, slot, graph) -> None:
        graph_id = GRAPH_IDS[slot % len(self.model)]
        assert self.svc.update_graph(graph_id, graph) == self.bump(graph_id, graph)

    @rule(slot=st.integers(0, 1), add=picks, remove=picks)
    def apply_edges(self, slot, add, remove) -> None:
        graph_id = GRAPH_IDS[slot % len(self.model)]
        old = self.model[graph_id][0]
        add, remove = new_edges(old, add), old_edges(old, remove)
        new = old.apply_delta(DeltaBatch.make(add=add, remove=remove))
        version = self.svc.apply_edges(graph_id, add=add, remove=remove)
        assert version == self.bump(graph_id, new)

    @rule(
        slot=st.integers(0, 1),
        pattern=st.sampled_from(PATTERNS),
        kind=config_kinds,
        adding=st.booleans(),
        edges=picks,
    )
    def match_delta(self, slot, pattern, kind, adding, edges) -> None:
        graph_id = GRAPH_IDS[slot % len(self.model)]
        old, old_version = self.model[graph_id]
        config = make_config(kind)
        # Adds may name existing edges and ``edges`` may be empty: a delta
        # with an empty net effect still bumps the version.
        change = (
            {"add": new_edges(old, edges)} if adding else {"remove": old_edges(old, edges)}
        )
        new = old.apply_delta(DeltaBatch.make(**change))
        resp = self.svc.match_delta(graph_id, pattern, config=config, **change)
        version = self.bump(graph_id, new)
        fps = (
            plan_fingerprint(get_pattern(pattern)),
            "tdfs",
            config_fingerprint(config or DEFAULT),
            0,
        )
        assert resp.graph_version == version
        assert resp.count == self.expected(new, pattern)
        # The fast path runs iff the previous version's count was cached.
        assert resp.incremental == ((graph_id, old_version, *fps) in self.results)
        if resp.incremental:
            assert resp.base_count == self.expected(old, pattern)
            assert resp.count == resp.base_count + resp.gained - resp.lost
        self.results.add((graph_id, version, *fps))

    @rule(
        slot=st.integers(0, 1),
        pattern=st.sampled_from(PATTERNS),
        engine=st.sampled_from(("tdfs", "tdfs", "cpu")),
        kind=config_kinds,
        collect=st.sampled_from((0, 0, 3)),
        twin=st.booleans(),
        cached=st.booleans(),
    )
    def submit(self, slot, pattern, engine, kind, collect, twin, cached) -> None:
        graph_id = GRAPH_IDS[slot % len(self.model)]
        graph, version = self.model[graph_id]
        query = get_pattern(pattern)
        if twin:  # same structure, another object, name and edge order
            query = QueryGraph(query.num_vertices, query.edges()[::-1], name="twin")
        config = make_config(kind)
        ticket = self.svc.submit(
            MatchRequest(
                graph_id,
                query,
                engine=engine,
                collect_matches=collect,
                config=config,
                use_result_cache=cached,
            )
        )
        self.tickets.append(ticket)
        resp = ticket.result(timeout=60.0)
        plan_key = (plan_fingerprint(query), engine, config_fingerprint(config or DEFAULT))
        result_key = (graph_id, version, *plan_key, collect)

        assert resp.ok, resp.error
        assert resp.graph_version == version
        assert resp.count == self.expected(graph, pattern)
        if resp.result_cache_hit:
            assert cached and result_key in self.results
            return
        assert result_key not in self.results or not cached
        if kind == "planner" and engine == "tdfs":
            # A planner's order is for one graph at one version.
            if resp.plan_cache_hit:
                assert (graph_id, version, *plan_key) in self.planned
            self.planned.add((graph_id, version, *plan_key))
        else:
            # No planner: compiled once, reused on any graph at any version.
            assert resp.plan_cache_hit == (plan_key in self.unplanned)
            self.unplanned.add(plan_key)
        if cached:
            self.results.add(result_key)

    # -- invariants ------------------------------------------------------- #

    @invariant()
    def every_ticket_settled_exactly_once(self) -> None:
        for ticket in self.tickets:
            assert ticket.done() and self.settles[id(ticket)] == 1

    @invariant()
    def the_books_balance(self) -> None:
        # The machine never stops its service mid-run, so no ticket is
        # rejected after admission: every ending is a response or a shed.
        done = [t for t in self.tickets if t.done()]
        m = self.svc.metrics
        assert m.get("completed") + m.get("shed") == len(done)
        assert m.latency_ms.count == m.get("completed")
        assert len(m.outcomes) == len(done)
        assert m.get("errors") == sum(
            t._error is None and t._response.error not in (None, "DEADLINE")
            for t in done
        )

    @invariant()
    def no_planned_plan_is_served_from_another_version(self) -> None:
        # A planned entry records every run it serves; once its version is
        # stale (it ages out of the LRU, nothing drops it) it must record
        # no more.
        svc = self.svc
        assert svc.graphs() == {g: v for g, (_, v) in self.model.items()}
        for key, entry in svc.plan_cache.items():
            graph_id, version = key[:2]
            if graph_id is None or self.model[graph_id][1] == version:
                continue
            runs = sum(o.runs + o.errors for o in entry.observations.values())
            assert self.stale.setdefault(key, runs) == runs


TestServeStateful = ServeMachine.TestCase
if fault_seed() is None:
    TestServeStateful.settings = settings(
        max_examples=20,
        stateful_step_count=25,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )
else:
    TestServeStateful = seed(fault_seed())(TestServeStateful)
    TestServeStateful.settings = settings(
        max_examples=150,
        stateful_step_count=50,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )

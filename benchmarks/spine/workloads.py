"""The four spine workloads: what each op is and how its answer is checked.

A workload generates its inputs from the seeded ``rng`` it is handed, asks
the CPU oracle (``match(..., engine="cpu")``) for every count it will see,
and then only replays a fixed op list round after round.  The program under
test sees the generated inputs and nothing else; it is driven through its
public entry points (``repro.match``, ``repro.serve.MatchService``).
"""

from __future__ import annotations

import pickle
import time
from typing import NamedTuple

from repro import DATASETS, DeltaBatch, TDFSConfig, load_dataset, match
from repro.errors import ReproError
from repro.obs.ops import TraceContext
from repro.serve import MatchRequest, MatchService, ServeConfig

from measure import Calibrator

#: The 20 frontier-bound fig-9 cells: work arrives as per-warp slivers, the
#: vectorized kernel backend declines (about 1x over scalar), and per-item
#: interpreter work in core.warp_matcher dominates.
FRONTIER_CELLS = tuple(
    (d, p)
    for d in ("amazon", "dblp", "youtube", "web-google", "pokec")
    for p in ("P1", "P2", "P5", "P7")
)

#: The 5 kernel-bound cells.  Selection rule: P3 cells of the moderate
#: graphs on which the scalar kernel backend costs >= 1.5x the vectorized
#: one in host time (measured 1.6-3.3x).
KERNEL_CELLS = tuple(
    (d, "P3") for d in ("web-google", "youtube", "pokec", "facebook", "imdb")
)

SERVE_GRAPHS = ("amazon", "dblp", "youtube", "web-google", "pokec")
DELTA_PATTERN = "P1"
COLD_PATTERNS = ("P2", "P5", "P7")
DELTAS_PER_CYCLE = 3
#: Warm reads per cycle = WARM_BURSTS bursts of the three cold requests
#: repeated BURST_REPEAT times.  A burst stays under 100 requests so that
#: max_queue=256 could never shed it; the count is tuned so that warm reads
#: are roughly 30 % of a cycle at baseline (cold 55 %, write 15 %).
WARM_BURSTS = 8
BURST_REPEAT = 33


class OpResult(NamedTuple):
    """What one op produced."""

    ok: bool
    virtual_ms: float  # simulated time, summed over the op's matches
    results: list  # the MatchResult objects it saw, for their exact counters


class MatchCells:
    """Bare ``match()`` over a fixed cell list; one op is one cell.

    With ``shards=2`` every op fans out over two worker processes, which is
    the only difference between ``shard-n2`` and ``match-kernel``.
    """

    serving = False

    def __init__(self, cells: tuple, shards: int = 1) -> None:
        self.cells = cells
        self.shards = shards
        self.sharded = shards > 1
        self.pin_one_cpu = not self.sharded
        self.ops_per_round = len(cells)

    def setup(self, rng, rec, trace: bool) -> None:
        self.graphs, self.configs, self.expected = {}, {}, {}
        for name in dict.fromkeys(d for d, _ in self.cells):
            with rec.span("graph.datasets.load"):
                self.graphs[name] = load_dataset(name)
            cfg = TDFSConfig(
                shards=self.shards, device_memory=DATASETS[name].device_memory
            )
            if trace and self.sharded:
                # Makes the coordinator return its shard.dispatch/shard.run
                # op-spans in MatchResult.op_spans; fingerprint-skipped.
                cfg = cfg.replace(trace_context=TraceContext.mint(bench="spine"))
            self.configs[name] = cfg
        with rec.span("oracle"):
            for d, p in self.cells:
                self.expected[(d, p)] = match(self.graphs[d], p, engine="cpu").count
        if trace and self.sharded:
            # What the coordinator pays to ship a graph to one shard process.
            for graph in self.graphs.values():
                with rec.span("graph.csr.pickle") as args:
                    args["bytes"] = len(pickle.dumps(graph))

    def inline_twin(self) -> "MatchCells":
        """The same cells unsharded, sharing this workload's graphs — the
        base of shard.speedup_vs_inline."""
        twin = MatchCells(self.cells)
        twin.graphs, twin.expected = self.graphs, self.expected
        twin.configs = {
            d: c.replace(shards=1, trace_context=None) for d, c in self.configs.items()
        }
        return twin

    def round_ops(self, rng) -> list:
        ops = list(self.cells)
        rng.shuffle(ops)
        return ops

    def op_key(self, op):
        return op

    def run_op(self, op, rec) -> OpResult:
        d, p = op
        with rec.span("match", cell=f"{d}/{p}"):
            res = match(self.graphs[d], p, config=self.configs[d])
        ok = res.error is None and res.count == self.expected[op]
        return OpResult(ok, res.elapsed_ms, [res])

    def reset_telemetry(self) -> None:
        pass  # nothing is kept between ops

    def fresh_threads(self) -> None:
        pass  # none outlive an op

    def close(self) -> None:
        pass


class ServeChurn:
    """One op is one update cycle on one graph of a ``MatchService``:
    three chained ``match_delta`` writes, a cold burst at the new version,
    then read-mostly warm traffic — timed whole, so every sample is the
    same user-visible unit (README noise finding 3).

    Graph state has period 2: a cycle adds the graph's three seeded edges
    when they are absent and removes them (last first) when present, so
    only four states per graph exist and all were oracle-checked at set-up.
    """

    serving, sharded = True, False
    pin_one_cpu = True
    ops_per_round = len(SERVE_GRAPHS)

    def setup(self, rng, rec, trace: bool) -> None:
        self.match_config = TDFSConfig(num_warps=8)
        self.service = None
        self.edges, self.expected, self.warm = {}, {}, {}
        self.bare_cold_ms = {}
        graphs = {}
        for name in SERVE_GRAPHS:
            with rec.span("graph.datasets.load"):
                graphs[name] = load_dataset(name)
            self.edges[name] = _pick_wedge_closing_edges(
                graphs[name], rng, DELTAS_PER_CYCLE
            )
            states = [graphs[name]]
            for edge in self.edges[name]:
                states.append(states[-1].apply_delta(DeltaBatch.make(add=[edge])))
            with rec.span("oracle"):
                self.expected[name] = [
                    {DELTA_PATTERN: match(g, DELTA_PATTERN, engine="cpu").count}
                    for g in states
                ]
                for s in (0, DELTAS_PER_CYCLE):
                    for p in COLD_PATTERNS:
                        self.expected[name][s][p] = match(
                            states[s], p, engine="cpu"
                        ).count
            if trace:
                self._time_bare_cold(name, states)
            self.warm[name] = [
                MatchRequest(name, p) for p in COLD_PATTERNS
            ] * BURST_REPEAT
        self.added = dict.fromkeys(SERVE_GRAPHS, False)
        self._start_service(graphs)

    def _start_service(self, graphs: dict) -> None:
        self.service = MatchService(
            ServeConfig(workers=2, match_config=self.match_config)
        )
        for name, graph in graphs.items():
            self.service.register_graph(name, graph)
        self.service.start()
        for name in graphs:
            # The incremental path needs the previous version's count cached.
            state = DELTAS_PER_CYCLE if self.added[name] else 0
            resp = self.service.query(name, DELTA_PATTERN)
            if resp.count != self.expected[name][state][DELTA_PATTERN]:
                raise ReproError(f"serve-churn: priming count wrong on {name}")
        self.reset_telemetry()

    def fresh_threads(self) -> None:
        """Replace the service by a new one over the same graphs, so that its
        worker threads start now — under profilers installed since set-up."""
        graphs = {name: self.service.graph(name) for name in SERVE_GRAPHS}
        self.service.stop()
        self._start_service(graphs)

    def reset_telemetry(self) -> None:
        """Start of a window: forget the exact per-request telemetry the
        layer table reads (responses, warm request count, cache counters)."""
        self.cold_responses, self.delta_responses = [], []
        self.warm_requests = 0
        self.cache_before = self.service.cache_stats()

    def _time_bare_cold(self, name: str, states: list) -> None:
        """Bare ``match()`` of the cold cells with the service's config, in
        reference ms — the base of serve.cold_overhead_ratio."""
        if not self.bare_cold_ms:
            for p in COLD_PATTERNS:  # untimed: each pattern's first-call costs
                match(states[0], p, config=self.match_config)
        for s in (0, DELTAS_PER_CYCLE):
            calib = Calibrator()
            calib.run(5)
            t0 = time.perf_counter()
            for p in COLD_PATTERNS:
                match(states[s], p, config=self.match_config)
            wall = time.perf_counter() - t0
            calib.run(5)
            self.bare_cold_ms[(name, s)] = wall * calib.wall_factor * 1e3

    def round_ops(self, rng) -> list:
        ops = list(SERVE_GRAPHS)
        rng.shuffle(ops)
        return ops

    def op_key(self, op):
        return (op, "remove" if self.added[op] else "add")

    def run_op(self, name, rec) -> OpResult:
        svc, expected = self.service, self.expected[name]
        adding = not self.added[name]
        ok, virtual, results = True, 0.0, []
        with rec.span("write"):
            for i in range(DELTAS_PER_CYCLE):
                if adding:
                    edge, state = self.edges[name][i], i + 1
                    change = {"add": [edge]}
                else:
                    edge, state = self.edges[name][-1 - i], DELTAS_PER_CYCLE - 1 - i
                    change = {"remove": [edge]}
                with rec.span("match_delta"):
                    resp = svc.match_delta(name, DELTA_PATTERN, **change)
                ok &= resp.incremental and resp.count == expected[state][DELTA_PATTERN]
                self.delta_responses.append(resp)
                if resp.result is not None:
                    virtual += resp.result.elapsed_ms
                    results.append(resp.result)
        self.added[name] = adding
        state = DELTAS_PER_CYCLE if adding else 0
        with rec.span("cold", graph=name, state=state):
            tickets = [svc.submit(MatchRequest(name, p)) for p in COLD_PATTERNS]
            cold = [t.result(timeout=60) for t in tickets]
        for p, resp in zip(COLD_PATTERNS, cold):
            ok &= resp.ok and not resp.result_cache_hit and resp.count == expected[state][p]
            if resp.result is not None:
                virtual += resp.result.elapsed_ms
                results.append(resp.result)
        self.cold_responses.extend(cold)
        burst = self.warm[name]
        with rec.span("warm"):
            for _ in range(WARM_BURSTS):
                tickets = [svc.submit(req) for req in burst]
                for req, ticket in zip(burst, tickets):
                    resp = ticket.result(timeout=60)
                    ok &= resp.result_cache_hit and resp.count == expected[state][req.query]
        self.warm_requests += WARM_BURSTS * len(burst)
        return OpResult(ok, virtual, results)

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()


def _pick_wedge_closing_edges(graph, rng, k: int) -> list[tuple[int, int]]:
    """``k`` distinct seeded non-edges whose endpoints share a neighbour, so
    that adding them is likely to create matches, not only to be counted."""
    edges: list[tuple[int, int]] = []
    while len(edges) < k:
        u = rng.randrange(graph.num_vertices)
        around_u = graph.neighbors(u)
        if not len(around_u):
            continue
        w = int(around_u[rng.randrange(len(around_u))])
        around_w = graph.neighbors(w)
        v = int(around_w[rng.randrange(len(around_w))])
        edge = (min(u, v), max(u, v))
        if u != v and not graph.has_edge(u, v) and edge not in edges:
            edges.append(edge)
    return edges


#: name -> factory; BENCHMARK.json records why each is here.
WORKLOADS = {
    "match-frontier": lambda: MatchCells(FRONTIER_CELLS),
    "match-kernel": lambda: MatchCells(KERNEL_CELLS),
    "shard-n2": lambda: MatchCells(KERNEL_CELLS, shards=2),
    "serve-churn": ServeChurn,
}

"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``datasets``
    List the registered dataset stand-ins with their statistics.
``patterns``
    List the evaluation patterns P1–P22 with structure descriptions.
``plan PATTERN``
    Show the compiled matching plan for a pattern.
``run``
    Run one subgraph-matching job and print the result, e.g.::

        python -m repro run --dataset youtube --pattern P3
        python -m repro run --dataset pokec --pattern P1 --engine stmatch
        python -m repro run --dataset friendster --pattern P9 --labels 8 \\
            --engine egsm --gpus 2
``serve``
    Run the async matching service (``repro.serve``) over a replayed or
    generated workload; ``--smoke`` runs the self-checking cache demo and
    ``--chaos`` drives the supervised service under seeded worker-kill /
    worker-stall faults, asserting that every request settles and every
    resumed count equals the fault-free baseline.  SIGTERM triggers a
    graceful drain (seal intake, finish in-flight work, exit 0 when
    nothing was stranded)::

        python -m repro serve --smoke
        python -m repro serve --dataset dblp --workload reqs.jsonl
        python -m repro serve --chaos --seed 7 --kill-rate 0.3
        python -m repro serve --dataset facebook --patterns P3 --no-cache \\
            --requests 60 > out & pid=$!   # SIGTERM once "serving" prints
``delta``
    Replay a seeded batch-dynamic edge-delta stream against a dataset and
    count matches incrementally (``repro.dynamic``): each batch's count is
    produced by the delta-anchored fast path and verified against a full
    from-scratch re-match::

        python -m repro delta --dataset dblp --pattern P1 --batches 5
        python -m repro delta --dataset web-google --pattern P3 --edges 8
``top``
    Live ops console: drive a short serve workload in-process and render
    one frame of the service report per batch (qps, latency percentiles,
    queue, caches, supervision, breakers, per-shard utilization, SLO burn
    rates, flight-recorder counts) — the same report ``serve`` prints::

        python -m repro top --dataset dblp --requests 40 --frames 3
``incident``
    Pretty-print an incident bundle produced by the flight recorder
    (``repro serve --dump-on-error DIR`` or ``MatchService.dump_incident``)::

        python -m repro incident incidents/incident-1712-4242.json
``chaos``
    Run under deterministic fault injection and report survival.
``profile``
    Run one job with span tracing on and report a flamegraph-style
    breakdown plus the run's ``metrics``; ``--trace out.json`` exports a
    Chrome ``trace_event`` timeline::

        python -m repro profile --dataset dblp --pattern P3 --trace out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.core.config import RunContext, StackMode, Strategy, TDFSConfig
from repro.core.engine import available_engines, make_engine, match
from repro.errors import ReproError
from repro.kernels import available_backends
from repro.graph.analysis import compute_stats
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, load_dataset
from repro.obs.console import render_top
from repro.query.patterns import get_pattern, pattern_description, pattern_names
from repro.query.plan import compile_plan


def _cmd_datasets(_args: argparse.Namespace) -> int:
    header = f"{'name':<12} {'cat':<9} {'|V|':>7} {'|E|':>8} {'avg':>5} {'d_max':>6} {'|L|':>4}"
    print(header)
    print("-" * len(header))
    for name, spec in DATASETS.items():
        stats = compute_stats(load_dataset(name))
        print(
            f"{name:<12} {spec.category:<9} {stats.num_vertices:>7} "
            f"{stats.num_edges:>8} {stats.avg_degree:>5.1f} "
            f"{stats.max_degree:>6} {stats.num_labels:>4}"
        )
    return 0


def _cmd_patterns(_args: argparse.Namespace) -> int:
    for name in pattern_names():
        q = get_pattern(name)
        lab = " labeled" if q.is_labeled else ""
        print(f"{name:<5} k={q.num_vertices} m={q.num_edges}{lab}  "
              f"{pattern_description(name)}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    query = get_pattern(args.pattern)
    if not args.explain:
        plan = compile_plan(query)
        print(plan.describe())
        return 0

    # --explain: run the cost-based planner against a dataset and print the
    # ranked portfolio (estimated vs optionally measured virtual cycles).
    from repro.planner import PlannerConfig, plan_query
    from repro.query.ordering import choose_matching_order

    planner = PlannerConfig(
        beam_width=args.beam,
        portfolio_size=args.top,
        samples=args.samples,
        descents=args.descents,
        seed=args.seed,
    )
    graph = load_dataset(args.dataset, num_labels=args.labels)
    t0 = time.perf_counter()
    # Scale predicted work down to wall cycles at the default warp count so
    # est_cycles lines up with what --measure reports.
    portfolio = plan_query(
        graph, query, planner, parallelism=TDFSConfig().num_warps
    )
    plan_ms = (time.perf_counter() - t0) * 1000.0
    p = portfolio.profile
    print(
        f"graph {graph.name}: |V|={p.num_vertices} |E|={p.num_edges} "
        f"avg_d={p.avg_degree:.1f} sb_d={p.sb_degree:.1f} "
        f"closure={p.closure_rate:.3f} labels={len(p.label_freq)}"
    )
    greedy_order = tuple(choose_matching_order(query))
    print(f"legacy greedy order: {list(greedy_order)}  (planned in {plan_ms:.1f} ms)")
    print(portfolio.describe())
    if args.measure:
        print("measured (virtual cycles):")
        for rank, choice in enumerate(portfolio.choices, start=1):
            result = match(graph, choice.plan)
            err = (
                abs(choice.est_cycles - result.elapsed_cycles)
                / result.elapsed_cycles
                if result.elapsed_cycles
                else 0.0
            )
            marker = " (greedy)" if choice.order == greedy_order else ""
            print(
                f"  #{rank} order={list(choice.order)} "
                f"count={result.count} cycles={result.elapsed_cycles:,} "
                f"est_error={err:.2f}{marker}"
            )
    return 0


#: ``TDFSConfig`` / ``ServeConfig`` fields set by a flag, keyed by the
#: flag's ``dest``; a builder takes each one the command declares.
_CONFIG_FLAGS = {"warps": "num_warps", "chunk_size": "chunk_size", "gpus": "num_gpus",
                 "shards": "shards"}
_SERVE_FLAGS = {"workers": "workers", "max_queue": "max_queue"}


def _declared(args: argparse.Namespace, table: dict[str, str]) -> dict:
    """The fields ``table`` maps from the flags this command declares."""
    return {name: getattr(args, dest) for dest, name in table.items() if dest in args}


def _job(
    args: argparse.Namespace, tau_us: Optional[float] = None, **fields
) -> tuple[CSRGraph, TDFSConfig]:
    """A command's data graph and its ``TDFSConfig``.

    The config takes the command's flags in :data:`_CONFIG_FLAGS`,
    ``tau_us`` (virtual microseconds, ``None`` = the default τ) and the
    command's own ``fields``, on the dataset's simulated device budget,
    like the benchmarks use.
    """
    fields.update(_declared(args, _CONFIG_FLAGS))
    if tau_us is not None:
        fields["tau_cycles"] = max(1, int(tau_us * 1000))
    config = TDFSConfig(device_memory=DATASETS[args.dataset].device_memory, **fields)
    return load_dataset(args.dataset, num_labels=args.labels), config


def _cmd_run(args: argparse.Namespace) -> int:
    graph, config = _job(
        args, tau_us=args.tau_us,
        strategy=Strategy(args.strategy),
        stack_mode=StackMode(args.stack_mode),
        enable_reuse=not args.no_reuse,
        enable_edge_filter=not args.no_edge_filter,
        kernel_backend=args.kernel_backend,
    )
    # Compile the plan separately (through the engine, so engine-specific
    # plan flags hold) to report plan time and match time independently —
    # the former is the cost a serving-layer plan-cache hit avoids.
    engine = make_engine(args.engine, config)
    t0 = time.perf_counter()
    plan = engine.compile(get_pattern(args.pattern))
    compile_ms = (time.perf_counter() - t0) * 1000.0
    result = engine.run(graph, plan)
    print(result.summary())
    print(f"  compile (host)    : {compile_ms:.3f} ms")
    print(f"  match (virtual)   : {result.elapsed_ms:.3f} ms")
    if args.verbose and not result.failed:
        if result.shards > 1:
            print(f"  shards            : {result.shards}")
        print(f"  embeddings        : {result.count_embeddings}")
        print(f"  busy/idle cycles  : {result.busy_cycles}/{result.idle_cycles}")
        print(f"  timeouts/steals   : {result.timeouts}/{result.steals}")
        print(f"  queue enq/deq     : {result.queue.enqueued}/{result.queue.dequeued}")
        print(f"  stack bytes       : {result.memory.stack_bytes}")
        print(f"  device peak bytes : {result.memory.device_peak_bytes}")
    return 1 if result.failed else 0


def _load_workload(path: str) -> list[dict]:
    """Parse a JSON-lines workload file into request spec dicts.

    Each line: ``{"pattern": "P1", "repeat": 10, "engine": "tdfs",
    "priority": 0, "deadline_ms": null}`` (all but ``pattern`` optional).
    """
    specs: list[dict] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                spec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(f"{path}:{lineno}: bad workload line: {exc}")
            if "pattern" not in spec:
                raise ReproError(f"{path}:{lineno}: workload line needs 'pattern'")
            specs.append(spec)
    return specs


def _replay(service, graph_id: str, specs: list[dict], default_engine: str):
    """Submit every workload spec (expanded by ``repeat``), wait for all."""
    from repro.serve import MatchRequest

    tickets = [
        service.submit(MatchRequest(
            graph_id=graph_id,
            query=spec["pattern"],
            engine=spec.get("engine", default_engine),
            priority=int(spec.get("priority", 0)),
            deadline_ms=spec.get("deadline_ms"),
        ))
        for spec in specs
        for _ in range(int(spec.get("repeat", 1)))
    ]
    return [t.result(timeout=600.0) for t in tickets]


def _install_drain_handler(state: dict):
    """SIGTERM → graceful drain of the active service, then exit.

    The handler runs on the main thread (typically interrupting a blocking
    ``ticket.result()`` wait): it seals intake, lets in-flight and queued
    work finish on the worker threads, and exits 0 only when nothing was
    stranded.  Returns the previous handler (``None`` when signals cannot
    be installed, e.g. not on the main thread).
    """
    import signal

    def _on_term(signum, frame):
        service = state.get("service")
        if service is None or not service.running:
            print("SIGTERM: no active service; exiting cleanly")
            raise SystemExit(0)
        stranded = service.drain(timeout=30.0)
        print(render_top(service.snapshot(), title="repro serve"), end="")
        print(f"SIGTERM: graceful drain complete, {stranded} stranded request(s)")
        raise SystemExit(0 if stranded == 0 else 1)

    try:
        return signal.signal(signal.SIGTERM, _on_term)
    except ValueError:
        return None


def _parse_slo(spec: str):
    """``kind:objective[:threshold_ms]`` -> :class:`repro.obs.SLO`.

    Examples: ``latency:0.95:50`` (95% of requests under 50 ms),
    ``error_rate:0.999`` (at most 0.1% errors).
    """
    from repro.obs import SLO

    parts = spec.split(":")
    if len(parts) < 2 or parts[0] not in ("latency", "error_rate"):
        raise ReproError(
            f"bad --slo spec {spec!r}; expected kind:objective[:threshold_ms] "
            "with kind 'latency' or 'error_rate'"
        )
    try:
        objective = float(parts[1])
        threshold = float(parts[2]) if len(parts) > 2 and parts[2] else 250.0
    except ValueError:
        raise ReproError(f"bad --slo spec {spec!r}: non-numeric field") from None
    name = (
        f"latency-{int(threshold)}ms" if parts[0] == "latency" else "error-rate"
    )
    return SLO(
        name=name, kind=parts[0], objective=objective, threshold_ms=threshold
    )


def _pattern_list(text: str) -> list[str]:
    """``--patterns``: comma-separated pattern names, at least one."""
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expected at least one pattern name")
    return names


def _shard_indices(text: str) -> tuple[int, ...]:
    """``--shard-faults``: comma-separated shard worker attempt indices."""
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _service(args: argparse.Namespace, match_config: TDFSConfig, **fields):
    """A command's :class:`~repro.serve.MatchService`.

    Its ``ServeConfig`` takes the command's flags in :data:`_SERVE_FLAGS`
    and ops flags, ``match_config``, and the command's own ``fields``.
    """
    from repro.serve import MatchService, ServeConfig

    return MatchService(ServeConfig(
        match_config=match_config,
        slos=tuple(_parse_slo(s) for s in (args.slo or [])),
        dump_on_error=args.dump_on_error,
        shard_faults=args.shard_faults or (),
        **_declared(args, _SERVE_FLAGS),
        **fields,
    ))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import SupervisorConfig

    patterns = args.patterns
    graph, match_config = _job(args)

    state: dict = {"service": None}
    _install_drain_handler(state)

    supervisor = None
    if args.supervise:
        supervisor = SupervisorConfig(
            checkpoint_every_events=args.checkpoint_events, seed=args.seed or 0
        )

    def build_service(cached: bool):
        state["service"] = service = _service(
            args, match_config, supervisor=supervisor,
            enable_plan_cache=cached, enable_result_cache=cached,
        )
        return service

    if args.workload:
        specs = _load_workload(args.workload)
    else:
        specs = [
            {"pattern": patterns[i % len(patterns)]} for i in range(args.requests)
        ]

    if args.chaos:
        return _serve_chaos(args, graph, match_config, specs, state)

    if not args.smoke:
        with build_service(cached=not args.no_cache) as service:
            service.register_graph(args.dataset, graph)
            # Flushed: the line a script waits for before sending SIGTERM.
            print(
                f"serving          : {args.dataset}, {args.workers} workers "
                "(SIGTERM drains)",
                flush=True,
            )
            responses = _replay(service, args.dataset, specs, args.engine)
            print(render_top(service.snapshot(), title="repro serve"), end="")
            failed = [r for r in responses if not r.ok]
            print(f"requests         : {len(responses)} ({len(failed)} failed)")
            if service.incident_path:
                print(f"incident         : {service.incident_path}")
        return 1 if failed else 0

    # ---- smoke: the repeated-workload acceptance demo ------------------- #
    print(
        f"=== repro serve --smoke: {args.dataset}, "
        f"{'x'.join(patterns)} x {len(specs)} requests, "
        f"{args.workers} workers ==="
    )
    baselines = {
        p: match(graph, p, engine=args.engine, config=match_config).count
        for p in patterns
    }

    with build_service(cached=True) as service:
        service.register_graph(args.dataset, graph)
        responses = _replay(service, args.dataset, specs, args.engine)
        served = {p: None for p in patterns}
        for r in responses:
            served[r.query_name] = r.count
        counts_ok = all(served[p] == baselines[p] for p in patterns)

        # Batch-dynamic update: add edges, verify against one-shot match()
        # on the updated graph (caches must not serve the old version).
        delta = [(0, graph.num_vertices - 1 - i) for i in range(3)]
        service.apply_edges(args.dataset, add=delta)
        updated = service.graph(args.dataset)
        followups = [
            service.query(args.dataset, p, engine=args.engine) for p in patterns
        ]
        update_ok = all(
            r.count
            == match(updated, p, engine=args.engine, config=match_config).count
            for p, r in zip(patterns, followups)
        )
        # No planner, so no plan depends on the graph: none is recompiled.
        plans_kept = all(r.plan_cache_hit for r in followups)
        plan_cache = service.cache_stats()["plan_cache"]

        snap = service.snapshot()
        completed = snap["counters"]["completed"]
        compiles = snap["counters"]["plan_compiles"]
        plan_hit_rate = 1.0 - compiles / completed if completed else 0.0
        cached_mean = snap["latency_ms"]["mean"]
        print(render_top(snap, title="repro serve"), end="")

    with build_service(cached=False) as service:
        service.register_graph(args.dataset, graph)
        _replay(service, args.dataset, specs, args.engine)
        uncached_mean = service.snapshot()["latency_ms"]["mean"]

    print(f"counts match one-shot match() : {'yes' if counts_ok else 'NO'}")
    print(f"counts match after apply_edges: {'yes' if update_ok else 'NO'}")
    print(
        f"plan cache hit rate           : {100.0 * plan_hit_rate:.1f}% "
        f"({completed - compiles}/{completed} requests reused a plan)"
    )
    print(
        f"plans kept across apply_edges : {'yes' if plans_kept else 'NO'} (plan "
        f"cache: {plan_cache['hits']} hits, {plan_cache['misses']} misses)"
    )
    print(
        f"mean latency                  : {cached_mean:.3f} ms cached vs "
        f"{uncached_mean:.3f} ms uncached"
    )
    ok = (
        counts_ok
        and update_ok
        and plans_kept
        and plan_hit_rate > 0.9
        and cached_mean < uncached_mean
    )
    print(f"verdict                       : {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _serve_chaos(
    args: argparse.Namespace,
    graph: CSRGraph,
    match_config: TDFSConfig,
    specs: list[dict],
    state: dict,
) -> int:
    """``repro serve --chaos``: supervised serving under worker faults.

    Replays the workload against a service whose workers are killed and
    stalled by a seeded :class:`~repro.faults.WorkerFaultPlan`, then
    verifies the two resilience invariants: every request settles (a
    count, a typed error, or a typed rejection — never a hung ticket),
    and every successful count — including checkpoint-resumed ones —
    equals the fault-free baseline exactly.
    """
    from repro.bench.harness import fault_seed
    from repro.faults import WorkerFaultPlan
    from repro.serve import (
        AdmissionRejected,
        MatchRequest,
        ResultTimeout,
        SupervisorConfig,
    )

    seed = args.seed if args.seed is not None else (fault_seed() or 0)
    print(
        f"=== repro serve --chaos: {args.dataset}, seed {seed}, "
        f"kill {args.kill_rate}, stall {args.stall_rate}, "
        f"checkpoint every {args.checkpoint_events} events ==="
    )
    baselines = {
        p: match(graph, p, engine=args.engine, config=match_config).count
        for p in args.patterns
    }

    plan = WorkerFaultPlan.seeded(
        seed, kill_rate=args.kill_rate, stall_rate=args.stall_rate, stall_s=0.5
    )
    state["service"] = service = _service(
        args,
        match_config,
        enable_plan_cache=True,
        enable_result_cache=False,  # every request must actually execute
        supervisor=SupervisorConfig(
            checkpoint_every_events=args.checkpoint_events,
            watchdog_interval_s=0.02,
            heartbeat_timeout_s=0.25,
            seed=seed,
        ),
        worker_faults=plan,
    )
    total = exact = typed = mismatched = unsettled = 0
    with service:
        service.register_graph(args.dataset, graph)
        tickets: list[tuple[str, object]] = []
        for spec in specs:
            for _ in range(int(spec.get("repeat", 1))):
                total += 1
                request = MatchRequest(
                    graph_id=args.dataset,
                    query=spec["pattern"],
                    engine=spec.get("engine", args.engine),
                    use_result_cache=False,
                )
                try:
                    tickets.append((spec["pattern"], service.submit(request)))
                except (AdmissionRejected, ReproError):
                    # CircuitOpenError / PoisonedRequestError / shedding:
                    # a typed rejection IS a settlement.
                    typed += 1
        for pattern, ticket in tickets:
            try:
                response = ticket.result(timeout=600.0)
            except ResultTimeout:
                unsettled += 1
                continue
            except (AdmissionRejected, ReproError):
                typed += 1
                continue
            if response.error is not None:
                typed += 1
            elif response.count == baselines[pattern]:
                exact += 1
            else:
                mismatched += 1
        snap = service.snapshot()
        print(render_top(snap, title="repro serve"), end="")
    c = snap["counters"]
    print(
        f"requests          : {total} total — {exact} exact-count, "
        f"{typed} typed-error, {mismatched} count-mismatch, "
        f"{unsettled} unsettled"
    )
    print(
        f"chaos             : {c['worker_crashes']} kills, "
        f"{c['worker_stalls']} stalls, {c['supervisor_restarts']} restarts, "
        f"{c['redeliveries']} redeliveries"
    )
    print(
        f"checkpoint/resume : {c['checkpoints']} checkpoints, "
        f"{c['resumed']} resumes, {c['quarantined']} quarantined"
    )
    print(
        f"breakers          : {c['breaker_opens']} opens, "
        f"{c['breaker_rejected']} shed at submit"
    )
    incident = service.incident_path
    print(f"incident          : {incident if incident else '(none)'}")
    ok = unsettled == 0 and mismatched == 0
    print(
        f"verdict           : {'OK' if ok else 'FAIL'} "
        "(every request settled; every successful count equals the "
        "fault-free baseline)"
    )
    return 0 if ok else 1


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: drive a short workload in-process and render one
    frame of the service report after each batch — the "screenshot" mode
    used by the README and the CI ops-smoke job."""
    graph, match_config = _job(args)
    service = _service(args, match_config)
    frames = max(1, args.frames)
    per_frame = max(1, args.requests // frames)
    alerted = False
    with service:
        service.register_graph(args.dataset, graph)
        for frame_no in range(frames):
            specs = [
                {"pattern": args.patterns[i % len(args.patterns)]}
                for i in range(per_frame)
            ]
            _replay(service, args.dataset, specs, args.engine)
            snap = service.snapshot()
            alerted = alerted or bool(snap["alerts"])
            print(
                render_top(
                    snap, title=f"repro top (frame {frame_no + 1}/{frames})"
                )
            )
    if service.incident_path:
        print(f"incident bundle   : {service.incident_path}")
    return 1 if alerted and args.fail_on_alert else 0


def _cmd_incident(args: argparse.Namespace) -> int:
    """``repro incident BUNDLE``: pretty-print a flight-recorder dump."""
    from repro.obs import load_incident, render_incident

    bundle = load_incident(args.bundle)
    print(render_incident(bundle, last_events=args.last), end="")
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    """``repro delta``: incremental counting over a seeded delta stream.

    Self-checking: every incremental count is verified against a full
    re-match on the successor graph, so exit code 0 means the fast path
    was exact across the whole stream.
    """
    from repro.dynamic import IncrementalMatcher, random_delta_stream

    graph, config = _job(args)
    query = get_pattern(args.pattern)
    print(
        f"=== repro delta: {args.dataset}, {args.pattern}, "
        f"{args.batches} batches (<= {args.edges} edges each), "
        f"seed {args.seed} ==="
    )
    t0 = time.perf_counter()
    base = match(graph, query, config=config)
    base_ms = (time.perf_counter() - t0) * 1000.0
    print(f"base: {base.count} matches (full match, {base_ms:.1f} ms host)")

    matcher = IncrementalMatcher(config)
    ok = incremental = 0
    inc_host_ms = full_host_ms = 0.0
    current, count = graph, base.count
    stream = random_delta_stream(
        current, args.batches, seed=args.seed, max_edges=args.edges
    )
    for i, (batch, successor) in enumerate(stream, start=1):
        t0 = time.perf_counter()
        out = matcher.count_delta(current, successor, batch, query, count)
        inc_ms = (time.perf_counter() - t0) * 1000.0
        t0 = time.perf_counter()
        full = match(successor, query, config=config)
        full_ms = (time.perf_counter() - t0) * 1000.0
        agree = out.count == full.count
        ok += agree
        incremental += out.incremental
        inc_host_ms += inc_ms
        full_host_ms += full_ms
        path = (
            f"incremental ({out.anchored_tasks} anchored tasks)"
            if out.incremental
            else f"fallback ({out.fallback_reason})"
        )
        print(
            f"batch {i}: +{len(batch.add)}/-{len(batch.remove)} edges -> "
            f"{out.count} matches (gained {out.gained}, lost {out.lost}) "
            f"via {path}; full re-match {full.count} "
            f"[{'OK' if agree else 'MISMATCH'}] "
            f"{inc_ms:.1f} vs {full_ms:.1f} ms"
        )
        current, count = successor, out.count
    verdict = ok == args.batches
    print(
        f"host time         : {inc_host_ms:.1f} ms incremental vs "
        f"{full_host_ms:.1f} ms full re-match "
        f"({full_host_ms / inc_host_ms:.1f}x)"
        if inc_host_ms
        else "host time         : n/a"
    )
    print(
        f"delta verdict     : {'OK' if verdict else 'FAIL'} "
        f"({ok}/{args.batches} counts match full re-match, "
        f"{incremental}/{args.batches} batches took the incremental path)"
    )
    return 0 if verdict else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one matching run: spans + its metrics (+ Chrome JSON)."""
    from repro.obs import Observability, to_chrome

    obs = Observability(tracing=True, sample_every=args.sample_every)
    # Default to a small τ so the bundled example actually exercises the
    # timeout-steal path (the paper's τ is tuned for billion-edge graphs).
    graph, config = _job(
        args,
        tau_us=args.tau_us if args.tau_us is not None else 1.0,
        strategy=Strategy(args.strategy),
    )
    engine = make_engine(args.engine, config, RunContext(obs=obs))
    result = engine.run(graph, get_pattern(args.pattern))
    print(result.summary())
    print()
    print(obs.tracer.summary())
    print()
    print("--- metrics snapshot ---")
    for name, value in sorted(result.metrics.items()):
        print(f"{name:<28} {value}")
    if args.trace:
        print()
        with open(args.trace, "w") as fh:
            json.dump(to_chrome(obs.tracer.spans()), fh)
        print(
            f"trace            : {len(obs.tracer)} spans -> {args.trace} "
            f"(open in chrome://tracing or ui.perfetto.dev)"
        )
    return 1 if result.failed else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos harness: run with seeded fault injection, verify survival."""
    from repro.faults import FaultPlan, RetryPolicy, format_survival_report

    retry = RetryPolicy(max_attempts=args.attempts)
    plan = FaultPlan.seeded(
        args.seed,
        oom_rate=args.oom_rate,
        illegal_access_rate=args.illegal_access_rate,
        kernel_launch_rate=args.kernel_launch_rate,
        queue_corruption_rate=args.queue_corruption_rate,
        cas_storm_rate=args.cas_storm_rate,
        stall_rate=args.stall_rate,
    )
    graph, base = _job(args)
    baseline = match(graph, args.pattern, engine="tdfs", config=base)
    ctx = RunContext(fault_plan=plan, retry=retry)
    result = match(graph, args.pattern, engine="tdfs", config=base, ctx=ctx)
    report = format_survival_report(result, baseline=baseline, plan=plan)
    print(report, end="")
    survived = (not result.failed) and result.count == baseline.count
    return 0 if survived else 1


#: Flags several commands share, each declared once.  :func:`_flags` adds
#: them to a command in the order given, with per-command overrides.
_SHARED: dict[str, dict] = {
    "--dataset": dict(default="dblp", choices=list(DATASETS)),
    "--pattern": dict(default="P1"),
    "--patterns": dict(type=_pattern_list,
                       help="comma-separated pattern names to cycle"),
    "--requests": dict(type=int),
    "--engine": dict(default="tdfs", choices=list(available_engines())),
    "--labels": dict(type=int, default=None),
    "--gpus": dict(type=int, default=1),
    "--workers": dict(type=int, default=2),
    "--warps": dict(type=int, default=64),
    "--chunk-size": dict(type=int, default=8),
    "--tau-us": dict(type=float, default=None,
                     help="timeout threshold in virtual microseconds"),
    "--strategy": dict(default="timeout", choices=[s.value for s in Strategy]),
    "--seed": dict(type=int, default=0),
    "--stall-rate": dict(type=float),
    "--slo": dict(
        action="append", default=None, metavar="SPEC",
        help="arm an SLO, kind:objective[:threshold_ms] — e.g. "
             "latency:0.95:50 or error_rate:0.999; repeatable",
    ),
    "--dump-on-error": dict(
        default=None, metavar="DIR",
        help="write a self-contained incident bundle (flight recorder + "
             "stitched trace + metrics + SLO status) into DIR on the "
             "first fault or SLO breach",
    ),
    "--shards": dict(type=int, default=1,
                     help="shard each match over N worker processes"),
    "--shard-faults": dict(
        type=_shard_indices, default=None, metavar="IDX[,IDX...]",
        help="kill these shard worker attempts once (deterministic "
             "fault axis) to exercise re-execution and cross-process "
             "trace stitching",
    ),
}

#: Observability flags shared by ``serve`` and ``top``.
_OPS_FLAGS = ("--slo", "--dump-on-error", "--shards", "--shard-faults")


def _flags(p: argparse.ArgumentParser, *names: str, **overrides) -> None:
    """Add the shared flags ``names`` to ``p``.

    ``overrides`` are keyed by a flag's ``dest``: a dict of
    ``add_argument`` keywords, or a bare value for a different default.
    """
    for name in names:
        extra = overrides.get(name[2:].replace("-", "_"), {})
        if not isinstance(extra, dict):
            extra = {"default": extra}
        p.add_argument(name, **{**_SHARED[name], **extra})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="T-DFS subgraph matching (ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset stand-ins").set_defaults(
        func=_cmd_datasets
    )
    sub.add_parser("patterns", help="list query patterns").set_defaults(
        func=_cmd_patterns
    )

    plan_p = sub.add_parser("plan", help="show a compiled matching plan")
    plan_p.add_argument("pattern", help="pattern name, e.g. P4")
    plan_p.add_argument(
        "--explain", action="store_true",
        help="run the cost-based planner and print the ranked plan portfolio",
    )
    _flags(plan_p, "--dataset", "--labels",
           dataset={"help": "data graph for --explain statistics (default: dblp)"},
           labels={"help": "attach N synthetic labels to the dataset (--explain only)"})
    plan_p.add_argument(
        "--measure", action="store_true",
        help="additionally run every portfolio plan and report actual cycles",
    )
    plan_p.add_argument("--top", type=int, default=3, help="portfolio size")
    plan_p.add_argument("--beam", type=int, default=16, help="beam width")
    plan_p.add_argument(
        "--samples", type=int, default=512, help="wedge samples for the profile"
    )
    plan_p.add_argument(
        "--descents", type=int, default=24, help="sampling-refiner descents"
    )
    _flags(plan_p, "--seed", seed={"help": "planner seed"})
    plan_p.set_defaults(func=_cmd_plan)

    run_p = sub.add_parser("run", help="run one matching job")
    _flags(run_p, "--dataset", "--pattern", "--engine", "--labels", "--gpus",
           "--shards", "--warps", "--chunk-size", "--tau-us", "--strategy",
           dataset={"required": True, "default": None},
           pattern={"required": True, "default": None},
           labels={"help": "override label count (0 = unlabeled)"},
           shards={"help": "shard the job over N worker processes "
                           "(counts are invariant for any N)"})
    run_p.add_argument("--stack-mode", default="paged",
                       choices=[m.value for m in StackMode])
    run_p.add_argument("--no-reuse", action="store_true")
    run_p.add_argument("--no-edge-filter", action="store_true")
    run_p.add_argument(
        "--kernel-backend", default="vectorized",
        choices=list(available_backends()),
        help="candidate-computation kernel (conformance-tested: identical "
             "counts and virtual cycles, different host wall-clock)",
    )
    run_p.add_argument("-v", "--verbose", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    serve_p = sub.add_parser(
        "serve", help="run the async matching service over a replayed workload"
    )
    serve_p.add_argument(
        "--smoke", action="store_true",
        help="repeated-workload demo: verify counts vs one-shot match(), "
             "plan-cache hit rate, and cached-vs-uncached latency",
    )
    _flags(serve_p, "--dataset", "--patterns", "--requests", "--engine",
           "--labels", "--workers", "--warps",
           dataset="web-google", patterns="P1,P2,P7", warps=8,
           requests={"default": 100,
                     "help": "number of requests in the generated workload"})
    serve_p.add_argument("--max-queue", type=int, default=256)
    serve_p.add_argument("--no-cache", action="store_true",
                         help="disable the plan and result caches")
    serve_p.add_argument("--workload", default=None,
                         help="JSON-lines workload file to replay instead "
                              "of the generated pattern cycle")
    serve_p.add_argument(
        "--chaos", action="store_true",
        help="drive the supervised service under seeded worker-kill/stall "
             "faults; verify every request settles and resumed counts "
             "equal the fault-free baseline",
    )
    serve_p.add_argument("--supervise", action="store_true",
                         help="run the (non-chaos) service under the "
                              "supervisor: watchdog, breakers, quarantine")
    _flags(serve_p, "--seed", seed={
        "default": None,
        "help": "worker-fault seed for --chaos (default: REPRO_FAULT_SEED, then 0)",
    })
    serve_p.add_argument("--kill-rate", type=float, default=0.3,
                         help="per-checkpoint worker-kill probability "
                              "(--chaos)")
    _flags(serve_p, "--stall-rate", stall_rate={
        "default": 0.05,
        "help": "per-checkpoint worker-stall probability (--chaos)",
    })
    serve_p.add_argument("--checkpoint-events", type=int, default=50,
                         help="checkpoint the pending frontier every N "
                              "scheduler events (0 = restart from scratch "
                              "on redelivery)")
    _flags(serve_p, *_OPS_FLAGS)
    serve_p.set_defaults(func=_cmd_serve)

    top_p = sub.add_parser(
        "top",
        help="live ops console: qps, latency percentiles, queue, caches, "
             "breakers, shard utilization, SLO burn rates",
    )
    _flags(top_p, "--dataset", "--patterns", "--requests", patterns="P1,P2",
           requests={"default": 24, "help": "total requests across all frames"})
    top_p.add_argument("--frames", type=int, default=3,
                       help="console frames to render")
    _flags(top_p, "--engine", "--labels", "--workers", "--warps", warps=8)
    top_p.add_argument("--fail-on-alert", action="store_true",
                       help="exit 1 if any SLO burn-rate alert fired")
    _flags(top_p, *_OPS_FLAGS)
    top_p.set_defaults(func=_cmd_top)

    incident_p = sub.add_parser(
        "incident",
        help="pretty-print an incident bundle written by the flight recorder",
    )
    incident_p.add_argument("bundle", help="path to an incident-*.json")
    incident_p.add_argument("--last", type=int, default=20,
                            help="flight-recorder events to show")
    incident_p.set_defaults(func=_cmd_incident)

    delta_p = sub.add_parser(
        "delta",
        help="incremental counting over a seeded edge-delta stream, "
             "verified against full re-matching",
    )
    _flags(delta_p, "--dataset", "--pattern")
    delta_p.add_argument("--batches", type=int, default=5,
                         help="delta batches to replay")
    delta_p.add_argument("--edges", type=int, default=4,
                         help="max edges per batch")
    _flags(delta_p, "--seed", "--labels", "--warps", warps=8,
           seed={"help": "stream seed (same seed = same stream)"})
    delta_p.set_defaults(func=_cmd_delta)

    chaos_p = sub.add_parser(
        "chaos", help="run under deterministic fault injection and report survival"
    )
    _flags(chaos_p, "--dataset", "--pattern", "--seed", "--labels", "--gpus",
           "--warps", "--chunk-size",
           seed={"help": "fault-plan seed (same seed = same faults)"})
    chaos_p.add_argument("--attempts", type=int, default=4,
                         help="retry budget (incl. the first attempt)")
    chaos_p.add_argument("--oom-rate", type=float, default=0.25)
    chaos_p.add_argument("--illegal-access-rate", type=float, default=0.0005)
    chaos_p.add_argument("--kernel-launch-rate", type=float, default=0.0)
    chaos_p.add_argument("--queue-corruption-rate", type=float, default=0.02)
    chaos_p.add_argument("--cas-storm-rate", type=float, default=0.05)
    _flags(chaos_p, "--stall-rate", stall_rate=0.1)
    chaos_p.set_defaults(func=_cmd_chaos)

    prof_p = sub.add_parser(
        "profile", help="run one job with span tracing and report the breakdown"
    )
    _flags(prof_p, "--dataset", "--pattern", "--engine", "--labels", "--warps",
           "--chunk-size", "--tau-us", "--strategy", pattern="P3",
           tau_us={"help": "timeout threshold in virtual microseconds (default "
                           "1.0, small enough to exercise timeout steals on "
                           "the stand-ins)"})
    prof_p.add_argument(
        "--sample-every", type=int, default=1,
        help="keep 1 of every N spans per name (counts stay exact)",
    )
    prof_p.add_argument(
        "--trace", default=None, metavar="OUT",
        help="write the per-warp timeline as Chrome trace_event JSON",
    )
    prof_p.set_defaults(func=_cmd_profile)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro datasets | head`
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

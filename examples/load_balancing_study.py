"""Straggler anatomy: why the timeout mechanism exists.

Builds a deliberately skewed workload (a "lens": two hubs sharing hundreds
of neighbors root two enormous search subtrees, the rest of the graph is
trivial) and dissects how each load-balancing strategy copes:

* **No Steal** — the warp that drew the lens edge runs alone while 63 warps
  idle; the makespan is the straggler.
* **Timeout Steal (T-DFS)** — after τ the straggler decomposes into
  3-vertex tasks on the lock-free queue and every warp helps.
* **Half Steal (STMatch)** — thieves lock the victim's stack and take half
  a level; better than nothing, but every stack access now pays a lock.
* **New Kernel (EGSM)** — large fanouts spawn child kernels at a hefty
  launch cost.

Run with::

    python examples/load_balancing_study.py
"""

from repro import (
    Observability,
    RunContext,
    Strategy,
    TDFSConfig,
    from_edges,
    match,
    get_pattern,
)
from repro.bench.reporting import Table, format_ms
from repro.obs import ascii_timeline, utilization


def build_lens_graph(shared: int = 150, tail: int = 500):
    """Two hubs + `shared` common neighbors (ring-connected) + sparse tail."""
    edges = [(0, 1)]
    members = list(range(2, 2 + shared))
    for v in members:
        edges.append((0, v))
        edges.append((1, v))
    for i, v in enumerate(members):
        edges.append((v, members[(i + 1) % len(members)]))
    base = 2 + shared
    for v in range(base, base + tail):
        edges.append((v, v - 1))
    return from_edges(edges, name="lens")


def main() -> None:
    graph = build_lens_graph()
    query = get_pattern("P3")  # the house pattern digs deep into the lens
    print(f"workload: {graph}, pattern {query.name}\n")

    table = Table(
        "load-balancing strategies on a straggler workload",
        ["strategy", "time", "vs timeout", "imbalance",
         "tasks queued", "steals", "kernels"],
    )
    results = {}
    for strategy in (
        Strategy.TIMEOUT, Strategy.HALF_STEAL, Strategy.NEW_KERNEL, Strategy.NONE
    ):
        cfg = TDFSConfig(strategy=strategy)
        results[strategy] = match(graph, query, config=cfg)

    base = results[Strategy.TIMEOUT]
    for strategy, r in results.items():
        table.add_row(
            strategy.value,
            r.error or format_ms(r.elapsed_ms),
            "-" if r.failed else f"{r.elapsed_ms / base.elapsed_ms:.2f}x",
            f"{r.load_imbalance:.1f}",
            r.queue.enqueued,
            r.steals,
            r.kernel_launches,
        )
    counts = {r.count for r in results.values() if not r.failed}
    assert len(counts) == 1, "strategies must agree on the count"
    table.add_note(f"all strategies found the same {counts.pop()} matches")
    table.show()

    # Visualize the straggler: per-warp timelines with and without stealing
    # ('#' = working inside a `match` span, '.' = waiting).  Without stealing
    # one warp carries the lens subtree alone; with the timeout queue every
    # warp shares it.
    for strategy in (Strategy.NONE, Strategy.TIMEOUT):
        obs = Observability(tracing=True)
        match(
            graph,
            query,
            config=TDFSConfig(strategy=strategy, num_warps=8),
            ctx=RunContext(obs=obs),
        )
        spans = obs.tracer.spans()
        print(f"\nwarp timeline — {strategy.value} "
              f"(utilization {utilization(spans, 8):.0%}):")
        print(ascii_timeline(spans, 8, width=56))

    # The τ knob: sweep it to see the decomposition/overhead trade-off.
    sweep = Table(
        "timeout threshold sweep (same workload)",
        ["tau (virtual us)", "time", "tasks queued", "timeouts fired"],
    )
    for tau_us in (1, 10, 100, 1000, 10_000):
        cfg = TDFSConfig(tau_cycles=tau_us * 1000)
        r = match(graph, query, config=cfg)
        sweep.add_row(tau_us, format_ms(r.elapsed_ms), r.queue.enqueued, r.timeouts)
    sweep.add_note("paper Table II: the default is best; too large starves")
    sweep.show()


if __name__ == "__main__":
    main()

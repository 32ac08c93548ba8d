"""Tests for the per-warp timelines (who was working when) and their
diagnostics, computed from the tracer's ``match`` spans."""

import pytest

from repro import (
    Observability,
    RunContext,
    StackMode,
    Strategy,
    TDFSConfig,
    match,
    get_pattern,
)
from repro.core.engine import TDFSEngine
from repro.obs import ascii_timeline, make_span, straggler_tail, utilization
from repro.query.plan import compile_plan


def work(warp, start, end, device=0, name="match"):
    return make_span(name, None, start, end, device, warp)


def traced(graph, pattern, **config):
    obs = Observability(tracing=True)
    result = match(
        graph, get_pattern(pattern), config=TDFSConfig(**config), ctx=RunContext(obs=obs)
    )
    return result, obs.tracer


class TestRecorder:
    """The timeline questions, answered from ``match`` spans."""

    def test_record_and_makespan(self):
        spans = [work(0, 0, 100), work(1, 50, 250)]
        assert utilization(spans, 2) == pytest.approx(300 / (250 * 2))
        assert ascii_timeline(spans, 2).endswith("250 cycles")

    def test_zero_cycles_ignored(self):
        spans = [work(0, 10, 10)]
        assert ascii_timeline(spans, 1) == "(no activity)"
        assert straggler_tail(spans, 1) == 0.0

    def test_utilization(self):
        # Only time inside a match span is work: warp 1 spends its second
        # half in a steal probe.
        spans = [work(0, 0, 100), work(1, 0, 50), work(1, 50, 100, name="steal")]
        assert utilization(spans, 2) == pytest.approx(150 / 200)

    def test_empty_recorder(self):
        assert utilization([], 4) == 0.0
        assert straggler_tail([], 4) == 0.0
        assert ascii_timeline([], 4) == "(no activity)"

    def test_straggler_tail_detects_lone_warp(self):
        spans = [work(w, 0, 100) for w in range(8)]
        spans.append(work(0, 100, 1000))  # one warp runs 9x longer
        assert straggler_tail(spans, 8) > 0.5

    def test_ascii_timeline_marks(self):
        spans = [work(0, 0, 100), work(1, 0, 20), work(1, 80, 100)]
        art = ascii_timeline(spans, 2, width=20)
        assert "#" in art and "." in art

    def test_devices_are_distinct_warps(self):
        # Multi-GPU runs share one tracer: warp 0 of device 1 is not warp 0
        # of device 0.
        spans = [work(0, 0, 100, device=0), work(0, 0, 100, device=1)]
        assert utilization(spans, 2) == pytest.approx(1.0)
        assert len(ascii_timeline(spans, 2).splitlines()) == 3


class TestEngineTracing:
    def test_off_by_default(self, small_plc):
        obs = Observability()
        match(
            small_plc,
            get_pattern("P1"),
            config=TDFSConfig(num_warps=4),
            ctx=RunContext(obs=obs),
        )
        assert RunContext().obs is None
        assert not obs.tracing
        assert obs.tracer.spans() == [] and obs.tracer.counts == {}

    def test_trace_collected(self, small_plc):
        result, tracer = traced(small_plc, "P3", num_warps=4)
        work_spans = [s for s in tracer.spans() if s["name"] == "match"]
        assert work_spans
        assert 0 < tracer.totals["match"] <= result.busy_cycles
        makespan = max(s["start"] + s["dur"] for s in work_spans)
        assert makespan <= result.elapsed_cycles * 1.01 + 10_000

    def test_tracing_does_not_change_results(self, small_plc):
        plan = compile_plan(get_pattern("P3"))
        plain = TDFSEngine(TDFSConfig(num_warps=4)).run(small_plc, plan)
        with_spans = TDFSEngine(
            TDFSConfig(num_warps=4), RunContext(obs=Observability(tracing=True))
        ).run(small_plc, plan)
        assert plain.count == with_spans.count
        assert plain.elapsed_cycles == with_spans.elapsed_cycles

    def test_no_steal_shows_longer_tail(self, straggler_graph):
        _, steal = traced(straggler_graph, "P3", num_warps=8)
        _, none = traced(straggler_graph, "P3", num_warps=8, strategy=Strategy.NONE)
        assert straggler_tail(none.spans(), 8) > straggler_tail(steal.spans(), 8)

    @pytest.mark.parametrize(
        "strategy, tail, util",
        [
            (Strategy.TIMEOUT, 0.0099, 0.990),
            (Strategy.NONE, 0.9307, 0.177),
            (Strategy.HALF_STEAL, 0.0099, 0.551),
        ],
    )
    def test_pinned_straggler_tails(self, straggler_graph, strategy, tail, util):
        """The load-balancing claim (paper Fig. 11) as numbers: timeout
        decomposition removes the straggler tail that no-steal keeps."""
        _, tracer = traced(straggler_graph, "P3", num_warps=8, strategy=strategy)
        assert straggler_tail(tracer.spans(), 8) == pytest.approx(tail, abs=5e-5)
        assert utilization(tracer.spans(), 8) == pytest.approx(util, abs=5e-4)


class TestPagedEqualsArrayExactly:
    def test_enumerated_embeddings_identical(self, skewed_graph):
        # DESIGN.md promise: paged and array stacks produce the same
        # results element for element, not just the same counts.
        plan = compile_plan(get_pattern("P3"))
        paged = TDFSEngine(TDFSConfig(num_warps=8)).run(
            skewed_graph, plan, collect_matches=10**6
        )
        arr = TDFSEngine(
            TDFSConfig(num_warps=8, stack_mode=StackMode.ARRAY_DMAX)
        ).run(skewed_graph, plan, collect_matches=10**6)
        assert set(paged.matches) == set(arr.matches)
        assert paged.count == arr.count == len(set(paged.matches))

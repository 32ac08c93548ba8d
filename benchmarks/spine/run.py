"""Host-clock benchmark spine — one command per workload.

    python3 benchmarks/spine/run.py --workload match-frontier --seed 12
    python3 benchmarks/spine/run.py --workload serve-churn --seed 12 --trace 1
    python3 benchmarks/spine/run.py --quick        # 2 rounds each, all checks
    python3 benchmarks/spine/run.py --aa 3         # two interleaved sets of 3

A run is one workload in one fresh process: pin, set up (datasets, CPU-oracle
counts, two warm-up rounds), then replay the workload's fixed op list round
after round for ``--seconds``, checking every count.  It prints every metric
by name with its unit and, last, one JSON object for the driver.  README.md
in this directory defines the workloads and every metric.
"""

import time

_T0 = time.perf_counter()  # process start, before the imports set-up pays for

import argparse
import gc
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import defaultdict
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "results", "spine")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"no program to measure: {SRC}/repro is missing")
sys.path[:0] = [HERE, SRC]

import layers
import measure
from measure import Calibrator, median, quantile
from repro.errors import ReproError
from workloads import WORKLOADS, OpResult

WORKLOAD_NAMES = tuple(WORKLOADS)

#: (name, unit): the end-to-end metrics, the same on every workload, measured
#: with tracing off.  Timings are reference seconds (see measure.py).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: End-to-end metrics that measure the scheduler, not the program, when the
#: shard workload has a single CPU to run its two processes on.
TIMINGS = tuple(name for name, _ in END_TO_END if name != "peak_rss_mb")

WARMUP_ROUNDS = 2
MIN_ROUNDS = 2  # one state period of serve-churn
SETUP_SLICES = 15  # calibration after each set-up phase
SETUP_RUNS = 3  # set-ups per run; setup_s is their median
# A traced run splits its seconds: spans on and profile off, then both on
# (the profiler roughly doubles op time, so the rest is left for overshoot).
TIMED_SHARE, PROFILED_SHARE = 0.35, 0.5


class Round(NamedTuple):
    wall: float  # seconds inside ops
    cpu: float  # CPU seconds inside ops, children included
    calib: Calibrator  # the slices interleaved with those ops
    latencies: list  # seconds, per op


class Window:
    """A run of whole rounds of one workload, every op timed and checked."""

    def __init__(self, workload, rng, rec, profiles=None) -> None:
        self.workload, self.rng, self.rec, self.profiles = workload, rng, rec, profiles
        self.rounds: list[Round] = []
        self.attempted = self.failed = 0
        self.virtual: dict = {}  # op key -> simulated ms, must never change
        self.counters: dict = defaultdict(float)
        self.pages_peak = 0

    def run_round(self) -> None:
        workload, rec, profile = self.workload, self.rec, self.profiles
        calib, wall, cpu, latencies = Calibrator(), 0.0, 0.0, []
        for i, op in enumerate(workload.round_ops(self.rng)):
            calib.pace(wall)
            key = workload.op_key(op)
            rec.op = f"{len(self.rounds)}:{i}"
            if profile is not None:
                profile.main.enable()
            c0, t0 = measure.cpu_seconds(), time.perf_counter()
            try:
                with rec.span("op"):
                    out = workload.run_op(op, rec)
            except ReproError as exc:  # shed, timed out, rejected: a failed op
                print(f"op {key} failed: {exc!r}", file=sys.stderr)
                out = OpResult(False, math.nan, [])
            dt, dc = time.perf_counter() - t0, measure.cpu_seconds() - c0
            if profile is not None:
                profile.main.disable()
            ok = out.ok and self.virtual.setdefault(key, out.virtual_ms) == out.virtual_ms
            if not ok:
                print(f"op {key} wrong: ok={out.ok} virtual={out.virtual_ms}", file=sys.stderr)
            self.attempted += 1
            self.failed += not ok
            wall += dt
            cpu += dc
            latencies.append(dt)
            for res in out.results:
                rec.adopt(res.op_spans or ())
                if profile is not None:
                    metrics = res.metrics or {}
                    for name in layers.COUNTERS:
                        self.counters[name] += metrics.get(name, 0)
                    self.pages_peak = max(self.pages_peak, metrics.get(layers.PEAK_COUNTER, 0))
        self.rounds.append(Round(wall, cpu, calib, latencies))

    def run(self, seconds: float, rounds: int | None) -> "Window":
        """``rounds`` whole rounds, or as many as start within ``seconds``."""
        start = time.perf_counter()
        while (
            len(self.rounds) < (rounds or MIN_ROUNDS)
            or (rounds is None and time.perf_counter() - start < seconds)
        ):
            self.run_round()
        return self

    # --- what the window measured ---------------------------------------- #

    @property
    def wall_s(self) -> float:
        """Median reference seconds of op time per round."""
        return median([r.wall * r.calib.wall_factor for r in self.rounds])

    @property
    def cpu_s(self) -> float:
        return median([r.cpu * r.calib.cpu_factor for r in self.rounds])

    def latencies_ms(self) -> list[float]:
        return [
            lat * r.calib.wall_factor * 1e3 for r in self.rounds for lat in r.latencies
        ]

    @property
    def wall_s_total(self) -> float:
        """Raw seconds inside ops, whole window."""
        return sum(r.wall for r in self.rounds)

    @property
    def wall_factor(self) -> float:
        """One reference-speed factor for the whole window."""
        slices = sum(r.calib.slices for r in self.rounds)
        return measure.speed_factor(slices, sum(r.calib.wall for r in self.rounds))

    @property
    def virtual_ms(self) -> float:
        """Simulated ms of one round, averaged over the op keys' period
        (exact: every key's value is asserted constant)."""
        periods = len(self.virtual) / self.workload.ops_per_round
        return math.fsum(self.virtual.values()) / periods  # order-free: seeds shuffle


def run_workload(args) -> int:
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload]()
    affinity = measure.pin(workload.pin_one_cpu)
    stamp = measure.environment(ROOT, args.seed, affinity)
    rng = random.Random(args.seed)
    spans = layers.Spans() if trace else layers.NullSpans()
    profiles = None
    windows = []  # every window run, for the attempted/failed totals

    def window(workload=workload, rec=layers.NullSpans(), profiles=None) -> Window:
        windows.append(Window(workload, rng, rec, profiles))
        return windows[-1]

    setup_calib = Calibrator()
    setup_calib.run(SETUP_SLICES)
    try:
        workload.setup(rng, spans, trace)
        setup_calib.run(SETUP_SLICES)
        warmup = window()
        for _ in range(0 if args.rounds else WARMUP_ROUNDS):
            warmup.run_round()
            setup_calib.run(SETUP_SLICES)
        gc.collect()
        setup_raw = time.perf_counter() - _T0 - setup_calib.wall
        setup_s = setup_raw * setup_calib.wall_factor
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 1 if warmup.failed else 0

        if trace:
            # Spans on, profile off: every row the table reports as a time.
            workload.reset_telemetry()
            timed = window(rec=spans)
            timed.run(args.seconds * TIMED_SHARE, args.rounds and MIN_ROUNDS)
            table = layers.timed_rows(workload, timed, spans, setup_calib.wall_factor)
            if workload.sharded:
                inline = window(workload.inline_twin()).run(0, MIN_ROUNDS)
                table.update(layers.inline_rows(timed, inline))
            # Spans and profile on: self times and call counts.  Threads must
            # start after the profilers are installed to be seen by them.
            profiles = layers.Profiles()
            workload.fresh_threads()
            before = profiles.snapshot()
            measured = window(rec=spans, profiles=profiles)
            measured.run(args.seconds * PROFILED_SHARE, args.rounds)
        else:
            measured = window().run(args.seconds, args.rounds)
    finally:
        workload.close()
        if profiles is not None:
            profiles.close()

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    os.makedirs(RESULTS, exist_ok=True)
    if trace:
        attribution = layers.Attribution(before, profiles.snapshot())
        table.update(layers.profiled_rows(workload, measured, timed, attribution))
        metrics = _report_layers(args.workload, table, spans, stamp)
    else:
        setups = [setup_s]
        if args.rounds is None:
            setups += [_setup_only(args) for _ in range(SETUP_RUNS - 1)]
        # Two processes on one CPU time the scheduler, not the program.
        unresolved = not workload.pin_one_cpu and len(affinity) < 2
        metrics = _report_end_to_end(
            args.workload, measured, setups, setup_raw, attempted, failed, unresolved, stamp
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


def _report_layers(name: str, table: dict, spans, stamp: dict) -> dict:
    with open(os.path.join(RESULTS, f"{name}.trace.json"), "w") as fh:
        json.dump(spans.chrome_trace(stamp), fh)
    layers.write_tsv(os.path.join(RESULTS, f"{name}.layers.tsv"), table, stamp)
    metrics = {}
    for metric, unit, _better in layers.LAYER_METRICS:
        value = table.get(metric)
        print(f"{metric:40s} {'absent' if value is None else f'{value:.6g} {unit}'}")
        # The driver wants every per-layer name on every workload; a layer the
        # workload never enters did no work there, so it reads 0.
        metrics[metric] = {"value": 0.0 if value is None else value, "unit": unit}
    return metrics


def _report_end_to_end(
    name, window, setups, setup_raw, attempted, failed, unresolved, stamp
) -> dict:
    latencies = window.latencies_ms()
    values = {
        "setup_s": median(setups),
        "wall_s": window.wall_s,
        "cpu_s": window.cpu_s,
        "lat_p50_ms": median(latencies),
        "lat_p90_ms": quantile(latencies, 0.9),
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    unresolved = list(TIMINGS) if unresolved else []
    record = {
        "workload": name,
        "environment": stamp,
        "metrics": {n: None if n in unresolved else values[n] for n, _ in END_TO_END},
        "unresolved": unresolved,
        "virtual_ms": window.virtual_ms,
        "attempted": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "rounds": len(window.rounds),
        "op_samples": len(latencies),
        "setup_samples_s": setups,
        "raw": {  # as the clocks read, before the reference-speed factor
            "wall_s": median([r.wall for r in window.rounds]),
            "cpu_s": median([r.cpu for r in window.rounds]),
            "setup_s": setup_raw,
            "speed_factor": window.wall_factor,
            # Per round: op wall, op CPU, calibration wall, CPU, slices, op
            # latencies — where a noise investigation starts from.
            "rounds": [
                [r.wall, r.cpu, r.calib.wall, r.calib.cpu, r.calib.slices, r.latencies]
                for r in window.rounds
            ],
        },
    }
    with open(os.path.join(RESULTS, f"{name}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for metric, unit in END_TO_END:
        shown = "unresolved (1 CPU)" if metric in unresolved else f"{values[metric]:.6g} {unit}"
        print(f"{metric:40s} {shown}")
    print(f"{'virtual_ms':40s} {window.virtual_ms!r} ms")
    print(f"{'fail_ratio':40s} {failed / attempted:.6g} ratio")
    print(
        f"attempted {attempted}  succeeded {attempted - failed}  failed {failed}  "
        f"rounds {len(window.rounds)}  op samples {len(latencies)}"
    )
    # The driver's line has no way to say "unresolved"; it gets the readings.
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}


def _child(argv: list[str], timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__), *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _setup_only(args) -> float:
    """One more set-up of the same workload in a fresh process."""
    proc = _child(
        ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    )
    if proc.returncode != 0:
        sys.exit(f"set-up repeat failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _run_child(workload: str, seed: int, extra: list[str]) -> dict:
    """Run one workload in a fresh process; its record plus contract line."""
    proc = _child(["--workload", workload, "--seed", str(seed), *extra])
    if proc.returncode != 0 or not proc.stdout:
        sys.exit(f"{workload} (seed {seed}) exited {proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(RESULTS, f"{workload}.json")) as fh:
        record = json.load(fh)
    record["contract"] = json.loads(proc.stdout.splitlines()[-1])
    return record


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quick(args) -> int:
    """Smoke: 2 rounds per workload, every check on, no bounds; also checks
    that BENCHMARK.json names exactly the metrics the runner emits."""
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(layers.LAYER_METRICS)
    start = time.perf_counter()
    for name in WORKLOAD_NAMES:
        record = _run_child(name, args.seed, ["--rounds", "2"])
        print(
            f"{name:16s} ok  {record['attempted']} ops  virtual_ms {record['virtual_ms']!r}  "
            f"wall_s {record['metrics']['wall_s']}"
        )
    print(f"quick: all checks passed in {time.perf_counter() - start:.1f} s")
    return 0


def aa(args) -> int:
    """Two interleaved sets (A, B) of K runs of every workload on this tree;
    per workload x metric: medians, quartiles, relative gap B vs A, bound."""
    bounds = {m["name"]: m["bound"] for m in _benchmark_json()["end_to_end"]}
    extra = ["--seconds", str(args.seconds)]
    runs: dict = defaultdict(lambda: {"A": [], "B": []})
    for k in range(args.aa):
        for name in WORKLOAD_NAMES:
            for side in ("A", "B"):
                runs[name][side].append(_run_child(name, args.seed + k, extra))
                print(f"run {k + 1}/{args.aa} {name} {side} done", file=sys.stderr)
    bad = 0
    summary: dict = {}
    print(f"{'workload':15s} {'metric':12s} {'median A':>10s} {'median B':>10s} "
          f"{'q1..q3 A':>21s} {'q1..q3 B':>21s} {'gap':>8s} {'bound':>6s}")
    for name in WORKLOAD_NAMES:
        a_runs, b_runs = runs[name]["A"], runs[name]["B"]
        summary[name] = {"virtual_ms": a_runs[0]["virtual_ms"]}
        for metric, _unit in END_TO_END:
            a = [r["contract"]["metrics"][metric]["value"] for r in a_runs]
            b = [r["contract"]["metrics"][metric]["value"] for r in b_runs]
            med_a, med_b = statistics.median(a), statistics.median(b)
            qa = statistics.quantiles(a, n=4) if len(a) > 1 else [med_a] * 3
            qb = statistics.quantiles(b, n=4) if len(b) > 1 else [med_b] * 3
            gap = (med_b - med_a) / med_a
            over = abs(gap) > bounds[metric]
            bad += over
            summary[name][metric] = statistics.median(a + b)
            print(
                f"{name:15s} {metric:12s} {med_a:10.4f} {med_b:10.4f} "
                f"{qa[0]:10.4f}..{qa[2]:<9.4f} {qb[0]:10.4f}..{qb[2]:<9.4f} "
                f"{gap:+8.2%} {bounds[metric]:6.0%}{'  OVER' if over else ''}"
            )
        # Same seed, same code: simulated time and failures must agree exactly.
        for ra, rb in zip(a_runs, b_runs):
            if ra["virtual_ms"] != rb["virtual_ms"] or ra["failed"] or rb["failed"]:
                bad += 1
                print(f"{name}: virtual_ms {ra['virtual_ms']!r} vs {rb['virtual_ms']!r}, "
                      f"failed {ra['failed']}+{rb['failed']}  MISMATCH")
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "aa.json"), "w") as fh:
        json.dump({"runs_per_set": args.aa, "seconds": args.seconds,
                   "environment": runs[WORKLOAD_NAMES[0]]["A"][0]["environment"],
                   "medians": summary}, fh, indent=1)
    print("A/A: " + ("FAILED" if bad else "every gap within its bound"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="length of the measured window (whole rounds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="traced run: prints the per-layer table instead")
    parser.add_argument("--rounds", type=int,
                        help="smoke: exactly this many rounds, one set-up, no warm-up")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s, exit (used for the median)")
    parser.add_argument("--quick", action="store_true", help=quick.__doc__)
    parser.add_argument("--aa", type=int, metavar="K", help=aa.__doc__)
    args = parser.parse_args()
    if args.aa:
        return aa(args)
    if args.quick:
        return quick(args)
    if not args.workload:
        parser.error("one of --workload, --quick, --aa is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

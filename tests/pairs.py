"""Paired A/B runs of the benchmark spine: a parent commit against this tree.

::

    python -m tests.pairs --against <sha> --workload W --pairs N --seed S [--seconds T]

Extracts ``<sha>`` with ``git archive`` into a temporary directory and runs
the unchanged ``benchmarks/spine/run.py`` of each side as a subprocess,
``N`` times each, alternating which side runs first (pair 1 parent first,
pair 2 this tree first, ...), so a slow spell of the host lands on both.
Every run uses the same seed.  It then prints one markdown row per
end-to-end metric that ``BENCHMARK.json`` names: both medians, the gap,
the parent's quartiles and their distance (IQR), the pairs this tree won,
the metric's bound and a verdict:

* ``unresolved`` — the median gap is inside the parent's IQR, or outside
  it but neither of the two below;
* ``gain`` — this tree is better by more than the IQR and won at least
  nine pairs in ten, over ten pairs or more;
* ``regression`` — this tree is worse by more than the IQR and by more
  than the metric's bound (a fraction of the parent's median).

Exits 1 when ``virtual_ms`` differs between any two runs (a host-side
change must not move simulated time) or any op failed, 2 on a bad
argument or a run that did not finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPINE = Path("benchmarks") / "spine"


def extract(sha: str, into: Path) -> str:
    """``git archive`` of ``sha`` unpacked into ``into``; its full sha."""
    full = subprocess.run(
        ["git", "rev-parse", "--verify", f"{sha}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", full], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return full


def run_side(root: Path, workload: str, seed: int, seconds) -> dict:
    """One spine run in ``root``: its end-to-end metrics, ``virtual_ms`` and
    failed-op count, as the run's result record holds them."""
    argv = [sys.executable, str(SPINE / "run.py"), "--workload", workload,
            "--seed", str(seed)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    path = root / "results" / "spine" / f"{workload}.json"
    path.unlink(missing_ok=True)  # never read an earlier run's record
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not path.exists():
        print(f"{root}: {workload} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)
    record = json.loads(path.read_text())
    return {
        "metrics": json.loads(proc.stdout.splitlines()[-1])["metrics"],
        "virtual_ms": record["virtual_ms"],
        "failed": record["failed"],
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(gain: float, iqr: float, bound: float, wins: int, pairs: int) -> str:
    """One metric's verdict from its median ``gain`` (the amount this tree
    is better by, negative when worse, as a fraction of the parent's
    median), the parent's IQR as the same fraction, its bound and the pairs
    this tree won."""
    if abs(gain) <= iqr:
        return "unresolved"
    if gain > 0 and pairs >= 10 and wins >= 0.9 * pairs:
        return "gain"
    if -gain > bound:
        return "regression"
    return "unresolved"


def report(runs: dict, end_to_end: list[dict]) -> list[str]:
    """The markdown table: one row per end-to-end metric."""
    pairs = len(runs["parent"])
    lines = [
        "| metric | parent | change | gap | parent q1..q3 | parent IQR | wins "
        "| bound | verdict |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for metric in end_to_end:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        gap = (med_b - med_a) / med_a
        call = verdict(-sign * gap, (q3 - q1) / med_a, metric["bound"], wins, pairs)
        lines.append(
            f"| `{name}` | {med_a:.4g} | {med_b:.4g} | {gap:+.1%} "
            f"| {q1:.4g}..{q3:.4g} | {q3 - q1:.3g} | {wins}/{pairs} "
            f"| {metric['bound']:.0%} | {call} |"
        )
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.pairs", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--against", required=True, help="the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent = Path(tmp)
        try:
            sha = extract(args.against, parent)
        except subprocess.CalledProcessError:
            parser.error(f"--against {args.against!r}: no such commit here")
        roots = {"parent": parent, "change": ROOT}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(
                    run_side(roots[side], args.workload, args.seed, args.seconds)
                )
            print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    print(
        f"{args.workload}, seed {args.seed}, {args.pairs} alternating pairs, "
        f"parent {sha[:7]} vs this tree"
    )
    print("\n".join(report(runs, end_to_end)))
    every = runs["parent"] + runs["change"]
    virtual = sorted({r["virtual_ms"] for r in every})
    failed = sum(r["failed"] for r in every)
    print(f"virtual_ms {' / '.join(repr(v) for v in virtual)}, failed ops {failed}")
    if len(virtual) > 1 or failed:
        print("FAILED: virtual_ms differs between runs or an op failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

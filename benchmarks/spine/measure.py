"""Clocks for the benchmark spine: reference-speed calibration, CPU pinning,
percentiles and the environment stamp.

Every host timing the spine reports is in *reference seconds*: the measured
time, corrected by how fast a fixed reference kernel (``Calibrator``) ran
next to it.  The README's noise finding 4 has the evidence: on the 2-vCPU VM
this was written on, the host's speed drifts by 10-40 % in bursts and in
stretches of tens of seconds, and eight identical pinned runs of a workload
spread 17-26 % raw (q3 - q1 over the median) but 1-4 % in reference seconds.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

#: What one calibration slice costs on a quiet reference box (the one this
#: benchmark was defined on).  Only a scale: it makes reference seconds read
#: like seconds there.  Changing it rescales every timing of every run, so
#: it is part of the benchmark's definition.
CALIB_REF_S = 0.0036

#: The engine slows more than the reference kernel does under the
#: interference seen on that box: between runs, log(op time) rose 1.30-1.41x
#: as fast as log(slice time) on the single-process workloads (two sets of
#: eight runs each).  A slowdown of the kernel by x is read as x ** CALIB_GAIN.
CALIB_GAIN = 1.3

#: Share of op time spent calibrating, interleaved before each op.
CALIB_SHARE = 0.25


class Calibrator:
    """Runs and accumulates slices of a fixed interpreter + NumPy kernel.

    The kernel imports nothing from the program under test, so a change to
    the repo cannot move it; it mixes dict/int bytecode with small-array
    NumPy calls because that is what the engine's hot path is made of.
    """

    _ARR = np.arange(2048, dtype=np.int64)

    def __init__(self) -> None:
        self.slices = 0
        self.wall = 0.0
        self.cpu = 0.0

    def slice(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        acc, table, arr = 0, {}, self._ARR
        for i in range(1500):
            table[i & 255] = acc
            acc += i * 3 % 7
        for i in range(40):
            np.intersect1d(arr[arr % 7 == i % 7], arr[:512])
        self.wall += time.perf_counter() - w0
        self.cpu += time.process_time() - c0
        self.slices += 1

    def pace(self, op_seconds: float) -> None:
        """One slice, then more until calibration is CALIB_SHARE of
        ``op_seconds`` (the op time this calibrator sits between)."""
        self.slice()
        while self.wall < CALIB_SHARE * op_seconds:
            self.slice()

    def run(self, n: int) -> None:
        for _ in range(n):
            self.slice()

    @property
    def wall_factor(self) -> float:
        """Reference seconds per measured wall second."""
        return speed_factor(self.slices, self.wall)

    @property
    def cpu_factor(self) -> float:
        """Reference seconds per measured CPU second (CPU time does not see
        time stolen from the process, so it gets its own factor)."""
        return speed_factor(self.slices, self.cpu)


def speed_factor(slices: int, seconds: float) -> float:
    """What to multiply a measured time by, given that ``slices`` reference
    slices next to it took ``seconds``."""
    return (CALIB_REF_S * slices / seconds) ** CALIB_GAIN


def cpu_seconds() -> float:
    """User + system CPU of this process and every child reaped so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def pin(one_cpu: bool) -> list[int]:
    """Pin to the highest allowed CPU (thread workloads hand the GIL across
    cores otherwise — README noise finding 2) or keep every allowed CPU.
    Returns the affinity actually set."""
    allowed = sorted(os.sched_getaffinity(0))
    if one_cpu:
        os.sched_setaffinity(0, {allowed[-1]})
    return sorted(os.sched_getaffinity(0))


def quantile(values: list[float], p: float) -> float:
    """Linear-interpolation quantile (``p`` in [0, 1])."""
    return float(np.quantile(values, p))


def median(values: list[float]) -> float:
    return float(np.median(values))


def git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: str, seed: int, affinity: list[int]) -> dict:
    """The stamp written into every output file."""
    import multiprocessing as mp

    return {
        "seed": seed,
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # What repro.shard.coordinator picks for its process pools.
        "start_method": "fork" if "fork" in mp.get_all_start_methods() else "spawn",
        "platform": platform.platform(),
        "argv": sys.argv[1:],
        "calib": {"ref_s": CALIB_REF_S, "gain": CALIB_GAIN, "share": CALIB_SHARE},
    }

"""Typed metric instruments and the registry that names them.

One :class:`Registry` holds every instrument of one scope — a long-lived
serving process (:class:`repro.serve.ServeMetrics`), or a caller's
accumulation of the runs it made (``RunContext.obs``).  A single run keeps
no registry: its statistics are the flat ``MatchResult.metrics`` dict,
merged by :func:`fold_metrics` and accumulated by :meth:`Registry.fold`.

* :class:`Counter` — monotonically increasing event count.
* :class:`Gauge` — a level that moves both ways, with its high-water mark
  (admission-queue depth, pages in use).
* :class:`Histogram` — a distribution with **fixed bucket boundaries**
  (cross-run comparability) plus a bounded sliding window of raw
  observations for exact recent percentiles.

Instruments are get-or-created by name.  A registry built with
``threaded=True`` guards every instrument with one shared lock (the
serving layer); the default is lock-free.

Zero dependencies — stdlib only.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Callable, Iterator, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "fold_metrics",
]

#: Default histogram boundaries: a geometric ladder wide enough for both
#: cycle counts and millisecond latencies.  Callers with a known range
#: (e.g. serve latency) pass their own.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4.0**i for i in range(-2, 16))


#: Suffix of a flat key that is a level, not a count: folded by max.
_PEAK = ".peak"


def fold_metrics(into: dict, other: dict) -> dict:
    """Fold ``other`` into ``into`` — the one merge rule of the flat
    ``name -> number`` schema: values add, except keys ending ``.peak``
    (per-part high-water marks), which take the max.  Devices, shards and
    rescue runs all merge through it; :meth:`Registry.fold` applies the
    same rule to a registry."""
    for key, value in other.items():
        if key.endswith(_PEAK):
            into[key] = max(into.get(key, value), value)
        else:
            into[key] = into.get(key, 0) + value
    return into


class _NullLock:
    """No-op context manager used by unthreaded registries."""

    __slots__ = ()

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_LOCK = _NullLock()

_LockLike = Union[_NullLock, threading.Lock]


class Counter:
    """Monotonically increasing event count."""

    kind = "counter"
    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "", lock: Optional[_LockLike] = None) -> None:
        self.name = name
        self.help = help
        self._value = 0
        self._lock = lock if lock is not None else _NULL_LOCK

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def items(self) -> list[tuple[str, Union[int, float]]]:
        """Exported series: ``(suffix-free name, value)``."""
        return [(self.name, self._value)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A level that moves both ways; tracks its high-water mark."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value", "_peak", "_lock")

    def __init__(self, name: str, help: str = "", lock: Optional[_LockLike] = None) -> None:
        self.name = name
        self.help = help
        self._value = 0
        self._peak = 0
        self._lock = lock if lock is not None else _NULL_LOCK

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = value
            if value > self._peak:
                self._peak = value

    def inc(self, n: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += n
            if self._value > self._peak:
                self._peak = self._value

    def dec(self, n: Union[int, float] = 1) -> None:
        with self._lock:
            self._value -= n

    def set_peak(self, peak: Union[int, float]) -> None:
        """Raise the high-water mark without moving the level."""
        with self._lock:
            if peak > self._peak:
                self._peak = peak

    @property
    def value(self) -> Union[int, float]:
        return self._value

    @property
    def peak(self) -> Union[int, float]:
        return self._peak

    def items(self) -> list[tuple[str, Union[int, float]]]:
        return [(self.name, self._value), (f"{self.name}.peak", self._peak)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self._value}, peak={self._peak})"


class Histogram:
    """Fixed-bucket distribution + bounded window for exact percentiles.

    The bucket counts have stable boundaries (comparable across runs); the
    sliding window keeps the last ``window`` raw observations so
    percentiles reflect *recent* behaviour exactly, the way a long-lived
    service wants.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "help",
        "buckets",
        "bucket_counts",
        "count",
        "total",
        "max",
        "max_age_s",
        "_clock",
        "_values",
        "_lock",
    )

    def __init__(
        self,
        name: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window: int = 4096,
        help: str = "",
        lock: Optional[_LockLike] = None,
        max_age_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket boundary")
        # One count per boundary plus the +inf overflow bucket.
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        if max_age_s is not None and max_age_s <= 0:
            raise ValueError("histogram max_age_s must be positive")
        self.max_age_s = max_age_s
        self._clock = clock if clock is not None else time.monotonic
        # With max_age_s the window holds (t, value) pairs and rotation is
        # time-driven: stale observations drop out of the percentile
        # window whether or not anyone snapshots.  Without it the window
        # is count-bounded only (the original behaviour).
        self._values: deque = deque(maxlen=max(1, int(window)))
        self._lock = lock if lock is not None else _NULL_LOCK

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.total += value
            if value > self.max:
                self.max = value
            if self.max_age_s is None:
                self._values.append(value)
            else:
                now = self._clock()
                self._values.append((now, value))
                self._prune(now)

    def _prune(self, now: float) -> None:
        """Drop window entries older than ``max_age_s`` (lock held)."""
        horizon = now - self.max_age_s
        while self._values and self._values[0][0] < horizon:
            self._values.popleft()

    def _window_values(self) -> list:
        """Current (age-pruned) raw observations in the window."""
        with self._lock:
            if self.max_age_s is None:
                return list(self._values)
            self._prune(self._clock())
            return [v for _, v in self._values]

    @property
    def mean(self) -> float:
        """Mean over the sliding window."""
        values = self._window_values()
        if not values:
            return 0.0
        return sum(values) / len(values)

    def percentile(self, p: float) -> float:
        """Window percentile via nearest-rank (``p`` in [0, 100])."""
        ordered = sorted(self._window_values())
        if not ordered:
            return 0.0
        rank = max(
            0, min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
        )
        return ordered[rank]

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": round(self.mean, 4),
            "p50": round(self.percentile(50), 4),
            "p95": round(self.percentile(95), 4),
            "p99": round(self.percentile(99), 4),
            "max": round(self.max, 4),
        }

    def items(self) -> list[tuple[str, Union[int, float]]]:
        snap = self.snapshot()
        return [(f"{self.name}.{k}", v) for k, v in snap.items()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}, count={self.count})"


Instrument = Union[Counter, Gauge, Histogram]


class Registry:
    """Named instruments of one scope, get-or-created by name."""

    def __init__(self, threaded: bool = False) -> None:
        self._instruments: dict[str, Instrument] = {}
        self._create_lock = threading.Lock()
        self._shared_lock: Optional[threading.Lock] = (
            threading.Lock() if threaded else None
        )

    # ------------------------------------------------------------------ #
    # Instrument creation
    # ------------------------------------------------------------------ #

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window: int = 4096,
        help: str = "",
        max_age_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> Histogram:
        return self._get_or_create(
            name,
            Histogram,
            help=help,
            buckets=buckets,
            window=window,
            max_age_s=max_age_s,
            clock=clock,
        )

    def _get_or_create(self, name: str, cls, **kwargs) -> Instrument:
        with self._create_lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"instrument {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            inst = cls(name=name, lock=self._shared_lock, **kwargs)
            self._instruments[name] = inst
            return inst

    # ------------------------------------------------------------------ #
    # Introspection & export
    # ------------------------------------------------------------------ #

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterator[Instrument]:
        return iter(list(self._instruments.values()))

    def __len__(self) -> int:
        return len(self._instruments)

    def flat(self) -> dict[str, Union[int, float]]:
        """Every series as one flat ``name -> value`` dict (sorted).

        The schema of ``MatchResult.metrics`` and the benchmark session
        dump: counters export one row, gauges add a ``.peak`` row,
        histograms export their summary statistics.
        """
        out: dict[str, Union[int, float]] = {}
        for inst in self:
            out.update(inst.items())
        return dict(sorted(out.items()))

    def fold(self, metrics: dict) -> None:
        """Accumulate one run's flat metrics (``MatchResult.metrics``)
        under the rule of :func:`fold_metrics`: values add into counters,
        a ``.peak`` key sets its gauge's level and raises its high-water
        mark.  How a caller's registry (``RunContext.obs``) sees a run."""
        for key, value in metrics.items():
            if key.endswith(_PEAK):
                self.gauge(key[: -len(_PEAK)]).set(value)
            else:
                self.counter(key).inc(value)

    def snapshot(self) -> dict:
        """Instruments grouped by kind (JSON-compatible)."""
        grouped: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for inst in self:
            if inst.kind == "counter":
                grouped["counters"][inst.name] = inst.value
            elif inst.kind == "gauge":
                grouped["gauges"][inst.name] = {
                    "value": inst.value,
                    "peak": inst.peak,
                }
            else:
                grouped["histograms"][inst.name] = inst.snapshot()
        return grouped

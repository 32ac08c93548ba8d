"""Typed metric instruments and the registry that names them.

One :class:`Registry` holds every instrument of one scope — a long-lived
serving process (:class:`repro.serve.ServeMetrics`), or a caller's
accumulation of the runs it made (``RunContext.obs``).  A single run keeps
no registry: its statistics are the flat ``MatchResult.metrics`` dict,
merged by :func:`fold_metrics` and accumulated by :meth:`Registry.fold`.

* :class:`Counter` — monotonically increasing event count.
* :class:`Gauge` — a level that moves both ways, with its high-water mark
  (admission-queue depth, pages in use).
* :class:`ReadGauge` — a level computed when it is read (the ``slo.*``
  burn rates), so nothing writes it on a hot path.
* :class:`Histogram` — an observation count and maximum plus a bounded
  sliding window of raw observations for exact recent percentiles.
* :class:`TimeRing` — the one store of every windowed series here: a
  histogram's window and :class:`repro.obs.OutcomeWindow` keep their samples
  in it.

Instruments are get-or-created by name.  A registry built with
``threaded=True`` guards every instrument with one shared lock (the
serving layer); the default is lock-free.

Zero dependencies — stdlib only.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from array import array
from typing import Callable, Iterator, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "ReadGauge",
    "Registry",
    "TimeRing",
    "fold_metrics",
]

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
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: Optional[_LockLike] = None) -> None:
        self.name = name
        self._value = 0
        self._lock = lock if lock is not None else _NULL_LOCK

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        with self._lock:
            self._value += n

    def _inc(self) -> None:
        """Add one, with the registry's lock held by the caller."""
        self._value += 1

    @property
    def value(self) -> int:
        return self._value

    def items(self) -> list[tuple[str, Union[int, float]]]:
        """Exported series: ``(suffix-free name, value)``."""
        return [(self.name, self._value)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A level, set by :meth:`set`; tracks its high-water mark."""

    kind = "gauge"
    __slots__ = ("name", "_value", "_peak", "_lock")

    def __init__(self, name: str, lock: Optional[_LockLike] = None) -> None:
        self.name = name
        self._value = 0
        self._peak = 0
        self._lock = lock if lock is not None else _NULL_LOCK

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = value
            if value > self._peak:
                self._peak = value

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


class ReadGauge:
    """A level computed by ``read()`` whenever it is read: it keeps no
    history, so it has no high-water mark and exports one row."""

    kind = "gauge"
    __slots__ = ("name", "_read")

    def __init__(
        self,
        name: str,
        read: Callable[[], Union[int, float]],
        lock: Optional[_LockLike] = None,  # unused: ``read`` locks its source
    ) -> None:
        self.name = name
        self._read = read

    @property
    def value(self) -> Union[int, float]:
        return self._read()

    peak = value

    def items(self) -> list[tuple[str, Union[int, float]]]:
        return [(self.name, self._read())]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReadGauge({self.name})"


class TimeRing:
    """A fixed-capacity window of timed samples in typed columns.

    ``times`` and ``values`` are ``array("d")`` columns.  A ring built
    ``counted`` takes a flag with each sample (a request's error) and keeps
    a third column: the running number of flagged samples before each one;
    each :meth:`track`-ed threshold adds one more such column, for the
    unflagged samples above it.  The flagged or over-threshold samples in
    any suffix of the window are then one subtraction.  Each column costs
    8 bytes a sample.

    The columns grow by appending zeroed slots, doubling up to
    ``capacity``; from then on a push overwrites the oldest slot in place.  Times never decrease (a push
    earlier than the newest sample is clamped to it), so the samples no
    older than a horizon are a suffix, found by bisect.  Age pruning is
    the same bisect: a read starts its window at its horizon or at
    ``max_age_s`` before the newest sample, whichever is later, and frees
    nothing.

    Unlocked: its owner holds a lock around every call.
    """

    __slots__ = (
        "capacity",
        "max_age_s",
        "times",
        "values",
        "newest",
        "_flags",
        "_flagged",
        "_tracked",
        "_over",
        "_n_over",
        "_w",
        "_full",
    )

    def __init__(
        self, capacity: int, max_age_s: Optional[float] = None, counted: bool = False
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.max_age_s = max_age_s
        self.times = array("d")
        self.values = array("d")
        self.newest = -math.inf
        self._flags = array("q") if counted else None
        self._flagged = 0
        self._tracked: tuple[float, ...] = ()
        self._over: list[array] = []
        self._n_over: list[int] = []
        # The samples are the slots before _w, and after the first wrap
        # (_full) the slots from _w on too.
        self._w = 0
        self._full = False

    def push(self, now: float, value: float, flag: bool = False) -> None:
        """Add one sample at ``now``, overwriting the oldest once full.  A
        ``now`` earlier than the newest sample is clamped to it."""
        if now < self.newest:
            now = self.newest
        else:
            self.newest = now
        w = self._w
        times = self.times
        try:
            times[w] = now
        except IndexError:  # past the last slot: grow while filling, else wrap
            if w < self.capacity:
                self._grow(min(max(w, 64), self.capacity - w))
            else:
                self._full = True
                w = 0
            times[w] = now
        self.values[w] = value
        flags = self._flags
        if flags is not None:
            flags[w] = self._flagged
            if self._tracked:
                n_over = self._n_over
                for j, threshold in enumerate(self._tracked):
                    self._over[j][w] = n_over[j]
                    if not flag and value > threshold:
                        n_over[j] += 1
            if flag:
                self._flagged += 1
        self._w = w + 1

    def _grow(self, k: int) -> None:
        """Append ``k`` zeroed slots to every column."""
        zeros = bytes(8 * k)
        for column in (self.times, self.values, self._flags, *self._over):
            if column is not None:
                column.frombytes(zeros)

    def track(self, threshold: float) -> None:
        """Keep an over-``threshold`` column from now on (built once over the
        window), so :meth:`counts` at ``threshold`` subtracts, not walks."""
        if threshold in self._tracked:
            return
        n = self.capacity if self._full else self._w
        start = self._w - n
        column = array("q", [0]) * len(self.times)
        over = 0
        for k, (value, before, after) in enumerate(self._samples(start, n)):
            column[(start + k) % self.capacity] = over
            if before == after and value > threshold:
                over += 1
        self._tracked += (threshold,)
        self._over.append(column)
        self._n_over.append(over)

    def _since(self, horizon: float) -> tuple[int, int]:
        """``(slot, n)``: the first of the ``n`` newest samples that are no
        older than ``horizon`` nor than the age limit (one bisect)."""
        if self.max_age_s is not None and horizon < self.newest - self.max_age_s:
            horizon = self.newest - self.max_age_s
        times, end = self.times, self._w
        start = end - self.capacity if self._full else 0
        if start < 0:  # wrapped: slots start + capacity.., then 0..end - 1
            if times[-1] >= horizon:
                slot = bisect.bisect_left(times, horizon, start + self.capacity)
                return slot, self.capacity - slot + end
            start = 0
        slot = bisect.bisect_left(times, horizon, start, end)
        return slot, end - slot

    def _column(self, column: array, slot: int, n: int) -> array:
        """``n`` entries of ``column`` from ``slot`` on, oldest first."""
        end = slot + n
        if end <= self.capacity:
            return column[slot:end]
        return column[slot:] + column[: end - self.capacity]

    def _samples(self, slot: int, n: int):
        """``(value, flagged before, flagged after)`` of ``n`` samples from
        ``slot`` on, oldest first: a sample is flagged when they differ."""
        flags = self._column(self._flags, slot % self.capacity, n)
        flags.append(self._flagged)
        return zip(self._column(self.values, slot % self.capacity, n), flags, flags[1:])

    def window(self, horizon: float = -math.inf) -> list[float]:
        """The values no older than ``horizon``, oldest first."""
        slot, n = self._since(horizon)
        return self._column(self.values, slot, n).tolist()

    def counts(
        self, horizon: float, threshold: Optional[float] = None
    ) -> tuple[int, int, int]:
        """``(samples, flagged, over)`` no older than ``horizon``; ``over``
        counts the unflagged samples above ``threshold`` (0 without one).
        O(log n) without a threshold or with a tracked one; any other
        threshold walks the window (:meth:`_walk`)."""
        slot, n = self._since(horizon)
        if not n:
            return 0, 0, 0
        flagged = self._flagged - self._flags[slot]
        if threshold is None:
            return n, flagged, 0
        if threshold in self._tracked:
            j = self._tracked.index(threshold)
            return n, flagged, self._n_over[j] - self._over[j][slot]
        return n, flagged, self._walk(slot, n, threshold)

    def _walk(self, slot: int, n: int, threshold: float) -> int:
        """Unflagged samples above ``threshold`` among ``n`` from ``slot``:
        the one walk over the window, for a threshold no column tracks."""
        return sum(
            1
            for value, before, after in self._samples(slot, n)
            if before == after and value > threshold
        )

    def __len__(self) -> int:
        """Samples in the window (within the age limit)."""
        return self._since(-math.inf)[1]


def _nearest_rank(ordered: list, p: float) -> float:
    """The nearest-rank ``p``-th percentile (``p`` in [0, 100]) of a sorted
    list; 0.0 when it is empty."""
    if not ordered:
        return 0.0
    n = len(ordered)
    return ordered[max(0, min(n - 1, int(round(p / 100.0 * (n - 1)))))]


class Histogram:
    """Observation count and maximum + bounded window for exact percentiles.

    The sliding window keeps the last ``window`` raw observations so
    percentiles reflect *recent* behaviour exactly, the way a long-lived
    service wants; :meth:`snapshot` is their one reader.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "count",
        "max",
        "max_age_s",
        "_clock",
        "_window",
        "_lock",
    )

    def __init__(
        self,
        name: str = "",
        window: int = 4096,
        lock: Optional[_LockLike] = None,
        max_age_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.count = 0
        self.max = 0.0
        if max_age_s is not None and max_age_s <= 0:
            raise ValueError("histogram max_age_s must be positive")
        self.max_age_s = max_age_s
        self._clock = clock if clock is not None else time.monotonic
        # With max_age_s rotation is also time-driven: stale observations
        # drop out of the percentile window whether or not anyone
        # snapshots.  Without it the window is count-bounded only, and its
        # samples carry time 0.
        self._window = TimeRing(window, max_age_s)
        self._lock = lock if lock is not None else _NULL_LOCK

    def observe(self, value: float) -> None:
        with self._lock:
            self._observe(float(value), None)

    def _observe(self, value: float, now: Optional[float]) -> None:
        """:meth:`observe` with the lock held by the caller; ``now`` is a
        reading of this histogram's clock the caller already took (None:
        read it here when the window is timed)."""
        self.count += 1
        if value > self.max:
            self.max = value
        if self.max_age_s is None:
            now = 0.0
        elif now is None:
            now = self._clock()
        self._window.push(now, value)

    def _window_values(self) -> list:
        """Current (age-pruned) raw observations in the window."""
        with self._lock:
            if self.max_age_s is None:
                return self._window.window()
            return self._window.window(self._clock() - self.max_age_s)

    def snapshot(self) -> dict:
        """Count, max, and the window's mean and percentiles — all from one
        read of the window, sorted once, so they describe one instant."""
        values = self._window_values()
        mean = sum(values) / len(values) if values else 0.0
        values.sort()
        return {
            "count": self.count,
            "mean": round(mean, 4),
            "p50": round(_nearest_rank(values, 50), 4),
            "p95": round(_nearest_rank(values, 95), 4),
            "p99": round(_nearest_rank(values, 99), 4),
            "max": round(self.max, 4),
        }

    def items(self) -> list[tuple[str, Union[int, float]]]:
        snap = self.snapshot()
        return [(f"{self.name}.{k}", v) for k, v in snap.items()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}, count={self.count})"


Instrument = Union[Counter, Gauge, ReadGauge, Histogram]


class Registry:
    """Named instruments of one scope, get-or-created by name."""

    def __init__(self, threaded: bool = False) -> None:
        self._instruments: dict[str, Instrument] = {}
        self._create_lock = threading.Lock()
        self._shared_lock: Optional[threading.Lock] = (
            threading.Lock() if threaded else None
        )

    @property
    def lock(self) -> _LockLike:
        """The lock every instrument takes (a no-op when unthreaded): a
        caller holding it may move several instruments through their
        unlocked ``_inc`` / ``_observe`` in one acquisition."""
        return self._shared_lock or _NULL_LOCK

    # ------------------------------------------------------------------ #
    # Instrument creation
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def read_gauge(self, name: str, read: Callable[[], Union[int, float]]) -> ReadGauge:
        """A gauge whose value is ``read()`` at each read; ``read`` takes
        whatever lock its source needs (the registry holds none while it
        exports)."""
        return self._get_or_create(name, ReadGauge, read=read)

    def histogram(
        self,
        name: str,
        window: int = 4096,
        max_age_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, window=window, max_age_s=max_age_s, clock=clock
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

"""Plan and result caching for the serving layer.

Both caches are LRU maps keyed by

    (graph_id, graph_version, plan_fingerprint, engine, config_fingerprint)

(the result cache additionally keys on the collect-matches limit).  The
*graph version* in the key is the only invalidation: :class:`~repro.serve.
service.MatchService` bumps a graph's version on every ``update_graph`` /
``apply_edges``, so entries built against the old version simply stop being
addressable and age out of the LRU — batch-dynamic edge updates can never
serve a stale count, and nothing scans a cache.  A planner's entry (its
portfolio and the feedback on it, :class:`~repro.planner.PlanFeedback`) is
stranded the same way.  A plan compiled without a planner depends on no
graph, so its key names none (:func:`plan_key`) and it survives every
update.

Fingerprints are content hashes (SHA-256, truncated): two structurally
identical queries hit the same plan-cache entry regardless of object
identity or pattern name.  A config fingerprints every field it has —
:class:`~repro.core.TDFSConfig` holds only what a run computes; how it is
run (observability, fault plan, retry, event budget) lives in a
:class:`~repro.core.RunContext`, which no cache key ever sees.  Each
fingerprint is computed once per object.
"""

from __future__ import annotations

import enum
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Hashable, Optional, Union

from repro.core.config import TDFSConfig
from repro.query.pattern import QueryGraph
from repro.query.plan import MatchingPlan


@dataclass
class CacheStats:
    """Counter snapshot of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 4),
        }


_ABSENT = object()


class LRUCache:
    """A thread-safe LRU map with hit/miss/eviction counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """Value for ``key`` (marking it most-recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the LRU tail past capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def items(self) -> list[tuple[Hashable, Any]]:
        """Snapshot of ``(key, value)`` pairs, least-recent first."""
        with self._lock:
            return list(self._entries.items())

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# --------------------------------------------------------------------------- #
# Fingerprints and keys
# --------------------------------------------------------------------------- #


def _digest(payload: tuple) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _fingerprint_once(obj, payload) -> str:
    """``_digest(payload(obj))``, computed on first use and kept on ``obj``:
    configs are frozen and queries / plans immutable after construction, so
    a request pays an attribute read, not a field walk and a SHA-256.
    ``replace()`` yields a new object; the memo dies with its object."""
    try:
        return obj._fingerprint
    except AttributeError:
        fp = _digest(payload(obj))
        object.__setattr__(obj, "_fingerprint", fp)
        return fp


def plan_fingerprint(query: Union[QueryGraph, MatchingPlan]) -> str:
    """Content fingerprint of a query pattern (or precompiled plan).

    Fingerprints the *structure* (vertex count, sorted edge list, labels),
    never the pattern name — structurally identical queries share cache
    entries.  A precompiled :class:`MatchingPlan` additionally pins its
    matching order and optimization flags, since those are fixed in the
    plan rather than derived from the engine config.
    """
    return _fingerprint_once(query, _plan_payload)


def _plan_payload(query: Union[QueryGraph, MatchingPlan]) -> tuple:
    if isinstance(query, MatchingPlan):
        q = query.query
        return (
            "plan",
            q.num_vertices,
            tuple(q.edges()),
            q.labels,
            tuple(query.order),
            query.symmetry_enabled,
            query.reuse_enabled,
        )
    return ("query", query.num_vertices, tuple(query.edges()), query.labels)


def config_fingerprint(config: TDFSConfig) -> str:
    """Stable fingerprint over every field of a config, except one that
    opts out where it is defined (``metadata={"fingerprint": False}``)."""
    return _fingerprint_once(config, _config_payload)


def _config_payload(config: TDFSConfig) -> tuple:
    parts = []
    for f in fields(config):
        if not f.metadata.get("fingerprint", True):
            continue
        value = getattr(config, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif f.name == "kernel_backend":
            # A constructed backend instance must fingerprint by name, not
            # by repr (object identity would make every fingerprint unique).
            # Backend choice cannot change counts — conformance-tested —
            # but it stays in the fingerprint so cached results report the
            # backend that actually produced them.
            value = getattr(value, "name", value)
        parts.append((f.name, value))
    return tuple(parts)


def plan_key(
    graph_id: str,
    graph_version: int,
    plan_fp: str,
    engine: str,
    config_fp: str,
    planned: bool = True,
) -> tuple:
    """Key of one plan-cache entry.

    Graph identity and version are in the key iff a planner produced the
    entry (``planned``): a cost-ranked portfolio and the runs observed on
    it depend on the graph's statistics, so they live at one version and a
    version bump strands them.  Without a planner ``engine.compile``
    ignores the graph, so one entry serves every graph at every version.
    """
    if planned:
        return (graph_id, graph_version, plan_fp, engine, config_fp)
    return (None, None, plan_fp, engine, config_fp)


def result_key(
    graph_id: str,
    graph_version: int,
    plan_fp: str,
    engine: str,
    config_fp: str,
    collect_matches: int = 0,
) -> tuple:
    """Key of one result-cache entry (collect limit changes the payload)."""
    return (graph_id, graph_version, plan_fp, engine, config_fp, collect_matches)

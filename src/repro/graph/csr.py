"""Compressed sparse row (CSR) data-graph representation.

This is the device-side layout the paper keeps in GPU global memory
(Section III): undirected simple graphs with sorted adjacency lists so that
warp-level set intersections can use per-lane binary search.

The class is deliberately immutable after construction — the simulated
device uploads it once per job, and all engines (T-DFS, STMatch, EGSM, PBE
and the CPU reference) share the same instance.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import GraphError

VertexId = int

#: dtype used for vertex ids everywhere; matches the paper's 32-bit ids.
VID_DTYPE = np.int32

#: Largest packed adjacency bitset a graph builds, in bytes (``|V|² / 8``:
#: up to 2 896 vertices; the largest stand-in dataset, 2 200, needs 605 KB).
#: A larger graph has none (see :meth:`CSRGraph.adjacency_bits`).
ADJACENCY_BITS_MAX_BYTES = 1 << 20


class CSRGraph:
    """An undirected simple graph in CSR format with optional vertex labels.

    Parameters
    ----------
    row_ptr:
        ``int64`` array of length ``n + 1``; adjacency of vertex ``v`` lives
        in ``col_idx[row_ptr[v]:row_ptr[v + 1]]``.
    col_idx:
        ``int32`` array of neighbor ids; each adjacency list must be sorted
        ascending and free of duplicates and self-loops.
    labels:
        Optional ``int32`` array of length ``n`` assigning a label to each
        vertex.  ``None`` means the graph is unlabeled (equivalently: every
        vertex has label 0 — the accessor :meth:`label` returns 0 then).
    name:
        Human-readable dataset name used in reports.
    validate:
        When true (default) the invariants above are checked eagerly.
    """

    __slots__ = (
        "row_ptr",
        "col_idx",
        "labels",
        "name",
        "_degrees",
        "_max_degree",
        "_dir_edges",
        "_adj_bits",
        "_profile_cache",
        "_shard_plans",
    )

    def __init__(
        self,
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
        validate: bool = True,
    ) -> None:
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        self.col_idx = np.ascontiguousarray(col_idx, dtype=VID_DTYPE)
        self.labels = (
            None if labels is None else np.ascontiguousarray(labels, dtype=np.int32)
        )
        self.name = name
        if self.row_ptr.ndim != 1 or self.col_idx.ndim != 1:
            raise GraphError("row_ptr and col_idx must be 1-D arrays")
        if self.row_ptr.size == 0:
            raise GraphError("row_ptr must have at least one entry")
        self._degrees = np.diff(self.row_ptr).astype(np.int64)
        self._max_degree = int(self._degrees.max()) if self._degrees.size else 0
        self._dir_edges: Optional[np.ndarray] = None
        self._adj_bits: Optional[np.ndarray] = None
        # Planner statistics cache, keyed (seed, samples); owned by
        # repro.planner.stats.profile_graph.  Safe because the graph is
        # immutable — a replaced graph is a new instance.
        self._profile_cache: Optional[dict] = None
        # Shard plans keyed by what they depend on besides the graph; owned
        # by repro.shard.planner.ShardPlanner.plan, safe for the same reason.
        self._shard_plans: Optional[dict] = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        n = self.num_vertices
        if self.row_ptr[0] != 0:
            raise GraphError("row_ptr[0] must be 0")
        if self.row_ptr[-1] != self.col_idx.size:
            raise GraphError("row_ptr[-1] must equal len(col_idx)")
        if np.any(np.diff(self.row_ptr) < 0):
            raise GraphError("row_ptr must be non-decreasing")
        if self.col_idx.size:
            if self.col_idx.min() < 0 or self.col_idx.max() >= n:
                raise GraphError("col_idx contains out-of-range vertex ids")
        if self.labels is not None and self.labels.size != n:
            raise GraphError(
                f"labels has {self.labels.size} entries for {n} vertices"
            )
        for v in range(n):
            adj = self.neighbors(v)
            if adj.size > 1 and np.any(np.diff(adj) <= 0):
                raise GraphError(f"adjacency of vertex {v} is not strictly sorted")
            if adj.size and np.any(adj == v):
                raise GraphError(f"vertex {v} has a self-loop")

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.row_ptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (each stored twice in CSR)."""
        return self.col_idx.size // 2

    @property
    def num_directed_edges(self) -> int:
        """Number of CSR entries, i.e. ``2 |E|``."""
        return self.col_idx.size

    @property
    def max_degree(self) -> int:
        """``d_max``, the quantity that drives stack sizing in the paper."""
        return self._max_degree

    @property
    def avg_degree(self) -> float:
        """Average degree ``2|E| / |V|``."""
        if self.num_vertices == 0:
            return 0.0
        return self.col_idx.size / self.num_vertices

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    @property
    def num_labels(self) -> int:
        """Number of distinct labels (1 for unlabeled graphs)."""
        if self.labels is None:
            return 1
        return int(np.unique(self.labels).size) if self.labels.size else 0

    def degree(self, v: VertexId) -> int:
        """Degree of vertex ``v``."""
        return int(self._degrees[v])

    @property
    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees (int64, length ``|V|``)."""
        return self._degrees

    def label(self, v: VertexId) -> int:
        """Label of ``v`` (0 when the graph is unlabeled)."""
        if self.labels is None:
            return 0
        return int(self.labels[v])

    def neighbors(self, v: VertexId) -> np.ndarray:
        """Sorted neighbor array of ``v`` (a view into ``col_idx``)."""
        return self.col_idx[self.row_ptr[v] : self.row_ptr[v + 1]]

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Edge test via binary search on the smaller adjacency list."""
        if self.degree(u) > self.degree(v):
            u, v = v, u
        adj = self.neighbors(u)
        pos = int(np.searchsorted(adj, v))
        return pos < adj.size and int(adj[pos]) == v

    # ------------------------------------------------------------------ #
    # Iteration / export
    # ------------------------------------------------------------------ #

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All undirected edges once, as an ``(|E|, 2)`` array with u < v."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=VID_DTYPE), self._degrees
        )
        mask = src < self.col_idx
        return np.column_stack([src[mask], self.col_idx[mask]])

    def directed_edge_array(self) -> np.ndarray:
        """All ``2|E|`` directed CSR entries as an ``(2|E|, 2)`` array.

        These are the *initial tasks* of the paper: T-DFS creates one initial
        task per directed edge ``(v_i1, v_i2)`` matching ``(u_1, u_2)``.

        The array is memoized (the graph is immutable), so every engine run
        against the same instance — in particular the requests of one serving
        micro-batch — shares a single candidate build.  Callers must treat
        the returned array as read-only.
        """
        if self._dir_edges is None:
            src = np.repeat(
                np.arange(self.num_vertices, dtype=VID_DTYPE), self._degrees
            )
            self._dir_edges = np.column_stack([src, self.col_idx])
        return self._dir_edges

    def adjacency_bits(self) -> Optional[np.ndarray]:
        """The adjacency matrix packed one bit per vertex pair: ``uint8``
        bytes whose bit ``k & 7`` of byte ``k >> 3`` is set iff ``k = u * n
        + v`` for a directed edge ``(u, v)``, so ``v in N(u)`` is one byte
        read and a shift.

        Memoized like :meth:`directed_edge_array` and, like it, left out of
        the pickle; an :meth:`apply_delta` successor builds its own.
        ``None`` when the bitset would exceed
        :data:`ADJACENCY_BITS_MAX_BYTES`.
        """
        if self._adj_bits is None:
            n = self.num_vertices
            size = (n * n + 7) // 8
            if size > ADJACENCY_BITS_MAX_BYTES:
                return None
            edges = self.directed_edge_array()
            keys = edges[:, 0].astype(np.int64) * n + edges[:, 1]
            bits = np.zeros(size, dtype=np.uint8)
            np.bitwise_or.at(
                bits, keys >> 3, np.left_shift(1, keys & 7).astype(np.uint8)
            )
            self._adj_bits = bits
        return self._adj_bits

    def apply_delta(self, delta, name: str | None = None) -> "CSRGraph":
        """Successor graph under a batch-dynamic edge delta.

        ``delta`` is a :class:`repro.dynamic.DeltaBatch` (anything with
        a ``normalize(graph)`` method returning net added/removed pair
        arrays works), or the :class:`repro.dynamic.NetDelta` a batch
        already normalized against this graph.  The receiver is untouched —
        graphs stay immutable; the batch-dynamic layer swaps whole
        instances.

        The build is fully vectorized: removal is one ``np.isin`` mask
        over the directed CSR entries (no per-edge Python loop), and
        additions are spliced into the already-sorted adjacency with one
        ``np.insert`` — O(|E| + |Δ| log d_max) with no global re-sort.
        Vertex-growing adds extend ``|V|``; new vertices of a labeled
        graph get label 0.
        """
        net = delta.normalize(self) if hasattr(delta, "normalize") else delta
        n_old = self.num_vertices
        n = net.num_vertices
        col = self.col_idx.astype(np.int64, copy=False)
        row_ptr = self.row_ptr
        if len(net.removed):
            src = np.repeat(np.arange(n_old, dtype=np.int64), self._degrees)
            lo = np.minimum(src, col)
            hi = np.maximum(src, col)
            stride = np.int64(n)
            rem_keys = net.removed[:, 0] * stride + net.removed[:, 1]
            keep = ~np.isin(lo * stride + hi, rem_keys)
            col = col[keep]
            counts = np.bincount(src[keep], minlength=n_old)
            row_ptr = np.zeros(n_old + 1, dtype=np.int64)
            np.cumsum(counts, out=row_ptr[1:])
        if n > n_old:
            row_ptr = np.concatenate(
                [row_ptr, np.full(n - n_old, row_ptr[-1], dtype=np.int64)]
            )
        if len(net.added):
            # Both directions of each new undirected edge, sorted by
            # (src, dst) so same-row inserts land in ascending order.
            ins = np.concatenate([net.added, net.added[:, ::-1]])
            ins = ins[np.lexsort((ins[:, 1], ins[:, 0]))]
            positions = np.empty(len(ins), dtype=np.int64)
            for i, (x, y) in enumerate(ins):
                a, b = row_ptr[x], row_ptr[x + 1]
                positions[i] = a + np.searchsorted(col[a:b], y)
            col = np.insert(col, positions, ins[:, 1])
            grown = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(ins[:, 0], minlength=n), out=grown[1:])
            row_ptr = row_ptr + grown
        labels = None
        if self.labels is not None:
            labels = np.zeros(n, dtype=np.int32)
            labels[:n_old] = self.labels
        return CSRGraph(
            row_ptr,
            col.astype(VID_DTYPE),
            labels,
            name or self.name,
            validate=False,
        )

    def with_labels(self, labels: Sequence[int] | np.ndarray, name: str | None = None) -> "CSRGraph":
        """Return a copy of this graph carrying the given vertex labels."""
        arr = np.asarray(labels, dtype=np.int32)
        return CSRGraph(
            self.row_ptr,
            self.col_idx,
            labels=arr,
            name=name or self.name,
            validate=False,
        )

    def without_labels(self) -> "CSRGraph":
        """Return an unlabeled copy (sharing the CSR arrays)."""
        return CSRGraph(self.row_ptr, self.col_idx, None, self.name, validate=False)

    def memory_bytes(self) -> int:
        """Device-memory footprint of the CSR arrays (plus labels)."""
        total = self.row_ptr.nbytes + self.col_idx.nbytes
        if self.labels is not None:
            total += self.labels.nbytes
        return total

    def __getstate__(self) -> dict:
        """Pickle only the defining arrays; memoized caches (directed-edge
        array, adjacency bitset, planner profile, shard plans) are derived
        and rebuilt lazily on the other side — shipping them to shard worker
        processes would only bloat the pickle."""
        return {
            "row_ptr": self.row_ptr,
            "col_idx": self.col_idx,
            "labels": self.labels,
            "name": self.name,
        }

    def __setstate__(self, state: dict) -> None:
        # The source graph already validated; skip re-validation on load.
        self.__init__(
            state["row_ptr"],
            state["col_idx"],
            state["labels"],
            state["name"],
            validate=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lab = f", labels={self.num_labels}" if self.is_labeled else ""
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, d_max={self.max_degree}{lab})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        same_struct = np.array_equal(self.row_ptr, other.row_ptr) and np.array_equal(
            self.col_idx, other.col_idx
        )
        if not same_struct:
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        if self.labels is not None:
            return bool(np.array_equal(self.labels, other.labels))
        return True

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.col_idx.size, self.name))

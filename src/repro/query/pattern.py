"""Query-graph representation.

Query graphs ``G_Q`` are tiny (≤ 8 vertices in the paper's P1–P22), so a
dense adjacency-set representation is used instead of CSR.  Vertices are
``0..k-1``; optional labels support the labeled patterns P12–P22 where
``label(u_i) = i mod 4``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import QueryError


class QueryGraph:
    """A small connected undirected query pattern.

    Parameters
    ----------
    num_vertices:
        Number of query vertices ``k = |V_Q|``.
    edges:
        Undirected edge pairs among ``0..k-1``.
    labels:
        Optional per-vertex labels.  ``None`` means unlabeled.
    name:
        Pattern name (``"P4"`` etc.) used in reports.
    """

    # The last three are constants of the (immutable) structure, unset until
    # first computed: serve's fingerprint, |Aut|, dynamic's anchored plans.
    __slots__ = (
        "num_vertices", "adj", "labels", "name", "_edges",
        "_fingerprint", "_aut_size", "_anchored_plans",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[int]] = None,
        name: str = "query",
    ) -> None:
        if num_vertices < 1:
            raise QueryError("query graph needs at least one vertex")
        self.num_vertices = int(num_vertices)
        self.adj: list[set[int]] = [set() for _ in range(self.num_vertices)]
        self._edges: list[tuple[int, int]] = []
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise QueryError(f"self-loop on query vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise QueryError(f"edge ({u}, {v}) out of range")
            if v not in self.adj[u]:
                self.adj[u].add(v)
                self.adj[v].add(u)
                self._edges.append((min(u, v), max(u, v)))
        self._edges.sort()
        if labels is not None:
            if len(labels) != self.num_vertices:
                raise QueryError("labels length must equal num_vertices")
            self.labels: Optional[tuple[int, ...]] = tuple(int(x) for x in labels)
        else:
            self.labels = None
        self.name = name
        if self.num_vertices > 1 and not self._connected():
            raise QueryError(f"query graph {name!r} must be connected")

    def _connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.num_vertices

    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges, each once, sorted."""
        return list(self._edges)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def label(self, u: int) -> int:
        """Label of query vertex ``u`` (0 when unlabeled)."""
        return 0 if self.labels is None else self.labels[u]

    def neighbors(self, u: int) -> set[int]:
        return self.adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def with_labels(self, labels: Sequence[int], name: Optional[str] = None) -> "QueryGraph":
        """Copy with labels attached (used to build P12–P22 from P1–P11)."""
        return QueryGraph(
            self.num_vertices, self._edges, labels=labels, name=name or self.name
        )

    def relabeled_by(self, perm: Sequence[int], name: Optional[str] = None) -> "QueryGraph":
        """Apply a vertex permutation ``perm`` (new id of old vertex ``i``)."""
        if sorted(perm) != list(range(self.num_vertices)):
            raise QueryError("perm must be a permutation of the vertex ids")
        edges = [(perm[u], perm[v]) for u, v in self._edges]
        labels = None
        if self.labels is not None:
            labels = [0] * self.num_vertices
            for old, new in enumerate(perm):
                labels[new] = self.labels[old]
        return QueryGraph(self.num_vertices, edges, labels, name or self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lab = ", labeled" if self.is_labeled else ""
        return (
            f"QueryGraph({self.name!r}, k={self.num_vertices}, "
            f"m={self.num_edges}{lab})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self._edges == other._edges
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, tuple(self._edges), self.labels))

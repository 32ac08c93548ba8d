"""Data-graph statistics consumed by the cost-based planner.

A :class:`GraphProfile` is computed once per graph (and cached on the
:class:`~repro.graph.csr.CSRGraph` instance, which is immutable) and holds
everything the cardinality estimator needs:

* degree moments — the mean degree and the *size-biased* mean
  ``E[d²]/E[d]``, which is the expected degree of the endpoint of a random
  directed edge.  On skewed graphs the two differ by orders of magnitude,
  and the size-biased one is the right branching factor for extensions
  reached through an already-matched neighbor;
* label frequencies and per-label degree statistics (sorted per-label
  degree arrays double as exact survival functions for the query's
  minimum-degree filters);
* a sampled wedge-closure rate: the probability that a random 2-path
  closes into a triangle.  This is the conditional selectivity of each
  backward-neighbor constraint past the first one.

Sampling is seeded, so identical ``(graph, seed, samples)`` triples
produce identical profiles — plans stay deterministic end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph

#: Default number of sampled wedges for the closure-rate estimate.
DEFAULT_WEDGE_SAMPLES = 512


@dataclass(frozen=True)
class GraphProfile:
    """Statistics of one data graph, sufficient for cardinality estimation."""

    name: str
    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    sb_degree: float
    """Size-biased mean degree ``E[d²]/E[d]`` — expected degree of the
    vertex at the far end of a uniformly random directed edge."""
    edge_prob: float
    """Probability that two distinct uniform random vertices are adjacent."""
    closure_rate: float
    """Sampled probability that a random wedge (2-path) closes into a
    triangle; the selectivity applied per backward constraint past the
    first."""
    label_freq: dict[int, float]
    """Fraction of vertices carrying each label ({0: 1.0} when unlabeled)."""
    seed: int
    samples: int
    _sorted_degrees: dict[int, np.ndarray] = field(
        repr=False, compare=False, default_factory=dict
    )
    """Per-label ascending degree arrays (label -1 = all vertices)."""

    # ------------------------------------------------------------------ #

    @property
    def is_labeled(self) -> bool:
        return set(self.label_freq) != {0}

    def freq(self, label: int) -> float:
        """Label frequency (1.0 for label 0 on unlabeled graphs)."""
        return self.label_freq.get(label, 0.0)

    def degree_survival(self, min_degree: int, label: int = -1) -> float:
        """Fraction of vertices (of ``label``; -1 = any) with degree >=
        ``min_degree`` — the exact survival of the degree filter."""
        degs = self._sorted_degrees.get(label)
        if degs is None or degs.size == 0:
            return 0.0
        if min_degree <= 0:
            return 1.0
        lo = int(np.searchsorted(degs, min_degree, side="left"))
        return float(degs.size - lo) / float(degs.size)

    def candidates_with(self, label: int, min_degree: int) -> float:
        """Expected number of vertices carrying ``label`` (0 label on an
        unlabeled graph means *any*) with degree >= ``min_degree``."""
        if not self.is_labeled and label == 0:
            return self.num_vertices * self.degree_survival(min_degree, -1)
        n_label = self.freq(label) * self.num_vertices
        return n_label * self.degree_survival(min_degree, label)

    def row(self) -> tuple:
        """Compact tuple for reports/debugging."""
        return (
            self.name,
            self.num_vertices,
            self.num_edges,
            round(self.avg_degree, 2),
            round(self.sb_degree, 2),
            round(self.closure_rate, 4),
            len(self.label_freq),
        )


def _sample_closure_rate(
    graph: CSRGraph, samples: int, seed: int
) -> float:
    """Seeded wedge sampling: P(2-path closes into a triangle).

    Wedges are sampled edge-biased — a random directed edge ``(u, v)``
    plus a random second neighbor ``w != u`` of ``v`` — which weights
    centers by degree the same way the matching process does (candidates
    arrive through adjacency lists, not uniformly).
    """
    m2 = graph.num_directed_edges
    if m2 == 0 or samples <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    edge_ids = rng.integers(0, m2, size=samples)
    # Map CSR entry index -> source vertex via the row pointer.
    srcs = np.searchsorted(graph.row_ptr, edge_ids, side="right") - 1
    closed = 0
    wedges = 0
    for eid, u in zip(edge_ids, srcs):
        v = int(graph.col_idx[eid])
        adj_v = graph.neighbors(v)
        if adj_v.size < 2:
            continue
        w = int(adj_v[rng.integers(0, adj_v.size)])
        if w == int(u):
            continue
        wedges += 1
        if graph.has_edge(int(u), w):
            closed += 1
    if wedges == 0:
        return 0.0
    return closed / wedges


def compute_profile(
    graph: CSRGraph,
    seed: int = 0,
    samples: int = DEFAULT_WEDGE_SAMPLES,
) -> GraphProfile:
    """Compute a :class:`GraphProfile` (uncached; see :func:`profile_graph`)."""
    n = graph.num_vertices
    degrees = graph.degrees
    total = float(degrees.sum())
    avg = total / n if n else 0.0
    sb = float((degrees.astype(np.float64) ** 2).sum()) / total if total else 0.0
    edge_prob = avg / (n - 1) if n > 1 else 0.0

    sorted_degrees: dict[int, np.ndarray] = {-1: np.sort(degrees)}
    label_freq: dict[int, float] = {}
    if graph.is_labeled and n:
        for lab in np.unique(graph.labels):
            lab = int(lab)
            mask = graph.labels == lab
            label_freq[lab] = int(mask.sum()) / n
            sorted_degrees[lab] = np.sort(degrees[mask])
    else:
        label_freq[0] = 1.0
        sorted_degrees[0] = sorted_degrees[-1]

    return GraphProfile(
        name=graph.name,
        num_vertices=n,
        num_edges=graph.num_edges,
        avg_degree=avg,
        max_degree=graph.max_degree,
        sb_degree=sb,
        edge_prob=edge_prob,
        closure_rate=_sample_closure_rate(graph, samples, seed),
        label_freq=label_freq,
        seed=seed,
        samples=samples,
        _sorted_degrees=sorted_degrees,
    )


def profile_graph(
    graph: CSRGraph,
    seed: int = 0,
    samples: int = DEFAULT_WEDGE_SAMPLES,
) -> GraphProfile:
    """Profile ``graph``, caching on the (immutable) instance.

    The cache is keyed by ``(seed, samples)`` so planner configs with
    different sampling budgets coexist; a replaced graph (the serving
    layer's ``update_graph``) is a *new* instance, so profiles can never
    go stale.
    """
    cache = getattr(graph, "_profile_cache", None)
    if cache is None:
        cache = {}
        graph._profile_cache = cache
    key = (seed, samples)
    profile = cache.get(key)
    if profile is None:
        profile = compute_profile(graph, seed=seed, samples=samples)
        cache[key] = profile
    return profile

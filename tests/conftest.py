"""Shared fixtures: small deterministic graphs and fast engine configs."""

from __future__ import annotations

import pytest

from repro import TDFSConfig, from_edges
from repro.graph.generators import erdos_renyi, power_law_cluster, with_hubs


@pytest.fixture(scope="session")
def triangle():
    """K3."""
    return from_edges([(0, 1), (1, 2), (2, 0)], name="triangle")


@pytest.fixture(scope="session")
def k4():
    """K4 — 6 diamonds, 1 clique, known counts for every small pattern."""
    return from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], name="k4"
    )


@pytest.fixture(scope="session")
def k6():
    """K6 — rich in every P1–P11 pattern."""
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    return from_edges(edges, name="k6")


@pytest.fixture(scope="session")
def small_plc():
    """200-vertex clustered power-law graph: the workhorse for count tests."""
    return power_law_cluster(200, 3, p_triangle=0.6, seed=42, name="small-plc")


@pytest.fixture(scope="session")
def small_er():
    """150-vertex Erdős–Rényi graph (few triangles, balanced degrees)."""
    return erdos_renyi(150, 6.0, seed=43, name="small-er")


@pytest.fixture(scope="session")
def skewed_graph():
    """Small graph with an injected hub — exercises straggler paths."""
    base = power_law_cluster(150, 2, p_triangle=0.5, seed=44, name="skewed")
    return with_hubs(base, num_hubs=1, hub_degree=80, seed=45, name="skewed")


@pytest.fixture(scope="session")
def straggler_graph():
    """A graph with two giant initial tasks and a trivial remainder.

    Vertices 0 and 1 share 120 neighbors (a "lens"), so the edge (0, 1)
    roots an enormous search subtree while the sparse tail contributes
    almost nothing — the exact straggler shape the timeout mechanism
    targets.  A ring among the shared neighbors gives the subtree depth.
    """
    edges = [(0, 1)]
    shared = list(range(2, 122))
    for v in shared:
        edges.append((0, v))
        edges.append((1, v))
    for i, v in enumerate(shared):
        edges.append((v, shared[(i + 1) % len(shared)]))
    # Sparse tail: a long path of low-degree vertices.
    for v in range(122, 400):
        edges.append((v, v - 1))
    return from_edges(edges, name="straggler")


@pytest.fixture(scope="session")
def labeled_plc(small_plc):
    """Labeled variant of the workhorse graph (4 labels)."""
    from repro.graph.builder import relabel_random

    return relabel_random(small_plc, 4, seed=7, name="small-plc-L4")


@pytest.fixture(scope="session")
def fast_config():
    """Engine config with few warps — keeps DES runs quick in tests."""
    return TDFSConfig(num_warps=8)


@pytest.fixture
def start_later(monkeypatch):
    """Services whose pool does not start on submit, so their queue keeps
    what it is given; call the returned function on a service to start it
    for real."""
    from repro.serve import MatchService

    start = MatchService._start
    monkeypatch.setattr(MatchService, "_start", lambda self: True)
    return start

"""Automorphism computation and symmetry breaking.

The paper uses the BLISS library to compute the automorphism group of each
query pattern and derives ordering constraints such as ``id(u_1) < id(u_3)``
that break pattern symmetry, so each subgraph instance is enumerated exactly
once (Section I and IV-B; this is what EGSM lacks and why it is 360× slower
on unlabeled queries).

Query graphs have at most ~8 vertices, so instead of porting BLISS we run a
pruned backtracking enumeration of the full automorphism group — exact, and
instant at this scale.

The constraint generator uses the standard stabilizer-chain scheme (as in
GraphPi/GraphZero): walk the matching order; at each position, force the
matched data vertex to carry the smallest id within its orbit under the
current stabilizer subgroup, then descend to that stabilizer.  The resulting
invariant, checked by the test suite, is::

    embeddings_without_constraints == instances_with_constraints * |Aut(G_Q)|
"""

from __future__ import annotations

from typing import Sequence

from repro.query.pattern import QueryGraph


def automorphisms(query: QueryGraph) -> list[tuple[int, ...]]:
    """All (label-preserving) automorphisms of ``query``.

    Each automorphism is a tuple ``phi`` with ``phi[u]`` the image of vertex
    ``u``.  The identity is always included.

    >>> from repro.query.patterns import get_pattern
    >>> len(automorphisms(get_pattern("P2")))  # K4
    24
    """
    k = query.num_vertices
    # Candidate images per vertex: same label and same degree.
    candidates: list[list[int]] = [
        [
            w
            for w in range(k)
            if query.degree(w) == query.degree(u) and query.label(w) == query.label(u)
        ]
        for u in range(k)
    ]
    result: list[tuple[int, ...]] = []
    image = [-1] * k
    used = [False] * k

    def extend(u: int) -> None:
        if u == k:
            result.append(tuple(image))
            return
        for w in candidates[u]:
            if used[w]:
                continue
            # Edges to already-mapped vertices must be preserved both ways.
            ok = True
            for v in range(u):
                if query.has_edge(u, v) != query.has_edge(w, image[v]):
                    ok = False
                    break
            if ok:
                image[u] = w
                used[w] = True
                extend(u + 1)
                used[w] = False
                image[u] = -1

    extend(0)
    return result


def automorphism_group_size(query: QueryGraph) -> int:
    """``|Aut(G_Q)|`` — the redundancy factor without symmetry breaking.
    A constant of the (immutable) query: enumerated once, kept on it."""
    try:
        return query._aut_size
    except AttributeError:
        query._aut_size = len(automorphisms(query))
        return query._aut_size


def symmetry_breaking_constraints(
    query: QueryGraph, order: Sequence[int]
) -> list[list[int]]:
    """Per-position less-than constraints along a matching order.

    Returns ``cond`` with one list per order position: ``cond[j]`` contains
    earlier positions ``i`` such that the data vertex matched at position
    ``j`` must have a *larger* id than the one matched at position ``i``
    (i.e. ``id(S[i]) < id(S[j])``).

    Derivation: iterate positions ``i`` in order; with ``A`` the current
    stabilizer of the already-fixed prefix, every automorphism image
    ``w = phi(order[i]) != order[i]`` sits at some later position ``p`` and
    yields the constraint ``id at position i < id at position p``; then ``A``
    shrinks to the stabilizer of ``order[i]``.
    """
    k = query.num_vertices
    pos_of = {u: i for i, u in enumerate(order)}
    group = automorphisms(query)
    cond: list[set[int]] = [set() for _ in range(k)]
    for i in range(k):
        u = order[i]
        orbit = {phi[u] for phi in group}
        for w in orbit:
            if w == u:
                continue
            p = pos_of[w]
            # The stabilizer of the prefix can only map u to later positions.
            assert p > i, "stabilizer orbit reached an already-fixed position"
            cond[p].add(i)
        group = [phi for phi in group if phi[u] == u]
    return [sorted(s) for s in cond]


def constraint_pairs(cond: list[list[int]]) -> list[tuple[int, int]]:
    """Flatten per-position constraints into ``(smaller_pos, larger_pos)``."""
    pairs: list[tuple[int, int]] = []
    for j, lows in enumerate(cond):
        for i in lows:
            pairs.append((i, j))
    return sorted(pairs)

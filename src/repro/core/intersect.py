"""Warp-level sorted-set intersection with cost accounting.

The GPU idiom (paper Section II): threads of a warp stream elements of the
smaller list ``A`` in 32-element coalesced batches; each lane binary-searches
its element in ``B``; survivors are compacted by a warp ballot scan into the
output.  Here NumPy does the actual work and the
:class:`~repro.gpusim.costmodel.CostModel` charges what the warp would pay.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.gpusim.costmodel import CostModel


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique int arrays (ids preserved sorted)."""
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.int32)
    if a.size > b.size:
        a, b = b, a
    pos = np.searchsorted(b, a)
    # Elements of ``a`` beyond ``b.max()`` probe index ``b.size`` — clamp
    # them onto the last slot explicitly.  The follow-up equality mask then
    # rejects them (``b[-1] != a_i`` by construction), so out-of-range
    # probes can never alias onto a spurious hit.
    np.minimum(pos, b.size - 1, out=pos)
    mask = b[pos] == a
    return a[mask].astype(np.int32, copy=False)


def intersect_many(
    lists: Sequence[np.ndarray], cost: CostModel
) -> tuple[np.ndarray, int, int]:
    """Intersect several sorted lists; returns ``(result, cycles, steps)``.

    Charges one warp intersection per pairwise step, streaming the current
    (smaller) partial result against the next list, smallest list first —
    the order the stack machine uses; ``steps`` counts the pairwise
    intersections performed (the loop stops at an empty result).  A single
    list costs one copy (it must still be written to the stack level by the
    caller, charged separately).  This is the only multi-list intersect
    loop: the scalar matcher, the vectorized backend's shared-set case and
    the BFS engines all charge through it.
    """
    n = len(lists)
    if n == 2:
        # The common case, without the sort: a stable smallest-first order
        # of two lists is one comparison.
        a, b = lists
        if a.size > b.size:
            a, b = b, a
        return intersect_sorted(a, b), cost.intersect_cost(a.size, b.size), 1
    if n == 1:
        arr = lists[0]
        return arr, cost.copy_cost(arr.size), 0
    if n == 0:
        return np.empty(0, dtype=np.int32), cost.step, 0
    ordered = sorted(lists, key=lambda x: x.size)
    result = ordered[0]
    cycles = steps = 0
    for other in ordered[1:]:
        steps += 1
        cycles += cost.intersect_cost(result.size, other.size)
        result = intersect_sorted(result, other)
        if result.size == 0:
            break
    return result, cycles, steps

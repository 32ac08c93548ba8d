"""The reference backend: per-candidate extension, unchanged.

``ScalarBackend`` declines every batch offer, so the warp matcher runs its
original one-candidate-at-a-time loop.  It exists as the conformance
baseline the vectorized backend is differential-tested against.
"""

from __future__ import annotations

from repro.kernels.base import KernelBackend


class ScalarBackend(KernelBackend):
    """Per-candidate reference path (the matcher's built-in loop)."""

    name = "scalar"
    batched = False

"""Pluggable kernel backends for candidate computation (``repro.kernels``).

The warp matcher delegates its data-parallel work — intersections, filters,
cycle accounting — to a :class:`KernelBackend`.  Backends are stateless and
conformance-tested to produce identical candidate sets, match counts and
simulated cycle charges; they differ only in host wall-clock:

* ``"scalar"`` — the per-candidate reference path.
* ``"vectorized"`` — one NumPy pass per window of leaf candidates or
  initial rows (the default).

Select one via ``TDFSConfig(kernel_backend=...)`` (a name or a constructed
backend instance) or ``repro run --kernel-backend``.
"""

from __future__ import annotations

from typing import Union

from repro.errors import ReproError
from repro.kernels.base import Block, KernelBackend
from repro.kernels.scalar import ScalarBackend
from repro.kernels.vectorized import VectorizedBackend

_BACKENDS = {"scalar": ScalarBackend, "vectorized": VectorizedBackend}

#: Names accepted by :func:`make_backend` / ``TDFSConfig.kernel_backend``.
BACKEND_NAMES = tuple(_BACKENDS)


def available_backends() -> tuple[str, ...]:
    """Registered backend names (the CLI's ``--kernel-backend`` choices)."""
    return BACKEND_NAMES


def make_backend(name: str) -> KernelBackend:
    """Construct a backend by name (:class:`ReproError` on an unknown one)."""
    cls = _BACKENDS.get(name)
    if cls is None:
        raise ReproError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(BACKEND_NAMES)}"
        )
    return cls()


def resolve_backend(spec: Union[str, KernelBackend, None]) -> KernelBackend:
    """Backend from a config value: a name, an instance, or ``None``."""
    if spec is None:
        spec = "vectorized"
    if isinstance(spec, KernelBackend):
        return spec
    return make_backend(spec)


__all__ = [
    "KernelBackend",
    "Block",
    "ScalarBackend",
    "VectorizedBackend",
    "BACKEND_NAMES",
    "available_backends",
    "make_backend",
    "resolve_backend",
]

"""Exception hierarchy for the T-DFS reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Simulation failures that mirror real GPU failure modes
(device OOM, illegal access, kernel launch failure) get their own subclasses
because the paper's evaluation distinguishes them: EGSM reports ``OOM`` on
Friendster, and the New-Kernel strategy crashes on some pattern/graph pairs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """Malformed graph input (bad edge list, unsorted CSR, bad labels)."""


class QueryError(ReproError):
    """Malformed query pattern or impossible matching order."""


class PlanError(QueryError):
    """A matching plan could not be compiled (e.g. disconnected prefix)."""


class DeviceError(ReproError):
    """Base class for simulated-device failures."""


class DeviceOOMError(DeviceError):
    """The simulated device ran out of global memory.

    Mirrors the ``OOM`` entries the paper reports for EGSM's CT-index on
    Friendster (Table IV) and for the New-Kernel strategy (Fig. 11).
    """

    def __init__(self, requested: int, available: int, what: str = "allocation"):
        self.requested = int(requested)
        self.available = int(available)
        self.what = what
        super().__init__(
            f"device OOM during {what}: requested {requested} B, "
            f"only {available} B free"
        )


class IllegalAccessError(DeviceError):
    """An out-of-bounds access in simulated device memory.

    Mirrors the ``illegal memory access`` failures the paper observed when
    running EGSM on some graphs.
    """


class KernelLaunchError(DeviceError):
    """A (simulated) child kernel could not be launched."""


class StackLevelOverflowError(ReproError):
    """A stack level could not hold its candidates: a paged level's page
    table is full, or an ``OverflowPolicy.RAISE`` array level overflowed.

    STMatch's fixed 4096-slot levels overflow on skewed graphs, which the
    paper shows leads to *incorrect counts*: an ``ARRAY_FIXED`` level
    truncates instead and the result reports ``overflowed``.
    """


class UnsupportedError(ReproError):
    """The engine does not support the requested workload.

    For example PBE only supports unlabeled queries (paper Section IV-B).
    """

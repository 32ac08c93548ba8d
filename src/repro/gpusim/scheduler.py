"""Discrete-event warp scheduler.

Each warp is a Python generator that yields the number of virtual cycles it
just spent (``yield warp.sync()``).  The scheduler keeps a min-heap of warp
resume times and always resumes the warp with the smallest local clock, so
all shared-state interactions (queue operations, stealing, termination
checks) happen in global virtual-time order and the simulation is fully
deterministic.

Between two yields a warp may do an arbitrary amount of *local* work while
accumulating charges — only interactions with shared state need a yield.
This keeps the Python overhead of the simulation proportional to the number
of interactions, not the number of search-tree nodes.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Optional

from repro.errors import DeviceError

#: Hard cap on scheduler events; hitting it means a livelock in a strategy.
MAX_EVENTS = 50_000_000

WarpBody = Generator[int, None, None]


class Scheduler:
    """Min-heap discrete-event loop over warp generators."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, object, WarpBody]] = []
        self._seq = 0
        self.now = 0
        self.events = 0
        #: Fault-injection hooks (see :mod:`repro.faults`).  ``resume_hook``
        #: is consulted before each warp resumption and may return an
        #: exception to throw into the warp (a mid-task illegal access);
        #: ``charge_hook`` may stretch the cycles a warp just spent (a
        #: straggler/stall slowdown).  Both default to None — the scheduler
        #: is byte-identical to the unhooked one when no plan is armed.
        self.resume_hook: Optional[
            Callable[[object, int], Optional[BaseException]]
        ] = None
        self.charge_hook: Optional[Callable[[object, int], int]] = None
        #: Checkpoint hook (see ``RunContext.checkpoint_every_events``):
        #: called with the current virtual time every ``pause_every``
        #: events, at a point where *every* warp is suspended at a yield —
        #: the same consistent state a fatal fault would freeze, so callers
        #: may take an exact recovery snapshot of the run.  The hook may
        #: raise to abort the run (a simulated worker death).
        self.pause_hook: Optional[Callable[[int], None]] = None
        self.pause_every: int = 0

    def spawn(self, warp: object, body: WarpBody, at: Optional[int] = None) -> None:
        """Register a warp generator to start at virtual time ``at``.

        May be called while :meth:`run` is executing (child kernels).
        """
        start = self.now if at is None else int(at)
        heapq.heappush(self._heap, (start, self._seq, warp, body))
        self._seq += 1

    def run(self, max_events: int = MAX_EVENTS) -> int:
        """Drive all warps to completion; returns the final virtual time."""
        heap = self._heap
        while heap:
            time, _seq, warp, body = heapq.heappop(heap)
            self.now = time
            # Let the warp context know when it was resumed so that
            # ``warp.now`` stays consistent without a scheduler round-trip.
            setter = getattr(warp, "_on_resume", None)
            if setter is not None:
                setter(time)
            try:
                if self.resume_hook is not None:
                    exc = self.resume_hook(warp, time)
                    if exc is not None:
                        # Deliver the fault at the warp's suspension point —
                        # a consistent state for the recovery snapshot.
                        body.throw(exc)
                spent = body.send(None)
            except StopIteration:
                finisher = getattr(warp, "_on_finish", None)
                if finisher is not None:
                    finisher(time)
                continue
            if self.charge_hook is not None:
                spent = self.charge_hook(warp, spent)
            self.events += 1
            if self.events > max_events:
                raise DeviceError(
                    f"scheduler exceeded {max_events} events; "
                    "a warp strategy is livelocked"
                )
            heapq.heappush(heap, (time + int(spent), self._seq, warp, body))
            self._seq += 1
            if (
                self.pause_hook is not None
                and self.pause_every > 0
                and self.events % self.pause_every == 0
            ):
                self.pause_hook(self.now)
        return self.now

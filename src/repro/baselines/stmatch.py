"""STMatch simulation (Wei & Jiang, SC'22) — paper Sections II & IV-B.

Design choices reproduced from the paper's description:

* **Half stealing** (Fig. 2; :class:`HalfStealJob`, also ``tdfs``'s
  ``HALF_STEAL``): idle warps lock a victim warp's stack and take half of
  the shallowest level's remaining candidates; the victim pays locking
  overhead on *every* stack access and stalls while being robbed.
* **Fixed-capacity stack levels**: hardcoded capacity per level (4096 ids
  in the original, scaled here).  On skewed graphs candidate sets overflow
  and are silently truncated — "the results are incorrect since STMatch
  finds 2 million more [sic: fewer] matchings than the correct number".
  Results carry ``overflowed=True`` when this happened.
* **Host-side edge prefiltering**: the initial-edge filter runs serially on
  one CPU core before the kernel launches; on big graphs this is up to 58 %
  of total time (Fig. 10 discussion).
* **Separate set-difference vertex removal**: matched-vertex removal is an
  independent set operation instead of being fused into the intersection —
  "more rounds of set operations to compute the candidate set".
* Symmetry breaking is performed (like T-DFS, unlike EGSM).

STMatch shares the warp matcher's kernel-backend hook (:mod:`repro.kernels`):
its set-difference charge (:attr:`STMatchJob.stmatch_removal`) and
fixed-capacity truncation are reproduced by the vectorized backend (which
re-scans truncated levels so the wrong counts stay *identically* wrong), so
the kernel-conformance suite covers this engine too.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.config import RunContext, StackMode, Strategy, TDFSConfig
from repro.core.engine import TDFSEngine
from repro.core.warp_matcher import MatchJob, RunState
from repro.gpusim.device import Warp


class HalfStealJob(MatchJob):
    """MatchJob whose idle warps half-steal from busy ones (paper Fig. 2);
    a fill locks the stack, so only leaf blocks fold."""

    steals = True
    folds_above_leaf = False

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        # STMatch: the warp locks its own stack on every access.
        self.fill_lock = self.cost.lock_acquire

    def _steal(
        self, warp: Warp, st: RunState
    ) -> Generator[int, None, Optional[Generator]]:
        """Probe victims and steal half of the shallowest available level;
        return the stolen work, or ``None``."""
        cost = self.cost
        yield warp.sync()
        probe0 = warp.now
        warp.charge(cost.steal_probe)
        for victim in self.run_states:
            if victim is st or not victim.busy_flag:
                continue
            pending = self._steal_from(warp, victim)
            if pending is not None:
                warp.steals += 1
                if self.tracer.enabled:
                    self._span(warp, "steal", probe0, warp.now)
                return self._process_stolen(warp, st, pending)
        return None

    def _steal_from(self, warp: Warp, victim: RunState) -> Optional[tuple]:
        """Lock ``victim`` and split its shallowest remaining work."""
        cost = self.cost
        # Chunk level first: unprocessed initial edges are the shallowest.
        chunk = victim.chunk
        if chunk is not None:
            remaining = len(chunk) - victim.chunk_pos
            if remaining >= 2:
                warp.charge(cost.lock_acquire)
                keep = remaining - remaining // 2
                cut = victim.chunk_pos + keep
                stolen = chunk[cut:]
                victim.chunk = chunk[:cut]
                stall = cost.lock_acquire + cost.steal_copy_per_element * len(stolen) * 2
                victim.pending_stall += stall
                warp.charge(cost.steal_copy_per_element * len(stolen) * 2)
                return ("edges", stolen)
        # Otherwise: shallowest stack level with >= 2 unprocessed candidates.
        for p in range(victim.item_prefix, self.plan.num_levels - 1):
            f = victim.filtered[p]
            if f is None:
                break
            remaining = len(f) - victim.iters[p]
            if remaining >= 2:
                warp.charge(cost.lock_acquire)
                keep = remaining - remaining // 2
                cut = victim.iters[p] + keep
                stolen = f[cut:]
                victim.filtered[p] = f[:cut]
                prefix = [int(x) for x in victim.path[:p]]
                stall = cost.lock_acquire + cost.steal_copy_per_element * (
                    len(stolen) + p
                )
                victim.pending_stall += stall
                warp.charge(cost.steal_copy_per_element * (len(stolen) + p))
                return ("prefix", prefix, stolen)
        return None

    def _process_stolen(
        self, warp: Warp, st: RunState, pending: tuple
    ) -> Generator[int, None, None]:
        """Process work stolen from a victim's stack."""
        st.t0 = warp.now
        if pending[0] == "edges":
            yield from self._process_chunk(warp, st, pending[1])
            return
        _, st.aux_prefix, st.aux_cands = pending
        st.aux_pos = 0
        yield from self._process_aux(warp, st)


class STMatchJob(HalfStealJob):
    """HalfStealJob that also pays STMatch's separate set-difference pass
    for matched-vertex removal on every filter."""

    stmatch_removal = True


class STMatchEngine(TDFSEngine):
    """STMatch re-implemented on the shared virtual-GPU substrate."""

    name = "stmatch"
    host_filter = True

    def __init__(
        self, config: Optional[TDFSConfig] = None, ctx: Optional[RunContext] = None
    ) -> None:
        base = config or TDFSConfig()
        super().__init__(
            base.replace(
                strategy=Strategy.HALF_STEAL,
                stack_mode=StackMode.ARRAY_FIXED,
                enable_reuse=False,
            ),
            ctx,
        )

    def _make_job(self, **kwargs) -> STMatchJob:
        return STMatchJob(**kwargs)

    def with_dmax_stacks(self) -> "STMatchEngine":
        """Variant the paper benchmarks against: capacity raised to d_max
        ("we set the capacity to d_max instead unless otherwise stated"),
        restoring correctness at a large memory cost."""
        engine = STMatchEngine(self.config, self.ctx)
        engine.config = engine.config.replace(stack_mode=StackMode.ARRAY_DMAX)
        return engine

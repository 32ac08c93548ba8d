"""STMatch simulation (Wei & Jiang, SC'22) — paper Sections II & IV-B.

Design choices reproduced from the paper's description:

* **Half stealing** (Fig. 2): idle warps lock a victim warp's stack and take
  half of the shallowest level's remaining candidates; the victim pays
  locking overhead on *every* stack access and stalls while being robbed.
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
its ``stmatch_removal`` set-difference charge and fixed-capacity truncation
are reproduced by the vectorized backend (which re-scans truncated levels so
the wrong counts stay *identically* wrong), so the kernel-conformance suite
covers this engine too.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import RunContext, StackMode, Strategy, TDFSConfig
from repro.core.engine import TDFSEngine


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
                truncate_on_overflow=True,
                stmatch_removal=True,
                enable_reuse=False,
            ),
            ctx,
        )

    def with_dmax_stacks(self) -> "STMatchEngine":
        """Variant the paper benchmarks against: capacity raised to d_max
        ("we set the capacity to d_max instead unless otherwise stated"),
        restoring correctness at a large memory cost."""
        engine = STMatchEngine(self.config, self.ctx)
        engine.config = engine.config.replace(stack_mode=StackMode.ARRAY_DMAX)
        return engine

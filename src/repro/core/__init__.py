"""T-DFS core: the paper's primary contribution.

The engine runs depth-first subgraph matching on the virtual GPU with:

* warp-level backtracking over explicit stacks (Algorithms 2 & 4),
* timeout-based task decomposition into a lock-free queue (Fig. 4–5),
* dynamically paged stack levels (Fig. 6, Algorithm 5),
* edge filtering and set-intersection result reuse.

Alternative load-balancing strategies (Half Steal, New Kernel, No Steal)
are implemented inside the same framework, mirroring the paper's Fig. 11
methodology.
"""

from repro.core.config import RunContext, TDFSConfig, Strategy, StackMode
from repro.core.engine import TDFSEngine, match
from repro.core.result import MatchResult

__all__ = [
    "TDFSConfig",
    "RunContext",
    "Strategy",
    "StackMode",
    "TDFSEngine",
    "MatchResult",
    "match",
]

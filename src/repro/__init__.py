"""repro — reproduction of "Faster Depth-First Subgraph Matching on GPUs".

T-DFS (Yuan et al., ICDE 2024) runs depth-first subgraph matching on GPUs
with timeout-based task decomposition into a lock-free circular queue and
dynamically paged warp stacks.  This package reproduces the full system on a
deterministic virtual-GPU simulator, together with the baselines the paper
evaluates against (STMatch, EGSM, PBE) and a serial CPU reference.

Quick start::

    from repro import load_dataset, get_pattern, match

    graph = load_dataset("youtube")
    result = match(graph, get_pattern("P1"))
    print(result.count, result.elapsed_ms)

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper's evaluation.
"""

from repro.core.config import RunContext, StackMode, Strategy, TDFSConfig
from repro.core.engine import TDFSEngine, available_engines, match
from repro.core.result import MatchResult, RecoveryStats
from repro.dynamic import (
    DeltaBatch,
    DeltaError,
    IncrementalConfig,
    IncrementalMatcher,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.graph.builder import GraphBuilder, from_edges, relabel_random
from repro.obs import Observability, Registry, Tracer
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, dataset_names, load_dataset
from repro.query.pattern import QueryGraph
from repro.query.patterns import PATTERNS, get_pattern, pattern_names
from repro.query.plan import MatchingPlan, compile_plan
from repro.query.random_queries import random_query
from repro.shard import ShardCoordinator, ShardPlan, ShardPlanner
from repro.verify import VerificationReport, verify_engines

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "GraphBuilder",
    "from_edges",
    "relabel_random",
    "QueryGraph",
    "PATTERNS",
    "get_pattern",
    "pattern_names",
    "MatchingPlan",
    "compile_plan",
    "TDFSConfig",
    "RunContext",
    "Strategy",
    "StackMode",
    "TDFSEngine",
    "MatchResult",
    "RecoveryStats",
    "DeltaBatch",
    "DeltaError",
    "IncrementalConfig",
    "IncrementalMatcher",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "Observability",
    "Registry",
    "Tracer",
    "ShardCoordinator",
    "ShardPlan",
    "ShardPlanner",
    "match",
    "available_engines",
    "DATASETS",
    "dataset_names",
    "load_dataset",
    "random_query",
    "verify_engines",
    "VerificationReport",
    "__version__",
]

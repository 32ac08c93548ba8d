"""Cross-engine verification harness.

``verify_engines`` runs one workload through every engine and checks the
system's correctness invariants in one place:

* all exact engines agree with the serial CPU reference,
* engines without symmetry breaking report ``instances × |Aut|``,
* engines with known unreliability (STMatch's fixed stacks) are flagged
  rather than failed when they overflow.

Used by the integration tests and available to downstream users as a
sanity check after modifying the matcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.baselines.cpu import cpu_count
from repro.core.config import TDFSConfig
from repro.core.engine import match
from repro.errors import UnsupportedError
from repro.graph.csr import CSRGraph
from repro.query.pattern import QueryGraph
from repro.query.plan import MatchingPlan, compile_plan

#: Engines that enumerate exact instance counts under the shared plan.
EXACT_ENGINES = ("tdfs", "pbe")

#: Engines that skip symmetry breaking (report embeddings).
EMBEDDING_ENGINES = ("egsm",)


@dataclass
class VerificationReport:
    """Outcome of one cross-engine verification."""

    graph_name: str
    query_name: str
    reference_count: int
    aut_size: int
    results: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    flagged: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    reference_engine: str = "cpu"
    seed: Optional[int] = None
    """Generator seed of the (graph, query) case, when the caller supplied
    one — lets a property-based harness reproduce the exact divergence."""

    @property
    def ok(self) -> bool:
        """True when no engine disagreed with the reference."""
        return not self.mismatches

    def divergences(self) -> list[tuple[str, str, int, int]]:
        """Divergent engine pairs: ``(engine, reference_engine, got, want)``.

        Every mismatch is a disagreement between one engine and the
        reference engine the expectation was derived from.
        """
        return [
            (engine, self.reference_engine, got, want)
            for engine, got, want in self.mismatches
        ]

    def summary(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        seed_note = f", seed={self.seed}" if self.seed is not None else ""
        parts = [
            f"[{status}] {self.graph_name}/{self.query_name}: "
            f"{self.reference_count} instances (|Aut|={self.aut_size}"
            f"{seed_note})"
        ]
        for engine, result in self.results.items():
            parts.append(f"  {engine}: {result.error or result.count}")
        for engine, ref, got, want in self.divergences():
            where = f" (seed {self.seed})" if self.seed is not None else ""
            parts.append(
                f"  !! {engine} vs {ref} diverged: "
                f"{engine} reported {got}, {ref} expects {want}{where}"
            )
        for engine, why in self.flagged:
            parts.append(f"  -- {engine} flagged: {why}")
        return "\n".join(parts)


def verify_engines(
    graph: CSRGraph,
    query: Union[QueryGraph, MatchingPlan, str],
    config: Optional[TDFSConfig] = None,
    engines: Optional[list[str]] = None,
    seed: Optional[int] = None,
) -> VerificationReport:
    """Run ``query`` through every engine and cross-check the counts.

    ``seed``, when given, is recorded on the report and rendered with any
    divergence so property-based callers get a reproducible pointer.
    """
    if isinstance(query, str):
        from repro.query.patterns import get_pattern

        query = get_pattern(query)
    if isinstance(query, MatchingPlan):
        plan = query
        pattern = plan.query
    else:
        pattern = query
        plan = compile_plan(pattern)
    config = config or TDFSConfig()

    reference = cpu_count(graph, plan)
    report = VerificationReport(
        graph_name=graph.name,
        query_name=pattern.name,
        reference_count=reference,
        aut_size=plan.aut_size,
        seed=seed,
    )

    todo = engines or list(EXACT_ENGINES + EMBEDDING_ENGINES) + ["stmatch"]
    for engine in todo:
        try:
            result = match(graph, pattern, engine=engine, config=config)
        except UnsupportedError as exc:
            report.skipped.append((engine, str(exc)))
            continue
        report.results[engine] = result
        if result.failed:
            report.flagged.append((engine, result.error))
            continue
        expected = reference
        if engine in EMBEDDING_ENGINES:
            expected = reference * plan.aut_size
        if engine == "stmatch" and result.overflowed:
            report.flagged.append((engine, "fixed-stack overflow (paper IV-G)"))
            continue
        if result.count != expected:
            report.mismatches.append((engine, result.count, expected))
    return report

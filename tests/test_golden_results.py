"""Golden-count regression against a tracked fixture.

``tests/golden/fig9_counts.tsv`` pins the embedding count of ten
(dataset, pattern) cells of the fig-9 grid — the cheap patterns of two
datasets, including zero-count cells (absence is as load-bearing as
presence).  Each count was produced through ``run_cell`` and cross-checked
against ``engine="cpu"``.  Re-running the cells and comparing counts (only
counts — timings are configuration-dependent) catches any semantic drift in
the matcher, the plans, or the stand-in dataset generators, all of which
are deterministic by construction.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import run_cell

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "fig9_counts.tsv")


def load_golden() -> dict[tuple[str, str], int]:
    """Parse the fixture into ``{(dataset, pattern): instances}``."""
    counts: dict[tuple[str, str], int] = {}
    with open(GOLDEN_PATH) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("dataset\t"):
                continue
            dataset, pattern, instances = line.split("\t")
            counts[(dataset, pattern)] = int(instances)
    return counts


GOLDEN = load_golden()


def test_golden_fixture_parses():
    assert len(GOLDEN) == 10
    assert {d for d, _ in GOLDEN} == {"dblp", "facebook"}
    assert all(v >= 0 for v in GOLDEN.values())
    assert any(v == 0 for v in GOLDEN.values())


@pytest.mark.parametrize("dataset,pattern", sorted(GOLDEN))
def test_count_matches_golden(dataset, pattern):
    result = run_cell(dataset, pattern, "tdfs")
    assert not result.failed, result.error
    assert result.count == GOLDEN[(dataset, pattern)], (
        f"{dataset}/{pattern}: got {result.count}, "
        f"golden fixture says {GOLDEN[(dataset, pattern)]}"
    )
    # Every bench cell also carries its statistics.
    assert result.metrics["engine.matches"] == result.count

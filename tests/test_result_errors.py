"""Tests for result types and the exception hierarchy."""

import pytest

from repro.core.result import METRIC_VIEWS, MatchResult
from repro.errors import (
    DeviceError,
    DeviceOOMError,
    GraphError,
    IllegalAccessError,
    KernelLaunchError,
    PlanError,
    QueryError,
    ReproError,
    StackLevelOverflowError,
    UnsupportedError,
)
from repro.gpusim.costmodel import CYCLES_PER_MS


def mk(**over):
    base = dict(
        engine="tdfs",
        graph_name="g",
        query_name="P1",
        count=10,
        elapsed_cycles=2 * CYCLES_PER_MS,
        aut_size=4,
    )
    base.update(over)
    return MatchResult(**base)


class TestMatchResult:
    def test_elapsed_ms(self):
        assert mk().elapsed_ms == pytest.approx(2.0)

    def test_embeddings_with_symmetry(self):
        r = mk(symmetry_enabled=True)
        assert r.count_embeddings == 40
        assert r.count_instances == 10

    def test_embeddings_without_symmetry(self):
        r = mk(symmetry_enabled=False)
        assert r.count_embeddings == 10
        assert r.count_instances == pytest.approx(2.5)

    def test_failed_flag(self):
        assert not mk().failed
        assert mk(error="OOM").failed

    def test_summary_mentions_error(self):
        assert "OOM" in mk(error="OOM").summary()

    def test_summary_flags_overflow(self):
        assert "OVERFLOW" in mk(overflowed=True).summary()

    def test_summary_normal(self):
        s = mk().summary()
        assert "10 matches" in s
        assert "g/P1" in s

    def test_default_substats(self):
        """A result nobody wrote statistics into reads zeros (imbalance:
        the even 1.0) through every view, and unknown names still raise."""
        r = mk()
        assert r.metrics == {}
        assert r.queue.enqueued == 0 and r.memory.stack_bytes == 0
        assert r.timeouts == 0 and r.load_imbalance == 1.0
        assert set(r.queue.to_dict()) | set(r.memory.to_dict()) == {
            v.split(".")[1] for v in METRIC_VIEWS if "." in v
        }
        with pytest.raises(AttributeError):
            r.queue.nonsense


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            GraphError,
            QueryError,
            PlanError,
            DeviceError,
            DeviceOOMError,
            IllegalAccessError,
            KernelLaunchError,
            StackLevelOverflowError,
            UnsupportedError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(PlanError, QueryError)
        assert issubclass(DeviceOOMError, DeviceError)

    def test_oom_carries_sizes(self):
        err = DeviceOOMError(1000, 200, what="ct-index")
        assert err.requested == 1000
        assert err.available == 200
        assert "ct-index" in str(err)

"""Tests for the two-rate cost model and flop accounting."""

import pytest

from repro.runtime.costmodel import (
    PIZ_DAINT,
    SPARSE_LABELS,
    CostModel,
    MachineParams,
)
from repro.runtime.stats import CommStats, RunStats
from repro.util.counters import FlopCounter, null_counter


def _stats_with(label: str, flops: int) -> RunStats:
    stats = CommStats(0)
    stats.flops.add(flops, label)
    return RunStats(per_rank=[stats])


class TestTwoRateModel:
    def test_sparse_flops_cost_more(self):
        model = CostModel()
        sparse = model.compute_time(_stats_with("SpMM", 10**9))
        dense = model.compute_time(_stats_with("MM", 10**9))
        expected_ratio = PIZ_DAINT.flop_rate / PIZ_DAINT.sparse_flop_rate
        assert sparse / dense == pytest.approx(expected_ratio)

    def test_mixed_labels_sum(self):
        stats = CommStats(0)
        stats.flops.add(10**9, "SpMM")
        stats.flops.add(10**9, "MM")
        model = CostModel()
        total = model.compute_time(RunStats(per_rank=[stats]))
        assert total == pytest.approx(
            10**9 / PIZ_DAINT.sparse_flop_rate
            + 10**9 / PIZ_DAINT.flop_rate
        )

    def test_max_over_ranks(self):
        light, heavy = CommStats(0), CommStats(1)
        light.flops.add(10, "MM")
        heavy.flops.add(10**10, "MM")
        model = CostModel()
        run = RunStats(per_rank=[light, heavy])
        assert model.compute_time(run) == pytest.approx(
            10**10 / PIZ_DAINT.flop_rate
        )

    def test_all_kernel_labels_classified(self):
        """The attention kernels' labels must hit the sparse rate —
        adding a new kernel label silently billed at dense speed would
        skew every benchmark."""
        for label in ("SpMM", "SDDMM", "softmax", "softmax_bwd",
                      "operands", "operands_vjp"):
            assert label in SPARSE_LABELS

    def test_sparse_rate_validated(self):
        with pytest.raises(ValueError):
            MachineParams(sparse_flop_rate=0)


class TestFlopCounter:
    def test_accumulation_and_labels(self):
        counter = FlopCounter()
        counter.add(10, "a")
        counter.add(5, "a")
        counter.add(3, "b")
        assert counter.total == 18
        assert counter.by_label == {"a": 15, "b": 3}

    def test_merge(self):
        a, b = FlopCounter(), FlopCounter()
        a.add(10, "x")
        b.add(5, "x")
        b.add(2, "y")
        a.merge(b)
        assert a.total == 17
        assert a.by_label == {"x": 15, "y": 2}

    def test_reset(self):
        counter = FlopCounter()
        counter.add(10)
        counter.reset()
        assert counter.total == 0
        assert counter.by_label == {}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FlopCounter().add(-1)

    def test_null_counter_discards(self):
        counter = null_counter()
        counter.add(10**12, "anything")
        assert counter.total == 0


class TestCommStatsPhases:
    def test_phase_switching(self):
        stats = CommStats(3)
        stats.set_phase("one")
        stats.record_send(100)
        stats.set_phase("two")
        stats.record_send(50)
        stats.record_send(50)
        assert stats.by_phase == {"one": 100, "two": 100}
        assert stats.messages_sent == 3
        assert stats.words_sent == 50

    def test_runstats_phase_max(self):
        a, b = CommStats(0), CommStats(1)
        a.set_phase("halo"); a.record_send(100)
        b.set_phase("halo"); b.record_send(300)
        run = RunStats(per_rank=[a, b])
        assert run.phase_bytes() == {"halo": 300}

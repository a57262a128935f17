"""Receive futures, deadlock reports and comm/compute-overlapped schedules.

Three guarantees are pinned here:

* **Handle semantics** — an ``irecv`` future's double-wait returns the
  cached payload, and deadlock reports name the blocked
  ``(src, dst, tag)`` edge and list undelivered sends.
* **Traffic parity** — the ``i``-prefixed collectives and the
  overlapped layer schedules (the default) move byte-for-byte the same
  traffic as their blocking counterparts and the synchronous oracle
  (``overlap=False``) and produce bit-identical numerics.
* **Wait accounting** — blocked-on-recv seconds land in
  ``CommStats.wait_s`` (per phase) and in the trace; the cost model's
  overlap projection (``overlapped_time``/``serial_fraction``) is
  consistent with the synchronous total.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.api import distributed_inference, distributed_train
from repro.distributed.ops import OpSequencer
from repro.distributed.schedule import CommSchedule, Compute, Transfer
from repro.graphs import synthetic_classification
from repro.models import normalize_adjacency
from repro.runtime.costmodel import CostModel
from repro.runtime.executor import run_spmd
from repro.runtime.fabric import Fabric, FabricTimeoutError
from repro.runtime.grid import square_grid
from repro.runtime.stats import CommStats, RunStats
from tests import _spmd_programs as programs

MODELS = ["VA", "AGNN", "GAT", "GCN"]


@pytest.fixture(scope="module")
def problem():
    return synthetic_classification(n=123, feature_dim=7, seed=2)


def adjacency_for(name, data):
    return (
        normalize_adjacency(data.adjacency)
        if name == "GCN"
        else data.adjacency
    )


def _train(problem, name, epochs=3, **kwargs):
    """``kwargs`` may carry ``overlap=False`` (the synchronous oracle);
    without it the run takes the production default."""
    np.seterr(over="ignore", invalid="ignore")
    a = adjacency_for(name, problem)
    h = problem.features.astype(np.float64)
    return distributed_train(
        name, a, h, problem.labels, 8, 4, num_layers=2, p=4,
        epochs=epochs, lr=0.005, mask=problem.train_mask, seed=5,
        dtype=np.float64, **kwargs,
    )


def _assert_same_traffic(stats_a, stats_b):
    """Per-rank byte/message/phase accounting must be identical."""
    assert len(stats_a.per_rank) == len(stats_b.per_rank)
    for rank_a, rank_b in zip(stats_a.per_rank, stats_b.per_rank):
        assert rank_a.bytes_sent == rank_b.bytes_sent
        assert rank_a.messages_sent == rank_b.messages_sent
        assert rank_a.by_phase == rank_b.by_phase


# ---------------------------------------------------------------------------
# Fabric-level handle semantics
# ---------------------------------------------------------------------------
class TestHandleSemantics:

    def test_deadlock_report_names_edge_and_pending_isend(self):
        fabric = Fabric(2, timeout=0.2)
        fabric.put(1, 0, "decoy", np.ones(3))
        with pytest.raises(FabricTimeoutError) as err:
            fabric.get(1, 0, "missing", timeout=0.2)
        message = str(err.value)
        assert "src=1, dst=0, tag='missing'" in message
        assert "likely deadlock" in message
        assert "tag='decoy'" in message  # the undelivered send

    def test_isend_deadlock_reported_in_rank_order(self):
        with pytest.raises(RuntimeError, match="timed out|deadlock") as err:
            run_spmd(2, programs.isend_then_deadlock, timeout=2.0)
        message = str(err.value)
        # Both ranks time out together; whichever timer fires first,
        # the report names both blocked edges in rank order.
        assert message.index("missing") < message.index("reply-never-sent")
        assert "decoy" in message     # rank 1's undelivered send

    def test_communicator_isend_irecv_roundtrip(self):
        def program(comm):
            if comm.rank == 0:
                future = comm.irecv(1, tag="x")
                value = future.wait()
                assert future.wait() is value
                return float(value.sum())
            comm.send(np.full(4, 2.0), 0, tag="x")
            return 0.0

        result = run_spmd(2, program)
        assert result.values[0] == 8.0

    def test_communicator_irecv_rejects_bad_source(self):
        def program(comm):
            with pytest.raises(ValueError, match="outside communicator"):
                comm.irecv(comm.size)
            return True

        assert all(run_spmd(2, program).values)


# ---------------------------------------------------------------------------
# Non-blocking collectives
# ---------------------------------------------------------------------------
def _collective_suite(comm, nonblocking: bool):
    """Run the same collectives blocking or via handles; same checksums."""
    comm.stats.set_phase("mix")
    payload = np.arange(64, dtype=np.float64) + comm.rank
    ones = np.full(16, float(comm.rank + 1))
    own = np.array([float(comm.rank)])
    blocks = [np.full(8, float(comm.rank * 10 + i)) for i in range(comm.size)]
    if nonblocking:
        h_bcast = comm.ibcast(payload, root=0)
        h_sum = comm.iallreduce(ones)
        # Blocking collectives issued while both handles are pending.
        gathered = comm.allgather(own)
        scattered = comm.reduce_scatter(blocks)
        # Waits deliberately run in reverse initiation order — the
        # engine drains earlier handles first, so this cannot deadlock.
        total = h_sum.wait()
        bcast = h_bcast.wait()
    else:
        bcast = comm.ibcast(payload, root=0).wait()
        total = comm.allreduce(ones)
        gathered = comm.allgather(own)
        scattered = comm.reduce_scatter(blocks)
    return (
        float(bcast.sum()),
        float(total[0]),
        sum(float(b[0]) for b in gathered),
        float(scattered.sum()),
    )


class TestNonblockingCollectives:
    @pytest.mark.parametrize("p", [1, 4])
    def test_results_and_traffic_match_blocking(self, p):
        blocking = run_spmd(p, lambda comm: _collective_suite(comm, False))
        handles = run_spmd(p, lambda comm: _collective_suite(comm, True))
        assert blocking.values == handles.values
        _assert_same_traffic(blocking.stats, handles.stats)

    def test_double_wait_returns_cached_result(self):
        def program(comm):
            handle = comm.iallreduce(np.full(8, float(comm.rank + 1)))
            first = handle.wait()
            return first is handle.wait()

        assert all(run_spmd(4, program).values)


# ---------------------------------------------------------------------------
# Overlapped layer schedules: bit parity with the synchronous oracle
# ---------------------------------------------------------------------------
class TestOverlapBitParity:
    @pytest.mark.parametrize("name", MODELS)
    def test_training_bit_identical(self, problem, name):
        sync = _train(problem, name, overlap=False)
        ovl = _train(problem, name)
        assert sync.losses == ovl.losses
        assert np.array_equal(sync.output, ovl.output)
        _assert_same_traffic(sync.stats, ovl.stats)

    def test_multi_head_gat_bit_identical(self, problem):
        sync = _train(problem, "GAT", overlap=False, heads=3)
        ovl = _train(problem, "GAT", heads=3)
        assert sync.losses == ovl.losses
        assert np.array_equal(sync.output, ovl.output)
        _assert_same_traffic(sync.stats, ovl.stats)

    def test_learnable_beta_agnn_bit_identical(self, problem):
        sync = _train(problem, "AGNN", overlap=False, learnable_beta=True)
        ovl = _train(problem, "AGNN", learnable_beta=True)
        assert sync.losses == ovl.losses
        assert np.array_equal(sync.output, ovl.output)
        _assert_same_traffic(sync.stats, ovl.stats)

    @pytest.mark.parametrize("name", MODELS)
    def test_inference_bit_identical(self, problem, name):
        a = adjacency_for(name, problem)
        h = problem.features.astype(np.float64)
        sync = distributed_inference(
            name, a, h, 8, 4, num_layers=3, p=4, seed=5,
            dtype=np.float64, overlap=False,
        )
        ovl = distributed_inference(
            name, a, h, 8, 4, num_layers=3, p=4, seed=5, dtype=np.float64,
        )
        assert np.array_equal(sync.output, ovl.output)
        _assert_same_traffic(sync.stats, ovl.stats)


def _deferred_allreduce(comm, **run_kwargs):
    """Whether an allreduce's result is in ctx before its first consumer."""
    seen = {}
    schedule = CommSchedule([
        Transfer("total", "allreduce", "x", phase="psi"),
        Compute(None, lambda ctx: seen.update(early="total" in ctx)),
        Compute("y", lambda ctx: ctx["total"] + 1.0, needs=("total",)),
    ])
    ctx = schedule.run(
        square_grid(comm), OpSequencer(), {"x": np.ones(3)}, **run_kwargs
    )
    return seen["early"], float(ctx["y"][0])


class TestOverlapIsTheDefault:
    def test_default_completes_a_transfer_at_first_use(self):
        result = run_spmd(4, _deferred_allreduce)
        assert result.values == [(False, 5.0)] * 4

    def test_sync_oracle_completes_it_in_the_initiating_step(self):
        result = run_spmd(4, _deferred_allreduce, overlap=False)
        assert result.values == [(True, 5.0)] * 4


# ---------------------------------------------------------------------------
# Wait-time accounting
# ---------------------------------------------------------------------------
class TestWaitBreakdown:
    def test_blocked_recv_charges_wait_s(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        result = run_spmd(2, programs.waity_pingpong)
        blocked = result.stats.per_rank[0]
        sender = result.stats.per_rank[1]
        assert blocked.wait_s >= 0.1
        assert blocked.wait_by_phase.get("stall", 0.0) >= 0.1
        assert sender.wait_s == 0.0
        # The rank's timeline mirrors the counters.
        waits = [s for s in blocked.tracer.spans if s.name == "wait"]
        assert sum(s.duration_s for s in waits) == pytest.approx(
            blocked.wait_s
        )
        assert sum(
            s.duration_s for s in waits if s.attrs["phase"] == "stall"
        ) >= 0.1

    def test_overlap_does_not_change_comm_words(self, problem):
        """The headline invariant: overlap moves wait time, not bytes."""
        sync = _train(problem, "AGNN", overlap=False, epochs=2)
        ovl = _train(problem, "AGNN", epochs=2)
        assert sync.stats.max_words_sent == ovl.stats.max_words_sent
        assert sync.stats.phase_bytes() == ovl.stats.phase_bytes()


# ---------------------------------------------------------------------------
# Cost model: overlap projection
# ---------------------------------------------------------------------------
class TestCostModelOverlap:
    def _stats(self):
        stats = CommStats(0)
        stats.flops.add(2_000_000_000, "mm")    # dense rate
        stats.flops.add(500_000_000, "SpMM")    # sparse rate
        stats.record_send(40_000_000)
        stats.record_send(1_000)
        return RunStats(per_rank=[stats])

    def test_overlapped_time_bounds(self):
        model = CostModel()
        stats = self._stats()
        total = model.time(stats)
        overlapped = model.overlapped_time(stats)
        compute = model.compute_time(stats)
        latency = model.params.alpha * stats.max_messages_sent
        bandwidth = model.params.beta * stats.max_bytes_sent
        assert overlapped == pytest.approx(
            max(compute, bandwidth) + latency
        )
        assert compute <= overlapped <= total

    def test_serial_fraction(self):
        model = CostModel()
        stats = self._stats()
        fraction = model.serial_fraction(stats)
        assert 0.0 < fraction <= 1.0
        assert fraction == pytest.approx(
            model.overlapped_time(stats) / model.time(stats)
        )
        assert model.serial_fraction(RunStats(per_rank=[])) == 1.0

    def test_breakdown_keeps_synchronous_total(self):
        model = CostModel()
        stats = self._stats()
        breakdown = model.breakdown(stats)
        assert breakdown["total_s"] == pytest.approx(
            breakdown["compute_s"] + breakdown["communication_s"]
        )
        assert breakdown["overlapped_s"] == pytest.approx(
            model.overlapped_time(stats)
        )
        assert breakdown["serial_fraction"] == pytest.approx(
            model.serial_fraction(stats)
        )

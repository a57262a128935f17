"""Non-blocking fabric handles and comm/compute-overlapped schedules.

Three guarantees are pinned here:

* **Handle semantics** — ``isend``/``irecv`` completion handles behave
  like MPI requests: out-of-order completion, legal
  double-wait returning the cached payload, and abort-aware waits.
  Deadlock reports must name the blocked ``(src, dst, tag)`` edge and
  list pending *isends* exactly like blocking sends.
* **Traffic parity** — the ``i``-prefixed collectives and the
  overlapped layer schedules (the default) move byte-for-byte the same
  traffic as their blocking counterparts and the synchronous oracle
  (``overlap=False``) and produce bit-identical numerics.
* **Wait accounting** — blocked-on-recv seconds land in
  ``CommStats.wait_s`` (per phase), in the trace, and in
  ``RunStats.breakdown()``; the cost model's overlap projection
  (``overlapped_time``/``serial_fraction``) is consistent with the
  synchronous total.
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
from repro.runtime.fabric import ABORT_MESSAGE, Fabric, FabricTimeoutError
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
    def test_send_handle_is_born_complete(self):
        fabric = Fabric(2)
        handle = fabric.isend(0, 1, "t", np.ones(3))
        assert handle.done
        assert handle.test()
        assert handle.wait() is None
        assert np.all(fabric.get(0, 1, "t") == 1.0)

    def test_out_of_order_completion(self):
        fabric = Fabric(1)
        first = fabric.irecv(0, 0, "a")
        second = fabric.irecv(0, 0, "b")
        assert not first.test() and not second.test()
        fabric.put(0, 0, "b", np.full(3, 2.0))
        # The later-posted receive completes first.
        assert second.test()
        assert np.all(second.wait() == 2.0)
        fabric.put(0, 0, "a", np.full(3, 1.0))
        assert np.all(first.wait() == 1.0)

    def test_double_wait_returns_cached_payload(self):
        fabric = Fabric(1)
        fabric.put(0, 0, "t", np.arange(4.0))
        handle = fabric.irecv(0, 0, "t")
        value = handle.wait()
        assert handle.done
        assert handle.wait() is value
        assert handle.test()

    def test_wait_after_abort_raises(self):
        fabric = Fabric(1, timeout=0.2)
        handle = fabric.irecv(0, 0, "never")
        fabric.abort()
        with pytest.raises(FabricTimeoutError, match=ABORT_MESSAGE):
            handle.wait()
        with pytest.raises(FabricTimeoutError, match=ABORT_MESSAGE):
            handle.test()

    def test_completed_handle_survives_abort(self):
        fabric = Fabric(1, timeout=0.2)
        fabric.put(0, 0, "t", np.ones(2))
        handle = fabric.irecv(0, 0, "t")
        value = handle.wait()
        fabric.abort()
        assert handle.wait() is value

    def test_deadlock_report_names_edge_and_pending_isend(self):
        fabric = Fabric(2, timeout=0.2)
        fabric.isend(1, 0, "decoy", np.ones(3))
        with pytest.raises(FabricTimeoutError) as err:
            fabric.get(1, 0, "missing", timeout=0.2)
        message = str(err.value)
        assert "src=1, dst=0, tag='missing'" in message
        assert "likely deadlock" in message
        assert "tag='decoy'" in message  # the undelivered isend

    def test_isend_deadlock_reported_in_rank_order(self):
        with pytest.raises(RuntimeError, match="timed out|deadlock") as err:
            run_spmd(2, programs.isend_then_deadlock, timeout=2.0)
        message = str(err.value)
        # Both ranks time out together; whichever timer fires first,
        # the report names both blocked edges in rank order.
        assert message.index("missing") < message.index("reply-never-sent")
        assert "decoy" in message     # rank 1's pending isend

    def test_communicator_isend_irecv_roundtrip(self):
        def program(comm):
            if comm.rank == 0:
                future = comm.irecv(1, tag="x")
                value = future.wait()
                assert future.done
                assert future.wait() is value
                return float(value.sum())
            handle = comm.isend(np.full(4, 2.0), 0, tag="x")
            assert handle.done and handle.test()
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
        h_gather = comm.iallgather(own)
        h_reduce = comm.ireduce(np.ones(4), root=0)
        h_scatter = comm.ireduce_scatter(blocks)
        # Waits deliberately run in reverse initiation order — the
        # engine drains earlier handles first, so this cannot deadlock.
        scattered = h_scatter.wait()
        reduced = h_reduce.wait()
        gathered = h_gather.wait()
        total = h_sum.wait()
        bcast = h_bcast.wait()
        assert all(h.done for h in
                   (h_bcast, h_sum, h_gather, h_reduce, h_scatter))
    else:
        bcast = comm.bcast(payload, root=0)
        total = comm.allreduce(ones)
        gathered = comm.allgather(own)
        reduced = comm.reduce(np.ones(4), root=0)
        scattered = comm.reduce_scatter(blocks)
    return (
        float(bcast.sum()),
        float(total[0]),
        sum(float(b[0]) for b in gathered),
        -1.0 if reduced is None else float(reduced.sum()),
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

    def test_run_stats_breakdown_and_summary(self):
        result = run_spmd(2, programs.waity_pingpong)
        stats = result.stats
        assert stats.max_wait_s >= 0.1
        assert stats.total_wait_s >= stats.max_wait_s
        assert stats.summary()["max_wait_s"] == stats.max_wait_s
        rows = stats.breakdown()
        assert [row["rank"] for row in rows] == [0, 1]
        for row in rows:
            assert row["wall_s"] == pytest.approx(
                row["compute_s"] + row["wait_s"]
            )
            assert 0.0 <= row["wait_fraction"] <= 1.0
        # The blocked rank spent nearly all its wall time waiting; the
        # sleeping sender spent none of it waiting.
        assert rows[0]["wait_fraction"] > 0.5
        assert rows[1]["wait_fraction"] == 0.0
        assert rows[0]["wait_by_phase"].get("stall", 0.0) >= 0.1

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

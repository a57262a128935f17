"""Tests for the simulated MPI runtime: fabric, collectives, grid, cost."""

import threading

import numpy as np
import pytest

from repro.runtime import (
    CommStats,
    CostModel,
    Fabric,
    MachineParams,
    RunStats,
    run_spmd,
    square_grid,
)
from repro.runtime.fabric import FabricTimeoutError, format_timeout
from tests import _spmd_programs as programs

P_GRID = [1, 2, 3, 4, 5, 8]


class TestFabric:
    def test_put_get_fifo(self):
        fabric = Fabric(2)
        fabric.put(0, 1, "t", 1)
        fabric.put(0, 1, "t", 2)
        assert fabric.get(0, 1, "t") == 1
        assert fabric.get(0, 1, "t") == 2

    def test_tags_isolate_messages(self):
        fabric = Fabric(2)
        fabric.put(0, 1, "a", "first")
        fabric.put(0, 1, "b", "second")
        assert fabric.get(0, 1, "b") == "second"
        assert fabric.get(0, 1, "a") == "first"

    def test_timeout_raises(self):
        fabric = Fabric(1, timeout=0.05)
        with pytest.raises(FabricTimeoutError):
            fabric.get(0, 0, "never")

    def test_rank_bounds_checked(self):
        fabric = Fabric(2)
        with pytest.raises(ValueError):
            fabric.put(0, 5, "t", 1)

    def test_timeout_message_names_edge_and_pending(self):
        fabric = Fabric(2, timeout=0.1)
        fabric.put(1, 0, "decoy", np.ones(3))
        with pytest.raises(FabricTimeoutError) as excinfo:
            fabric.get(1, 0, "missing")
        message = str(excinfo.value)
        assert "src=1, dst=0, tag='missing'" in message
        assert "1 undelivered message(s)" in message
        assert "tag='decoy'" in message

    def test_format_timeout_no_pending(self):
        message = format_timeout(2, 0, "t", 5.0, {})
        assert "sender never sent" in message

    def test_format_timeout_truncates_mailbox_list(self):
        pending = {(i, 0, f"tag{i}"): i + 1 for i in range(12)}
        message = format_timeout(9, 0, "t", 5.0, pending)
        assert "12 mailbox(es)" in message
        assert "and 4 more mailboxes" in message

    @pytest.mark.parametrize("timeout", [float("nan"), 0, -1, float("inf")])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        """NaN never expires (the guard is gone); zero or negative calls
        an unfinished program a deadlock."""
        with pytest.raises(ValueError, match="finite positive"):
            Fabric(2, timeout=timeout)


class TestCollectives:
    @pytest.mark.parametrize("p", P_GRID)
    def test_bcast_all_roots(self, p):
        def program(comm):
            for root in range(comm.size):
                payload = np.arange(4.0) + root if comm.rank == root else None
                out = comm.ibcast(payload, root=root).wait()
                assert np.allclose(out, np.arange(4.0) + root)
            return True

        assert all(run_spmd(p, program, timeout=20).values)

    @pytest.mark.parametrize("p", P_GRID)
    def test_allreduce_sum_max_min(self, p):
        def program(comm):
            x = np.array([float(comm.rank + 1)])
            assert comm.allreduce(x)[0] == p * (p + 1) / 2
            assert comm.allreduce(x, op="max")[0] == p
            assert comm.allreduce(x, op="min")[0] == 1
            return True

        assert all(run_spmd(p, program, timeout=20).values)

    @pytest.mark.parametrize("p", P_GRID)
    def test_allgather_order(self, p):
        def program(comm):
            blocks = comm.allgather(np.array([comm.rank * 10]))
            assert [int(b[0]) for b in blocks] == [r * 10 for r in range(p)]
            return True

        assert all(run_spmd(p, program, timeout=20).values)

    @pytest.mark.parametrize("p", P_GRID)
    def test_alltoall_permutation(self, p):
        def program(comm):
            outs = comm.alltoall(
                [np.array([comm.rank, dst]) for dst in range(comm.size)]
            )
            for src, payload in enumerate(outs):
                assert list(payload) == [src, comm.rank]
            return True

        assert all(run_spmd(p, program, timeout=20).values)

    @pytest.mark.parametrize("p", P_GRID)
    def test_reduce_scatter(self, p):
        def program(comm):
            blocks = [np.full(3, float(comm.rank + idx))
                      for idx in range(comm.size)]
            out = comm.reduce_scatter(blocks)
            expected = sum(r + comm.rank for r in range(comm.size))
            assert np.allclose(out, expected)
            return True

        assert all(run_spmd(p, program, timeout=20).values)

    @pytest.mark.parametrize("p", P_GRID)
    def test_gather_scatter(self, p):
        def program(comm):
            gathered = comm.gather(comm.rank * 2, root=0)
            if comm.rank == 0:
                assert gathered == [r * 2 for r in range(p)]
            else:
                assert gathered is None
            return True

        assert all(run_spmd(p, program, timeout=20).values)

    def test_send_recv_point_to_point(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.array([42.0]), 1, tag="x")
            elif comm.rank == 1:
                assert comm.recv(0, tag="x")[0] == 42.0
            comm.allreduce(0)  # a barrier
            return True

        assert all(run_spmd(2, program, timeout=20).values)

    def test_split_forms_correct_groups(self):
        def program(comm):
            sub = comm.split(color=comm.rank % 2)
            total = sub.allreduce(np.array([1.0]))
            expected = (comm.size + (1 - comm.rank % 2)) // 2
            assert total[0] == expected
            return True

        assert all(run_spmd(5, program, timeout=20).values)

    def test_sends_are_copies(self):
        """Mutating a buffer after send must not corrupt the receiver."""

        def program(comm):
            if comm.rank == 0:
                buf = np.ones(3)
                comm.send(buf, 1, tag=0)
                buf[:] = -1
            else:
                out = comm.recv(0, tag=0)
                assert np.allclose(out, 1.0)
            comm.allreduce(0)  # a barrier
            return True

        assert all(run_spmd(2, program, timeout=20).values)


class TestExecutor:
    def test_error_propagation_reports_root_cause(self):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.allreduce(0)  # a barrier

        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            run_spmd(3, program, timeout=5)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    def test_return_values_ordered(self):
        result = run_spmd(4, lambda comm: comm.rank * 11, timeout=10)
        assert result.values == [0, 11, 22, 33]

    def test_collective_checksums_match(self):
        result = run_spmd(4, programs.collective_roundtrip, timeout=60.0,
                          n=30_000)
        # allreduce of rank+1 is 1+2+3+4; allgather of 10*rank adds 60.
        assert result.values == [70.0] * 4

    def test_timeout_names_edge_and_pending(self):
        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(1, programs.self_deadlock, timeout=1.0)
        message = str(excinfo.value)
        assert "timed out" in message
        assert "missing" in message  # the blocked tag
        assert "decoy" in message    # the undelivered mailbox

    @pytest.mark.parametrize("timeout", [float("nan"), 0, -1])
    def test_bad_timeout_rejected_before_any_rank_starts(self, timeout):
        started = []
        with pytest.raises(ValueError, match="finite positive"):
            run_spmd(2, lambda comm: started.append(comm.rank),
                     timeout=timeout)
        assert started == []

    def test_failed_run_leaves_no_rank_thread(self):
        def live_ranks():
            return [t.name for t in threading.enumerate()
                    if t.name.startswith("rank-") and t.is_alive()]

        with pytest.raises(RuntimeError, match="rank 1 failed: ValueError"):
            run_spmd(4, programs.crash_on_rank_one, timeout=30.0)
        assert live_ranks() == []
        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(2, programs.deadlock_rank_zero, timeout=2.0)
        message = str(excinfo.value)
        # Whichever timer fired first, both stuck ranks, in rank order.
        assert "stuck ranks in rank order" in message
        assert (message.index("rank 0: recv(src=1, dst=0")
                < message.index("rank 1: recv(src=0, dst=1"))
        assert message.index("missing") < message.index("reply-never-sent")
        assert "decoy" in message  # rank 1's send nobody received
        assert live_ranks() == []


class TestGrid:
    @pytest.mark.parametrize("p", [1, 4, 9, 16])
    def test_square_grid_coordinates(self, p):
        def program(comm):
            grid = square_grid(comm)
            assert grid.px == grid.py == int(np.sqrt(p))
            assert grid.row * grid.py + grid.col == comm.rank
            assert grid.row_comm.size == grid.py
            assert grid.col_comm.size == grid.px
            # Row communicator local rank equals the grid column.
            assert grid.row_comm.rank == grid.col
            assert grid.col_comm.rank == grid.row
            return True

        assert all(run_spmd(p, program, timeout=20).values)

    def test_rectangular_grid(self):
        def program(comm):
            grid = square_grid(comm, px=2, py=3)
            assert grid.px * grid.py == 6
            return True

        assert all(run_spmd(6, program, timeout=20).values)

    def test_mismatched_grid_rejected(self):
        def program(comm):
            with pytest.raises(ValueError):
                square_grid(comm, px=2, py=2)
            return True

        assert all(run_spmd(6, program, timeout=20).values)


class TestStatsAndCost:
    def test_volume_accounting(self):
        def program(comm):
            comm.ibcast(np.zeros(1000, dtype=np.float32), root=0).wait()
            return None

        stats = run_spmd(4, program, timeout=20).stats
        # Root sends at least one 4000-byte copy; volume counted in words.
        assert stats.max_words_sent >= 1000
        assert stats.total_bytes_sent >= 4000
        assert stats.max_messages_sent >= 1

    def test_single_rank_is_silent(self):
        stats = run_spmd(1, lambda comm: comm.ibcast(np.ones(10)).wait(), timeout=10).stats
        assert stats.max_bytes_sent == 0

    def test_phase_attribution(self):
        def program(comm):
            comm.stats.set_phase("alpha")
            comm.ibcast(np.zeros(100, dtype=np.float32), root=0).wait()
            comm.stats.set_phase("beta")
            comm.allreduce(np.zeros(100, dtype=np.float32))
            return None

        stats = run_spmd(2, program, timeout=20).stats
        phases = stats.phase_bytes()
        assert phases.get("alpha", 0) > 0
        assert phases.get("beta", 0) > 0

    def test_cost_model_monotonic_in_traffic(self):
        quiet = RunStats(per_rank=[CommStats(0)])
        busy_stats = CommStats(0)
        busy_stats.record_send(10**6)
        busy_stats.flops.add(10**9)
        busy = RunStats(per_rank=[busy_stats])
        model = CostModel()
        assert model.time(busy) > model.time(quiet)
        breakdown = model.breakdown(busy)
        assert breakdown["total_s"] == pytest.approx(
            breakdown["compute_s"] + breakdown["communication_s"]
        )

    def test_machine_params_validated(self):
        with pytest.raises(ValueError):
            MachineParams(alpha=0)


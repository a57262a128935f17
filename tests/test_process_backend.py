"""Process-parallel backend: parity, robustness and resource hygiene.

The process backend must be a drop-in transport swap: identical values,
identical losses, and *bit-identical* CommStats traffic accounting
versus the thread backend, because the communicator's collective
algorithms — not the transport — decide what goes on the simulated
wire. On top of that it carries robustness obligations the thread
backend never had: a killed child must surface as a driver-side error
(not a hang), crashes must propagate the failing rank's traceback, and
no run may leak POSIX shared-memory segments.

All rank programs live in :mod:`tests._spmd_programs` — the spawn start
method pickles functions by reference, so closures cannot cross the
process boundary (which is itself asserted below).
"""

import glob
import os
import time

import numpy as np
import pytest

from repro.config import BACKEND_ENV_VAR
from repro.distributed.api import distributed_train
from repro.graphs import synthetic_classification
from repro.models import build_model
from repro.obs.metrics import metrics
from repro.runtime.executor import run_spmd
from repro.runtime.fabric import (
    FabricTimeoutError,
    ThreadFabric,
    format_timeout,
)
from repro.runtime.process_fabric import SHM_PREFIX, ProcessBackendError
from repro.training import SGD, SoftmaxCrossEntropyLoss, Trainer
from tests import _spmd_programs as programs

PARITY_MODELS = ["VA", "AGNN", "GAT"]


def _shm_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-POSIX
        return set()
    return set(glob.glob(f"/dev/shm/{SHM_PREFIX}*"))


@pytest.fixture(scope="module")
def problem():
    return synthetic_classification(n=60, feature_dim=6, seed=3)


@pytest.fixture(scope="module")
def parity_runs(problem):
    """One thread + one process training run per model, shared across
    the parity assertions (process spawns are the expensive part)."""
    h = problem.features.astype(np.float64)
    runs = {}
    for name in PARITY_MODELS:
        runs[name] = {
            backend: distributed_train(
                name, problem.adjacency, h, problem.labels, 8, 4,
                num_layers=2, p=4, epochs=2, lr=0.01,
                mask=problem.train_mask, seed=5, dtype=np.float64,
                backend=backend, timeout=120.0,
            )
            for backend in ("thread", "process")
        }
    return runs


class TestBackendParity:
    @pytest.mark.parametrize("name", PARITY_MODELS)
    def test_losses_bit_match_thread_backend(self, parity_runs, name):
        thread, process = (
            parity_runs[name]["thread"], parity_runs[name]["process"],
        )
        # Same code, same inputs, same reduction order: the backends
        # must agree to the last bit, not merely within tolerance.
        assert thread.losses == process.losses
        assert np.array_equal(thread.output, process.output)

    @pytest.mark.parametrize("name", PARITY_MODELS)
    def test_comm_stats_identical_across_backends(self, parity_runs, name):
        thread, process = (
            parity_runs[name]["thread"], parity_runs[name]["process"],
        )
        for t_rank, p_rank in zip(
            thread.stats.per_rank, process.stats.per_rank
        ):
            assert t_rank.bytes_sent == p_rank.bytes_sent
            assert t_rank.messages_sent == p_rank.messages_sent
            assert t_rank.by_phase == p_rank.by_phase

    @pytest.mark.parametrize("name", PARITY_MODELS)
    def test_matches_single_node_reference(self, problem, parity_runs, name):
        h = problem.features.astype(np.float64)
        model = build_model(name, 6, 8, 4, num_layers=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(problem.train_mask), SGD(0.01)
        )
        reference = trainer.fit(problem.adjacency, h, problem.labels,
                                epochs=2)
        process = parity_runs[name]["process"]
        for ref, dist in zip(reference.losses, process.losses):
            assert abs(ref - dist) / max(1.0, abs(ref)) < 1e-8

    def test_wall_clock_recorded(self, parity_runs):
        for backend in ("thread", "process"):
            assert parity_runs["VA"][backend].stats.max_wall_s > 0.0

    def test_collective_checksums_match(self):
        results = {
            backend: run_spmd(
                4, programs.collective_roundtrip, backend=backend,
                timeout=60.0, n=30_000,
            )
            for backend in ("thread", "process")
        }
        assert results["thread"].values == results["process"].values
        assert results["process"].backend == "process"


@pytest.fixture(scope="module")
def multihead_parity_runs(problem):
    """Head-batched multi-head GAT on both fabrics (two heads keep the
    spawn cost down; the batched path is head-count independent)."""
    h = problem.features.astype(np.float64)
    return {
        backend: distributed_train(
            "GAT", problem.adjacency, h, problem.labels, 8, 4,
            num_layers=2, p=4, epochs=2, lr=0.01,
            mask=problem.train_mask, seed=5, dtype=np.float64,
            backend=backend, timeout=120.0, heads=2,
        )
        for backend in ("thread", "process")
    }


class TestMultiHeadBackendParity:
    """The coalesced multi-head transfers must survive the transport
    swap bit-for-bit, exactly like the single-head layers."""

    def test_losses_and_outputs_bit_match(self, multihead_parity_runs):
        thread = multihead_parity_runs["thread"]
        process = multihead_parity_runs["process"]
        assert thread.losses == process.losses
        assert np.array_equal(thread.output, process.output)

    def test_comm_stats_identical(self, multihead_parity_runs):
        thread = multihead_parity_runs["thread"]
        process = multihead_parity_runs["process"]
        for t_rank, p_rank in zip(
            thread.stats.per_rank, process.stats.per_rank
        ):
            assert t_rank.bytes_sent == p_rank.bytes_sent
            assert t_rank.messages_sent == p_rank.messages_sent
            assert t_rank.by_phase == p_rank.by_phase


class TestChildFailure:
    def test_crash_propagates_traceback(self):
        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(4, programs.crash_on_rank_one, backend="process",
                     timeout=30.0)
        message = str(excinfo.value)
        assert "rank 1 failed" in message
        assert "rank 1 exploded in a child process" in message
        # The child's traceback crosses the process boundary.
        assert "ValueError" in message
        assert "crash_on_rank_one" in message

    def test_killed_child_is_an_error_not_a_hang(self):
        start = time.monotonic()
        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(4, programs.die_on_rank_one, backend="process",
                     timeout=60.0)
        elapsed = time.monotonic() - start
        # Death is detected via pipe EOF, not by burning the fabric
        # timeout: the whole group tears down promptly.
        assert elapsed < 30.0
        message = str(excinfo.value)
        assert "died without reporting" in message
        assert "rank 1" in message
        assert "exit code" in message


class TestDeadlockReporting:
    def test_process_timeout_names_edge_and_pending(self):
        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(1, programs.self_deadlock, backend="process",
                     timeout=2.0)
        message = str(excinfo.value)
        assert "timed out" in message
        assert "likely deadlock" in message
        assert "missing" in message  # the blocked tag
        assert "decoy" in message    # the undelivered mailbox

    def test_thread_timeout_names_edge_and_pending(self):
        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(1, programs.self_deadlock, backend="thread",
                     timeout=1.0)
        message = str(excinfo.value)
        assert "timed out" in message
        assert "missing" in message
        assert "decoy" in message

    def test_two_rank_deadlock_reports(self):
        with pytest.raises(RuntimeError, match="timed out|deadlock"):
            run_spmd(2, programs.deadlock_rank_zero, backend="process",
                     timeout=2.0)

    def test_thread_fabric_timeout_message(self):
        fabric = ThreadFabric(2, timeout=0.1)
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


class TestResourceHygiene:
    def test_no_leaked_segments_on_success(self):
        before = _shm_segments()
        result = run_spmd(4, programs.large_array_pingpong,
                          backend="process", timeout=60.0)
        assert len(result.values) == 4
        assert _shm_segments() == before

    def test_no_leaked_segments_after_crash(self):
        before = _shm_segments()
        with pytest.raises(RuntimeError):
            run_spmd(4, programs.crash_on_rank_one, backend="process",
                     timeout=30.0)
        assert _shm_segments() == before

    def test_no_leaked_segments_after_kill(self):
        before = _shm_segments()
        with pytest.raises(RuntimeError):
            run_spmd(4, programs.die_on_rank_one, backend="process",
                     timeout=60.0)
        assert _shm_segments() == before


class TestBackendSelection:
    def test_explicit_process_with_closure_is_strict(self):
        captured = []
        with pytest.raises(ProcessBackendError, match="module-level"):
            run_spmd(2, lambda comm: captured.append(comm.rank),
                     backend="process")

    def test_env_override_selects_process(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        result = run_spmd(2, programs.echo_rank, timeout=60.0)
        assert result.backend == "process"
        assert result.values == [0, 1]

    def test_env_override_falls_back_for_closures(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        result = run_spmd(2, lambda comm: comm.rank, timeout=60.0)
        assert result.backend == "thread"
        assert result.values == [0, 1]

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        result = run_spmd(2, programs.echo_rank, backend="thread")
        assert result.backend == "thread"

    def test_unknown_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(ValueError, match="REPRO_FABRIC_BACKEND"):
            run_spmd(2, programs.echo_rank)

    def test_unknown_explicit_backend_rejected(self):
        with pytest.raises(ValueError, match="backend argument"):
            run_spmd(2, programs.echo_rank, backend="mpi")


class TestTracePlumbing:
    def test_traces_cross_the_process_boundary(self, monkeypatch):
        """A spawned rank's send slices ride home on its tracer."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        result = run_spmd(2, programs.traced_sends, backend="process",
                          timeout=60.0)
        stats = result.stats.per_rank[0]
        sends = [s.attrs for s in stats.tracer.spans if s.name == "send"]
        assert [s["seq"] for s in sends] == list(
            range(1, stats.messages_sent + 1)
        )
        assert {s["phase"] for s in sends} == {"alpha", "beta"}
        assert sum(s["nbytes"] for s in sends) == stats.bytes_sent


class TestObservabilityPlumbing:
    def test_event_counter_merges_back_to_driver(self, problem):
        """Child-process counter increments must reach the driver's
        registry — otherwise cache-hit/plan-memo tallies silently
        vanish on the process backend (regression test)."""
        label = "obs_merge_probe"
        before = metrics().counter(label).value
        run_spmd(2, programs.bump_named_event, backend="process",
                 timeout=60.0, label=label)
        # Ranks 0 and 1 bump rank+1 occurrences: 1 + 2 = 3.
        assert metrics().counter(label).value == before + 3
        # The library's own counts ride the same slot: the driver of a
        # spawned run touches no pattern, so every structure-cache
        # count it ends up with was taken in a child (one adjacency
        # block per rank and one SpMM view of it, at least; the COO row
        # vector is no witness, the compiled SDDMM never expands it).
        before = metrics().counters()
        distributed_train(
            "VA", problem.adjacency, problem.features.astype(np.float64),
            problem.labels, 8, 4, num_layers=2, p=4, epochs=1,
            mask=problem.train_mask, seed=5, dtype=np.float64,
            backend="process", timeout=120.0,
        )
        after = metrics().counters()
        for name in ("pattern.registered", "scipy_view.built"):
            assert after[name] - before.get(name, 0) >= 4, name

    def test_rank_tracers_cross_the_process_boundary(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        result = run_spmd(2, programs.traced_span_work,
                          backend="process", timeout=60.0)
        for rank, stats in enumerate(result.stats.per_rank):
            tracer = stats.tracer
            assert tracer is not None and tracer.rank == rank
            names = [s.name for s in tracer.spans]
            assert "child.step" in names
            assert names[-1] == "rank.program"

    def test_tracing_disabled_by_default_on_process_backend(self):
        result = run_spmd(2, programs.traced_span_work,
                          backend="process", timeout=60.0)
        assert all(s.tracer is None for s in result.stats.per_rank)

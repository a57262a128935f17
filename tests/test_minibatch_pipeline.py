"""Pipelined sampler/trainer split: parity with the serial loop.

The split moves *where* sampling runs (rank 0) without changing what is
computed (rank 1 runs the same :func:`train_step`), so the pipelined
loss trace must equal the serial :class:`MinibatchTrainer` trace bit for
bit — in rendezvous *and* overlapped mode, on the thread *and* process
fabrics — and the overlapped mode must send the same bytes under the
same phases (only ``wait_s`` may move), the invariant the 1.5D overlap
schedules established.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import synthetic_classification
from repro.models import build_model
from repro.training import (
    SGD,
    MinibatchTrainer,
    SoftmaxCrossEntropyLoss,
    minibatch_train_pipelined,
)

N, FEAT, HIDDEN, CLASSES = 64, 6, 8, 4
BATCH, EPOCHS, LR, SEED = 24, 2, 0.05, 5
FANOUTS = (4, 4)


@pytest.fixture(scope="module")
def problem():
    return synthetic_classification(
        n=N, num_classes=CLASSES, feature_dim=FEAT, seed=3
    )


@pytest.fixture(scope="module")
def serial_reference(problem):
    model = build_model(
        "gat", FEAT, HIDDEN, CLASSES, num_layers=2, seed=0,
        dtype=np.float32,
    )
    trainer = MinibatchTrainer(
        model, SoftmaxCrossEntropyLoss(), SGD(LR), fanouts=FANOUTS,
        batch_size=BATCH, shuffle=True, seed=SEED,
    )
    return trainer.fit(
        problem.adjacency, problem.features.astype(np.float32),
        problem.labels, epochs=EPOCHS, full_eval=False,
    )


def _pipelined(problem, **kwargs):
    return minibatch_train_pipelined(
        "gat", problem.adjacency, problem.features.astype(np.float32),
        problem.labels, HIDDEN, CLASSES, fanouts=FANOUTS, num_layers=2,
        batch_size=BATCH, epochs=EPOCHS, lr=LR, seed=SEED, model_seed=0,
        **kwargs,
    )


@pytest.fixture(scope="module")
def thread_runs(problem):
    return {
        overlap: _pipelined(problem, overlap=overlap, backend="thread")
        for overlap in (False, True)
    }


class TestSerialParity:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_losses_bit_match_serial_loop(
        self, serial_reference, thread_runs, overlap
    ):
        losses, _ = thread_runs[overlap]
        assert losses == serial_reference.batch_losses

    def test_overlap_modes_send_identical_traffic(self, thread_runs):
        stats_off = thread_runs[False][1]
        stats_on = thread_runs[True][1]
        for off, on in zip(stats_off.per_rank, stats_on.per_rank):
            assert off.bytes_sent == on.bytes_sent
            assert off.messages_sent == on.messages_sent
            assert off.by_phase == on.by_phase

    def test_traffic_attributed_to_sample_phase(self, thread_runs):
        sampler, trainer = thread_runs[True][1].per_rank
        batches = EPOCHS * (-(-N // BATCH))
        assert sampler.messages_sent == batches
        assert set(sampler.by_phase) == {"sample"}
        assert sampler.by_phase["sample"] == sampler.bytes_sent > 0
        # The trainer rank only receives: blocks flow one way.
        assert trainer.bytes_sent == 0


class TestProcessFabric:
    def test_process_backend_bit_matches(
        self, problem, serial_reference, thread_runs
    ):
        losses, stats = _pipelined(
            problem, overlap=True, backend="process"
        )
        assert losses == serial_reference.batch_losses
        for t_rank, p_rank in zip(
            thread_runs[True][1].per_rank, stats.per_rank
        ):
            assert t_rank.bytes_sent == p_rank.bytes_sent
            assert t_rank.messages_sent == p_rank.messages_sent
            assert t_rank.by_phase == p_rank.by_phase


class TestDefaultBackend:
    def test_env_resolved_backend_bit_matches(
        self, problem, serial_reference
    ):
        # backend=None resolves through $REPRO_FABRIC_BACKEND (thread
        # by default); the CI sampling job re-runs this leg with the
        # process fabric as the process-wide default. No ``overlap=``
        # either: the production default is the overlapped pipeline.
        losses, _ = _pipelined(problem)
        assert losses == serial_reference.batch_losses


class TestValidation:
    def test_fanouts_must_match_depth(self, problem):
        with pytest.raises(ValueError, match="fan-out"):
            minibatch_train_pipelined(
                "gat", problem.adjacency, problem.features,
                problem.labels, HIDDEN, CLASSES, fanouts=(4,),
                num_layers=2,
            )

"""End-to-end integration tests across subsystems.

Each test exercises a realistic multi-subsystem pipeline: generator →
preprocessing → (distributed) training → checkpointing → inference,
plus failure injection on the simulated cluster.
"""

import numpy as np
import pytest

from repro.baselines.dist_local import dist_local_train
from repro.distributed.api import distributed_inference, distributed_train
from repro.graphs import kronecker, synthetic_classification
from repro.graphs.prep import graph_stats, prepare_adjacency
from repro.models import build_model, load_state_dict, state_dict
from repro.runtime import run_spmd
from repro.training import Adam, SoftmaxCrossEntropyLoss, Trainer


class TestFullPipeline:
    def test_kronecker_to_distributed_training(self):
        """Generate → distribute → train on 4 ranks → losses decrease."""
        rng = np.random.default_rng(0)
        adjacency = prepare_adjacency(kronecker(256, 2048, seed=0))
        stats = graph_stats(adjacency)
        assert stats.isolated == 0
        n = adjacency.shape[0]
        features = rng.normal(0, 1, (n, 8)).astype(np.float64)
        labels = rng.integers(0, 3, n)
        result = distributed_train(
            "AGNN", adjacency, features, labels, 16, 3, num_layers=2,
            p=4, epochs=5, lr=0.05, seed=1, dtype=np.float64,
        )
        assert result.losses[-1] < result.losses[0]
        assert result.output.shape == (n, 3)

    def test_train_checkpoint_reload_distributed_inference(self, tmp_path):
        """Single-node training → checkpoint → the distributed engine
        loaded with the same weights reproduces its predictions."""
        data = synthetic_classification(n=150, feature_dim=6, seed=1)
        h = data.features.astype(np.float64)
        model = build_model("GAT", 6, 8, data.num_classes, num_layers=2,
                            seed=3, dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(data.train_mask), Adam(0.02)
        )
        trainer.fit(data.adjacency, h, data.labels, epochs=10)
        reference = model.forward(data.adjacency, h, training=False)
        checkpoint = state_dict(model)

        # Distributed inference builds replicated models from the same
        # constructor seed; to use *trained* weights each rank loads the
        # checkpoint into its GnnModel.
        from repro.distributed.model import build_dist_model
        from repro.distributed.partition import (
            collect_feature_blocks,
            distribute_adjacency,
            distribute_features,
        )
        from repro.runtime import square_grid

        def program(comm):
            grid = square_grid(comm)
            dist = build_dist_model(grid, "GAT", 6, 8, data.num_classes,
                                    num_layers=2, seed=3, dtype=np.float64)
            load_state_dict(dist, checkpoint)
            out = dist.forward(
                distribute_adjacency(data.adjacency, grid),
                distribute_features(h, grid),
                training=False,
            )
            return collect_feature_blocks(grid, out)

        result = run_spmd(4, program, timeout=60)
        assert np.allclose(result.values[0], reference, atol=1e-10)

    def test_global_and_local_agree_after_training(self):
        """Both engines, same seeds, multi-epoch: identical losses."""
        data = synthetic_classification(n=90, feature_dim=5, seed=4)
        h = data.features.astype(np.float64)
        global_result = distributed_train(
            "AGNN", data.adjacency, h, data.labels, 8, data.num_classes,
            num_layers=2, p=4, epochs=3, lr=0.02, mask=data.train_mask,
            seed=6, dtype=np.float64,
        )
        local_losses, _ = dist_local_train(
            "AGNN", data.adjacency, h, data.labels, 8, data.num_classes,
            num_layers=2, p=3, epochs=3, lr=0.02, mask=data.train_mask,
            seed=6, dtype=np.float64,
        )
        assert np.allclose(global_result.losses, local_losses, rtol=1e-8)


class TestFailureInjection:
    def test_rank_crash_surfaces_cleanly(self):
        data = synthetic_classification(n=50, feature_dim=4, seed=0)

        def program(comm):
            if comm.rank == 2:
                raise MemoryError("simulated OOM")
            # Other ranks block on a collective; the abort must free them.
            comm.allreduce(np.ones(4))

        with pytest.raises(RuntimeError, match="simulated OOM"):
            run_spmd(4, program, timeout=10)

    def test_mismatched_collective_times_out(self):
        """A rank skipping a collective deadlocks; the fabric guard
        converts it into an error instead of a hang."""

        def program(comm):
            if comm.rank == 0:
                comm.allreduce(np.ones(2))
                comm.allreduce(np.ones(2))  # extra call: no partner
            else:
                comm.allreduce(np.ones(2))

        with pytest.raises(RuntimeError):
            run_spmd(2, program, timeout=1.0)

    def test_inference_deterministic_across_repeats(self):
        data = synthetic_classification(n=80, feature_dim=5, seed=2)
        h = data.features.astype(np.float64)
        outs = [
            distributed_inference("VA", data.adjacency, h, 8, 3,
                                  num_layers=2, p=4, seed=9,
                                  dtype=np.float64).output
            for _ in range(2)
        ]
        assert np.array_equal(outs[0], outs[1])

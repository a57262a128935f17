"""Tests for the extension model GIN and checkpointing."""

import numpy as np
import pytest

from repro.models import (
    build_model,
    load_state_dict,
    state_dict,
)
from repro.training import Adam, SoftmaxCrossEntropyLoss, Trainer
from tests.test_models_gradcheck import max_rel_gradient_error


class TestGIN:
    def test_forward_matches_manual(self, rng, small_adjacency):
        model = build_model("gin", 5, 8, 3, num_layers=1, epsilon=0.3, seed=2,
                            dtype=np.float64)
        layer = model.layers[0]
        h = rng.normal(size=(60, 5))
        out = model.forward(small_adjacency, h, training=False)
        combined = 1.3 * h + small_adjacency.to_dense() @ h
        hidden = np.maximum(combined @ layer.w1, 0)
        assert np.allclose(out, hidden @ layer.w2, atol=1e-8)

    def test_gradcheck_including_epsilon(self, rng, small_adjacency):
        h = rng.normal(size=(60, 5))
        target = rng.normal(size=(60, 3))
        model = build_model("gin", 5, 6, 3, num_layers=2, epsilon=0.1, seed=3,
                            dtype=np.float64, activation="tanh")
        # Inner ReLU kinks make finite differences slightly noisy.
        assert max_rel_gradient_error(model, small_adjacency, h, target,
                                      rng) < 1e-4

    def test_learns_sbm(self, sbm_data):
        model = build_model("gin", 12, 16, sbm_data.num_classes, num_layers=2, seed=0)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(sbm_data.train_mask), Adam(0.01)
        )
        trainer.fit(sbm_data.adjacency, sbm_data.features, sbm_data.labels,
                    epochs=40)
        acc = trainer.evaluate(sbm_data.adjacency, sbm_data.features,
                               sbm_data.labels, sbm_data.test_mask)
        assert acc > 0.8

    def test_build_model_dispatch(self):
        model = build_model("GIN", 8, 16, 3, num_layers=2)
        assert model.num_layers == 2


class TestSerialization:
    @pytest.mark.parametrize("name", ["VA", "AGNN", "GAT", "GIN"])
    def test_roundtrip_preserves_outputs(self, rng,
                                         small_adjacency, name):
        h = rng.normal(size=(60, 5)).astype(np.float64)
        model = build_model(name, 5, 8, 3, num_layers=2, seed=4,
                            dtype=np.float64)
        reference = model.forward(small_adjacency, h, training=False)
        snapshot = state_dict(model)

        fresh = build_model(name, 5, 8, 3, num_layers=2, seed=99,
                            dtype=np.float64)
        assert not np.allclose(
            fresh.forward(small_adjacency, h, training=False), reference
        )
        load_state_dict(fresh, snapshot)
        assert np.allclose(
            fresh.forward(small_adjacency, h, training=False), reference
        )

    def test_architecture_mismatch_rejected(self):
        a = build_model("VA", 5, 8, 3, num_layers=2)
        b = build_model("VA", 5, 8, 3, num_layers=3)
        with pytest.raises(ValueError, match="mismatch"):
            load_state_dict(b, state_dict(a))

    def test_shape_mismatch_rejected(self):
        a = build_model("VA", 5, 8, 3, num_layers=2)
        b = build_model("VA", 5, 16, 3, num_layers=2)
        with pytest.raises(ValueError):
            load_state_dict(b, state_dict(a))

    def test_rejected_load_leaves_model_untouched(self):
        """A bad *last* entry must not tear the entries before it."""
        model = build_model("GAT", 5, 8, 3, num_layers=2, seed=1)
        before = state_dict(model)
        bad = {k: v * 2 for k, v in before.items()}
        last = list(bad)[-1]
        bad[last] = np.zeros(bad[last].shape + (2,), bad[last].dtype)
        with pytest.raises(ValueError, match=last):
            load_state_dict(model, bad)
        after = state_dict(model)
        assert all(np.array_equal(after[k], before[k]) for k in before)

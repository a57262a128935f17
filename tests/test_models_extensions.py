"""Tests for the extension models (SGC, GIN) and checkpointing."""

import numpy as np
import pytest

from repro.models import (
    build_model,
    load_model,
    load_state_dict,
    normalize_adjacency,
    save_model,
    sgc_model,
    state_dict,
)
from repro.models.sgc import propagate
from repro.training import Adam, SoftmaxCrossEntropyLoss, Trainer
from tests.test_models_gradcheck import max_rel_gradient_error


class TestSGC:
    def test_propagation_matches_repeated_spmm(self, rng, small_adjacency):
        a = normalize_adjacency(small_adjacency)
        h = rng.normal(size=(60, 5))
        out = propagate(a, h, 3)
        dense = a.to_dense()
        expected = dense @ (dense @ (dense @ h))
        assert np.allclose(out, expected, atol=1e-5)

    def test_zero_hops_is_identity(self, rng, small_adjacency):
        a = normalize_adjacency(small_adjacency)
        h = rng.normal(size=(60, 5))
        assert np.array_equal(propagate(a, h, 0), h)

    def test_learns_sbm(self, sbm_data):
        a = normalize_adjacency(sbm_data.adjacency)
        model = sgc_model(12, sbm_data.num_classes, hops=2, seed=0)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(sbm_data.train_mask), Adam(0.05)
        )
        result = trainer.fit(a, sbm_data.features, sbm_data.labels,
                             epochs=60)
        acc = trainer.evaluate(a, sbm_data.features, sbm_data.labels,
                               sbm_data.test_mask)
        assert result.losses[-1] < result.losses[0]
        assert acc > 0.75

    def test_propagation_cached_across_epochs(self, rng, small_adjacency):
        a = normalize_adjacency(small_adjacency)
        h = rng.normal(size=(60, 5)).astype(np.float32)
        model = sgc_model(5, 3, hops=2, seed=0)
        from repro.util.counters import FlopCounter

        first, second = FlopCounter(), FlopCounter()
        model.forward(a, h, counter=first)
        model.forward(a, h, counter=second)
        # The second epoch skips the K SpMMs.
        assert second.by_label.get("SpMM", 0) < first.by_label.get("SpMM", 1)

    def test_gradcheck(self, rng, small_adjacency):
        a = normalize_adjacency(small_adjacency)
        h = rng.normal(size=(60, 5))
        target = rng.normal(size=(60, 3))
        model = sgc_model(5, 3, hops=2, seed=1, dtype=np.float64)
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-7

    def test_invalid_hops(self):
        with pytest.raises(ValueError):
            sgc_model(4, 2, hops=-1)

    def test_build_model_dispatch(self, sbm_data):
        model = build_model("SGC", 12, 999, sbm_data.num_classes,
                            num_layers=2)
        assert model.num_layers == 1  # single projection layer


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
    def test_roundtrip_preserves_outputs(self, tmp_path, rng,
                                         small_adjacency, name):
        h = rng.normal(size=(60, 5)).astype(np.float64)
        model = build_model(name, 5, 8, 3, num_layers=2, seed=4,
                            dtype=np.float64)
        reference = model.forward(small_adjacency, h, training=False)
        path = tmp_path / "model.npz"
        save_model(model, path)

        fresh = build_model(name, 5, 8, 3, num_layers=2, seed=99,
                            dtype=np.float64)
        assert not np.allclose(
            fresh.forward(small_adjacency, h, training=False), reference
        )
        load_model(fresh, path)
        assert np.allclose(
            fresh.forward(small_adjacency, h, training=False), reference
        )

    def test_architecture_mismatch_rejected(self, tmp_path):
        a = build_model("VA", 5, 8, 3, num_layers=2)
        b = build_model("VA", 5, 8, 3, num_layers=3)
        path = tmp_path / "model.npz"
        save_model(a, path)
        with pytest.raises(ValueError, match="mismatch"):
            load_model(b, path)

    def test_shape_mismatch_rejected(self, tmp_path):
        a = build_model("VA", 5, 8, 3, num_layers=2)
        b = build_model("VA", 5, 16, 3, num_layers=2)
        path = tmp_path / "model.npz"
        save_model(a, path)
        with pytest.raises(ValueError):
            load_model(b, path)

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

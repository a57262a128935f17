"""Coverage for GnnModel plumbing: counters, parameter flows."""

import numpy as np
import pytest

from repro.models import build_model
from repro.util.rng import glorot
from repro.training import SGD, SoftmaxCrossEntropyLoss, Trainer
from repro.util.counters import FlopCounter
from repro.util.rng import make_rng


class TestParameterPlumbing:
    def test_parameters_are_views_not_copies(self):
        model = build_model("GAT", 4, 6, 2, num_layers=2)
        params = model.parameters()
        params[0]["weight"][0, 0] = 123.0
        assert model.layers[0].weight[0, 0] == 123.0

    def test_apply_gradients_moves_all_layers(self, rng, small_adjacency):
        model = build_model("GAT", 5, 6, 3, num_layers=2, dtype=np.float64)
        before = [
            {k: v.copy() for k, v in layer.parameters().items()}
            for layer in model.layers
        ]
        out = model.forward(small_adjacency, rng.normal(size=(60, 5)))
        grads = model.backward(np.ones_like(out))
        SGD(0.1).step(model, grads)
        for layer, snapshot in zip(model.layers, before):
            for name, value in layer.parameters().items():
                assert not np.allclose(value, snapshot[name]), name

    def test_glorot_bounds(self):
        rng = make_rng(0)
        w = glorot(rng, (100, 50), np.float64)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)
        assert w.std() > 0.1 * limit  # actually spread out


class TestTrainerPlumbing:
    def test_counter_threaded_through_fit(self, sbm_data):
        model = build_model("GAT", 12, 8, sbm_data.num_classes,
                            num_layers=2)
        counter = FlopCounter()
        trainer = Trainer(model, SoftmaxCrossEntropyLoss(), SGD(0.01))
        trainer.fit(sbm_data.adjacency, sbm_data.features, sbm_data.labels,
                    epochs=2, counter=counter)
        assert counter.total > 0
        assert "SpMM" in counter.by_label

    def test_fit_clears_caches(self, sbm_data):
        model = build_model("GCN", 12, 8, sbm_data.num_classes, num_layers=2)
        from repro.models import normalize_adjacency

        a = normalize_adjacency(sbm_data.adjacency)
        trainer = Trainer(model, SoftmaxCrossEntropyLoss(), SGD(0.01))
        trainer.fit(a, sbm_data.features, sbm_data.labels, epochs=1)
        with pytest.raises(RuntimeError):
            model.backward(np.zeros((300, sbm_data.num_classes)))

    def test_val_history_tracked(self, sbm_data):
        model = build_model("GCN", 12, 8, sbm_data.num_classes, num_layers=2)
        from repro.models import normalize_adjacency

        trainer = Trainer(model, SoftmaxCrossEntropyLoss(), SGD(0.05))
        result = trainer.fit(
            normalize_adjacency(sbm_data.adjacency), sbm_data.features,
            sbm_data.labels, epochs=5, val_mask=sbm_data.val_mask,
        )
        assert len(result.val_accuracies) == 5
        assert all(0 <= v <= 1 for v in result.val_accuracies)

    def test_final_loss_of_empty_history(self):
        from repro.training.trainer import TrainResult

        assert np.isnan(TrainResult().final_loss)

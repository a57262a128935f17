"""Finite-difference validation of every model's backward pass.

This is the strongest correctness statement in the suite: the paper's
hand-derived global backward formulations (Eq. 6–13 and the per-model
Gamma expressions) are checked against central differences on every
parameter of every layer, for both composition orders.
"""

import numpy as np
import pytest

from repro.fusion import DagLayer
from repro.models import build_model, normalize_adjacency
from repro.models.base import GnnModel
from repro.training.loss import MSELoss


def max_rel_gradient_error(model, a, h, target, rng, samples=6):
    loss = MSELoss()
    out = model.forward(a, h, training=True)
    grads = model.backward(loss.gradient(out, target))
    eps = 1e-6
    worst = 0.0
    for layer_index, layer in enumerate(model.layers):
        for name, param in layer.parameters().items():
            flat = param.reshape(-1)
            count = min(samples, flat.size)
            for i in rng.choice(flat.size, size=count, replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss.value(model.forward(a, h, training=False), target)
                flat[i] = orig - eps
                down = loss.value(model.forward(a, h, training=False), target)
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                analytic = np.atleast_1d(
                    np.asarray(grads[layer_index][name])
                ).reshape(-1)[i]
                denom = max(1e-8, abs(numeric) + abs(analytic))
                worst = max(worst, abs(numeric - analytic) / denom)
    return worst


@pytest.fixture
def problem(rng, small_adjacency):
    n = small_adjacency.shape[0]
    h = rng.normal(size=(n, 5))
    target = rng.normal(size=(n, 3))
    return small_adjacency, h, target


class TestGradcheck:
    @pytest.mark.parametrize("order", ["project_first", "aggregate_first"])
    @pytest.mark.parametrize("name", ["VA", "AGNN", "GCN"])
    def test_orderable_models(self, rng, problem, name, order):
        a, h, target = problem
        a = normalize_adjacency(a) if name == "GCN" else a
        model = build_model(name, 5, 6, 3, num_layers=2, seed=11,
                            activation="tanh", order=order, dtype=np.float64)
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-6

    def test_gat(self, rng, problem):
        a, h, target = problem
        model = build_model("GAT", 5, 6, 3, num_layers=2, seed=11,
                            activation="tanh", dtype=np.float64)
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-5

    def test_gat_multihead(self, rng, problem):
        a, h, target = problem
        model = build_model("GAT", 5, 6, 3, num_layers=2, seed=11,
                            activation="tanh", heads=2, dtype=np.float64)
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-5

    def test_agnn_learnable_beta(self, rng, problem):
        a, h, target = problem
        model = build_model("AGNN", 5, 6, 3, num_layers=2, seed=11,
                            activation="tanh", learnable_beta=True,
                            dtype=np.float64)
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-6

    def test_three_layer_deep_chain(self, rng, problem):
        """Error propagation through multiple hops (Eq. 6 chaining)."""
        a, h, target = problem
        model = build_model("VA", 5, 4, 3, num_layers=3, seed=2,
                            activation="tanh", dtype=np.float64)
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-6

    @pytest.mark.parametrize("activation", ["relu", "elu", "sigmoid"])
    def test_activation_variants(self, rng, problem, activation):
        a, h, target = problem
        model = build_model("AGNN", 5, 6, 3, num_layers=2, seed=3,
                            activation=activation, dtype=np.float64)
        # ReLU kinks can inflate finite-difference error slightly.
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-3


class TestDagLayerGradcheck:
    """The *derived* backward (autodiff over the op-DAG IR) must pass
    the same central-difference check as the hand-written VJPs."""

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("va", {}),
            ("agnn", {"beta": 0.9}),
            ("gat", {"slope": 0.2}),
        ],
    )
    def test_dag_models(self, rng, problem, name, kwargs):
        a, h, target = problem
        model = GnnModel([
            DagLayer(name, 5, 6, activation="tanh", seed=11,
                     dtype=np.float64, **kwargs),
            DagLayer(name, 6, 3, activation="identity", seed=12,
                     dtype=np.float64, **kwargs),
        ])
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-6

    def test_mixed_hand_and_dag_stack(self, rng, problem):
        """DagLayer honours the GnnLayer contract: it stacks with the
        hand-fused layers inside one model."""
        from repro.models import VA, AttentionLayer

        a, h, target = problem
        model = GnnModel([
            AttentionLayer(5, 6, VA, activation="tanh", seed=11,
                           dtype=np.float64),
            DagLayer("va", 6, 3, activation="identity", seed=12,
                     dtype=np.float64),
        ])
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-6

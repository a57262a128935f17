"""Finite-difference validation of every model's backward pass.

This is the strongest correctness statement in the suite: the paper's
global backward formulations (Eq. 6–13 and the per-model Gamma
expressions) — the compiled sweep's recompute backward plus each spec's
dense chain rule — are checked against central differences on every
parameter of every layer, for both composition orders. ``--kernels
numpy`` runs the same matrix through the sweep's no-compiler fallback.
"""

import numpy as np
import pytest

from repro.core.formulation import AttentionSpec
from repro.fusion import DagLayer
from repro.models import (
    AttentionLayer,
    build_model,
    layer_spec,
    normalize_adjacency,
)
from repro.models.base import GnnModel
from repro.tensor.kernels import masked_row_softmax_backward, spmm
from repro.tensor.megakernel import attention_scores
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

    @pytest.mark.parametrize("order", ["project_first", "aggregate_first"])
    @pytest.mark.parametrize("beta", [0.0, 1.3])
    def test_agnn_learnable_beta_orders(self, rng, problem, beta, order):
        """beta = 0 flattens every score: the feature-side exits vanish
        there and only the sweep's own ``dCoef`` sum carries d/d(beta)."""
        a, h, target = problem
        model = build_model("AGNN", 5, 6, 3, num_layers=2, seed=11,
                            activation="tanh", learnable_beta=True, beta=beta,
                            order=order, dtype=np.float64)
        assert all(float(layer.psi_params["beta"]) == beta
                   for layer in model.layers)
        grads = model.backward(model.forward(a, h) - target)
        assert all(abs(float(g["beta"])) > 1e-6 for g in grads)
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-6

    @pytest.mark.parametrize("combine", ["concat", "mean"])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_gat_heads_and_combine(self, rng, problem, heads, combine):
        """Stacked ``(n, heads, d)`` operands, and the mean combine's
        broadcast (non-contiguous) ``dZ``, through the sweep."""
        a, h, _ = problem
        first = AttentionLayer(5, 4, layer_spec("gat"), activation="tanh",
                               heads=heads, combine=combine, seed=11,
                               dtype=np.float64)
        model = GnnModel([first, AttentionLayer(
            first.out_dim, 3, layer_spec("gat", slope=0.1), activation="identity",
            heads=heads, combine=combine, seed=12, dtype=np.float64,
        )])
        target = rng.normal(size=(a.shape[0], model.layers[-1].out_dim))
        # Some a_src entries have 1e-6-sized gradients, where the central
        # difference itself is only good to ~1e-5 relative.
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-4

    @pytest.mark.parametrize("order", ["project_first", "aggregate_first"])
    def test_user_kind_spec(self, rng, problem, order):
        """A user Psi that declares its kind (softmaxed scaled dot product,
        two different endpoints) sweeps like the built-in ones."""
        a, h, target = problem
        spec = AttentionSpec(
            kind="dot", softmax=True,
            operands=lambda x, params, counter: {"x_src": x / 2.0, "x_dst": x},
            operands_vjp=lambda exits, x, params, ops, counter: (
                exits["dRow"] / 2.0 + exits["dCol"], {}
            ),
        )
        model = GnnModel([
            AttentionLayer(5, 6, spec, activation="tanh", order=order,
                           seed=11, dtype=np.float64),
            AttentionLayer(6, 3, spec, activation="identity", order=order,
                           seed=12, dtype=np.float64),
        ])
        _, cache = model.layers[0].forward(a, h)
        assert cache.stats is not None and cache.s is None
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-6

    @pytest.mark.parametrize("order", ["project_first", "aggregate_first"])
    def test_trainable_user_spec_on_the_general_route(self, rng, problem, order):
        """A user Psi that returns ``S`` and brings its own VJP from the
        raw kernels: the layer's ``dS = A ⊙ (L R^T)`` hand-off still trains."""
        a, h, target = problem

        def psi(a, x, params, counter):
            s = attention_scores(a, "dot", x_src=x / 2.0, x_dst=x, softmax=True)
            return s, (a, x, s.data)

        def psi_vjp(ds, cache, counter):
            a, x, soft = cache
            n_mat = a.with_data(
                masked_row_softmax_backward(soft, ds, a.indptr) * a.data
            )
            return spmm(n_mat, x) / 2.0 + spmm(n_mat.transpose(), x) / 2.0, {}

        spec = AttentionSpec(psi=psi, psi_vjp=psi_vjp, name="user-scaled-dot")
        model = GnnModel([
            AttentionLayer(5, 6, spec, activation="tanh", order=order,
                           seed=11, dtype=np.float64),
            AttentionLayer(6, 3, spec, activation="identity", order=order,
                           seed=12, dtype=np.float64),
        ])
        _, cache = model.layers[0].forward(a, h)
        assert cache.stats is None and cache.s is not None
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

        a, h, target = problem
        model = GnnModel([
            AttentionLayer(5, 6, layer_spec("va"), activation="tanh", seed=11,
                           dtype=np.float64),
            DagLayer("va", 6, 3, activation="identity", seed=12,
                     dtype=np.float64),
        ])
        assert max_rel_gradient_error(model, a, h, target, rng) < 1e-6

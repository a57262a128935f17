"""Tests for the single-node models (forward semantics, structure)."""

import numpy as np
import pytest

import ast
from pathlib import Path

import repro.core
import repro.models
from repro.models import (
    GCN,
    VA,
    AttentionLayer,
    GnnModel,
    agnn_spec,
    build_model,
    gat_spec,
    normalize_adjacency,
)
from repro.util.counters import FlopCounter

MODELS = ["VA", "AGNN", "GAT", "GCN"]


def adjacency_for(name, a):
    return normalize_adjacency(a) if name == "GCN" else a


class TestBuildModel:
    @pytest.mark.parametrize("name", MODELS)
    def test_dimensions_chain(self, name):
        model = build_model(name, 8, 16, 3, num_layers=4)
        assert model.num_layers == 4
        assert model.layers[0].in_dim == 8
        assert model.layers[-1].out_dim == 3

    def test_final_layer_is_linear(self):
        model = build_model("GAT", 8, 16, 3, num_layers=3)
        assert model.layers[-1].activation.name == "identity"
        assert model.layers[0].activation.name == "elu"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_model("Transformer", 8, 16, 3)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            GnnModel([])


class TestForward:
    @pytest.mark.parametrize("name", MODELS)
    def test_output_shape(self, rng, small_adjacency, name):
        model = build_model(name, 5, 8, 3, num_layers=2, dtype=np.float64)
        h = rng.normal(size=(60, 5))
        out = model.forward(adjacency_for(name, small_adjacency), h)
        assert out.shape == (60, 3)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("name", MODELS)
    def test_inference_equals_training_forward(self, rng, small_adjacency,
                                               name):
        model = build_model(name, 5, 8, 3, num_layers=2, dtype=np.float64)
        h = rng.normal(size=(60, 5))
        a = adjacency_for(name, small_adjacency)
        out_train = model.forward(a, h, training=True)
        out_infer = model.forward(a, h, training=False)
        assert np.allclose(out_train, out_infer)

    @pytest.mark.parametrize("name", ["VA", "AGNN", "GCN"])
    def test_composition_orders_equivalent(self, rng, small_adjacency, name):
        h = rng.normal(size=(60, 5))
        a = adjacency_for(name, small_adjacency)
        m_proj = build_model(name, 5, 8, 3, num_layers=2, seed=4,
                             order="project_first", dtype=np.float64)
        m_agg = build_model(name, 5, 8, 3, num_layers=2, seed=4,
                            order="aggregate_first", dtype=np.float64)
        assert np.allclose(
            m_proj.forward(a, h), m_agg.forward(a, h), atol=1e-9
        )

    def test_deterministic_given_seed(self, rng, small_adjacency):
        h = rng.normal(size=(60, 5))
        out1 = build_model("GAT", 5, 8, 3, seed=9, dtype=np.float64).forward(
            small_adjacency, h
        )
        out2 = build_model("GAT", 5, 8, 3, seed=9, dtype=np.float64).forward(
            small_adjacency, h
        )
        assert np.array_equal(out1, out2)

    def test_flops_counted(self, rng, small_adjacency):
        model = build_model("GAT", 5, 8, 3, num_layers=2)
        counter = FlopCounter()
        model.forward(small_adjacency, rng.normal(size=(60, 5)).astype(np.float32),
                      counter=counter)
        assert counter.total > 0
        assert "SpMM" in counter.by_label

    def test_backward_requires_training_forward(self, rng, small_adjacency):
        model = build_model("VA", 5, 8, 3, num_layers=2, dtype=np.float64)
        h = rng.normal(size=(60, 5))
        model.forward(small_adjacency, h, training=False)
        with pytest.raises(RuntimeError):
            model.backward(np.zeros((60, 3)))

    def test_zero_caches_frees_state(self, rng, small_adjacency):
        model = build_model("VA", 5, 8, 3, num_layers=2, dtype=np.float64)
        model.forward(small_adjacency, rng.normal(size=(60, 5)))
        model.zero_caches()
        with pytest.raises(RuntimeError):
            model.backward(np.zeros((60, 3)))


class TestOneAttentionLayer:
    """Eq. (1) is written once: a model is its Psi spec, nothing more."""

    RETIRED = (
        "GenericLayer", "PairwiseAttentionLayer", "VALayer", "AGNNLayer",
        "GATLayer", "MultiHeadGATLayer", "GCNLayer",
    )

    def test_every_model_builds_the_same_layer_class(self):
        cases = [("VA", {}), ("AGNN", {}), ("GCN", {}),
                 ("GAT", {"heads": 1}), ("GAT", {"heads": 4})]
        types = {
            type(layer)
            for name, kwargs in cases
            for layer in build_model(name, 8, 16, 3, **kwargs).layers
        }
        assert types == {AttentionLayer}

    def test_hand_written_layers_are_not_exported(self):
        for package in (repro.core, repro.models):
            for name in self.RETIRED:
                assert not hasattr(package, name), f"{package.__name__}.{name}"

    def test_no_signature_takes_batched(self):
        """Head-batched is how heads run, not a switch."""
        package = Path(repro.models.__file__).parent.parent
        offenders = [
            f"{path.relative_to(package)}:{getattr(node, 'name', 'lambda')}"
            for sub in ("models", "distributed")
            for path in sorted((package / sub).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for arg in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
            if arg.arg == "batched"
        ]
        assert offenders == []


class TestLayerValidation:
    # ids predate the one-layer refactor; kept so the test history
    # of each case stays one line.
    @pytest.mark.parametrize(
        "spec", [VA, agnn_spec(), GCN],
        ids=["VALayer", "AGNNLayer", "GCNLayer"],
    )
    def test_invalid_order_rejected(self, spec):
        with pytest.raises(ValueError):
            AttentionLayer(4, 4, spec, order="diagonal_first")

    def test_multihead_invalid_combine(self):
        with pytest.raises(ValueError):
            AttentionLayer(4, 4, gat_spec(), heads=2, combine="xor")


class TestMultiHeadGAT:
    def test_concat_width(self, rng, small_adjacency):
        layer = AttentionLayer(5, 4, gat_spec(), heads=3, combine="concat",
                               dtype=np.float64)
        out, _ = layer.forward(small_adjacency, rng.normal(size=(60, 5)))
        assert out.shape == (60, 12)

    def test_mean_width(self, rng, small_adjacency):
        layer = AttentionLayer(5, 4, gat_spec(), heads=3, combine="mean",
                               dtype=np.float64)
        out, _ = layer.forward(small_adjacency, rng.normal(size=(60, 5)))
        assert out.shape == (60, 4)

    def test_single_head_mean_matches_gat_layer(self, rng, small_adjacency):
        """One head: ``combine`` is moot and the parameters are plain."""
        multi = AttentionLayer(5, 4, gat_spec(), heads=1, combine="mean",
                               activation="elu", seed=7, dtype=np.float64)
        single = AttentionLayer(5, 4, gat_spec(), activation="elu", seed=7,
                                dtype=np.float64)
        assert set(multi.parameters()) == {"weight", "a_src", "a_dst"}
        h = rng.normal(size=(60, 5))
        out_m, cache = multi.forward(small_adjacency, h)
        out_s, _ = single.forward(small_adjacency, h)
        assert np.array_equal(out_m, out_s)
        # ... and the kernels saw 2-D operands, not a (n, 1, d) stack.
        assert cache.hp.ndim == 2 and cache.ops["u"].ndim == 1
        assert cache.stats.denom.shape == (60, 1)

    def test_model_factory_with_heads(self, rng, small_adjacency):
        model = build_model("GAT", 5, 4, 3, num_layers=2, heads=2,
                            dtype=np.float64)
        out = model.forward(small_adjacency, rng.normal(size=(60, 5)))
        assert out.shape == (60, 3)


class TestNormalizeAdjacency:
    def test_sym_rows_scale(self, small_adjacency):
        norm = normalize_adjacency(small_adjacency, mode="sym")
        # Symmetric normalisation of a symmetric pattern stays symmetric.
        dense = norm.to_dense()
        assert np.allclose(dense, dense.T, atol=1e-6)

    def test_row_normalisation_sums_to_one(self, small_adjacency):
        norm = normalize_adjacency(small_adjacency, mode="row")
        assert np.allclose(norm.row_sum(), 1.0, atol=1e-6)

    def test_none_mode_keeps_binary(self, small_adjacency):
        norm = normalize_adjacency(small_adjacency, mode="none")
        assert set(np.unique(norm.data)) == {1.0}

    def test_invalid_mode(self, small_adjacency):
        with pytest.raises(ValueError):
            normalize_adjacency(small_adjacency, mode="cube")

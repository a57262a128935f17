"""Tests for the programmable layer (Eq. 1) driven by user-defined specs."""

import numpy as np
import pytest

from repro.core.formulation import AttentionSpec
from repro.core.psi import psi_va, psi_va_vjp
from repro.models import VA, AttentionLayer
from repro.models.base import GnnModel
from repro.tensor.semiring import TROPICAL_MAX, adjacency_values
from repro.training import SGD


def _raw_va_psi(a, h, params, counter):
    return psi_va(a, h)


@pytest.fixture
def va_spec():
    """VA written out by a user from the raw kernels."""
    return AttentionSpec(
        psi=_raw_va_psi,
        psi_vjp=lambda ds, cache, counter: (psi_va_vjp(ds, cache), {}),
        name="user-va",
    )


class TestForward:
    def test_matches_hand_written_va_layer(self, rng, small_adjacency,
                                           va_spec):
        h = rng.normal(size=(60, 5))
        layer = AttentionLayer(5, 4, va_spec, activation="relu", seed=3,
                               dtype=np.float64)
        reference = AttentionLayer(5, 4, VA, activation="relu", seed=3,
                                   dtype=np.float64)
        assert np.array_equal(reference.weight, layer.weight)
        out, cache = layer.forward(small_adjacency, h)
        ref, ref_cache = reference.forward(small_adjacency, h)
        assert np.array_equal(out, ref)
        g = rng.normal(size=out.shape)
        dh, grads = layer.backward(cache, g)
        dh_ref, grads_ref = reference.backward(ref_cache, g)
        assert np.array_equal(dh, dh_ref)
        assert np.array_equal(grads["weight"], grads_ref["weight"])

    def test_composition_orders_agree_for_real_semiring(
        self, rng, small_adjacency, va_spec
    ):
        """Phi and ⊕ commute mathematically for linear Phi (Section 4.4)."""
        h = rng.normal(size=(60, 5))
        proj = AttentionLayer(5, 4, va_spec, seed=1, dtype=np.float64)
        agg = AttentionLayer(5, 4, va_spec, order="aggregate_first", seed=1,
                             dtype=np.float64)
        out_p, _ = proj.forward(small_adjacency, h)
        out_a, _ = agg.forward(small_adjacency, h)
        assert np.allclose(out_p, out_a, atol=1e-10)

    def test_max_semiring_aggregation(self, rng, small_adjacency):
        """A custom A-GNN: max-aggregation over attention scores."""
        def psi(a, h, params, counter):
            s, cache = psi_va(a, h)
            return s.with_data(adjacency_values(TROPICAL_MAX, s.data)), cache

        layer = AttentionLayer(
            5, 4, AttentionSpec(psi=psi, name="max-va"),
            activation="identity", order="aggregate_first",
            aggregate=TROPICAL_MAX, seed=0, dtype=np.float64,
        )
        h = rng.normal(size=(60, 5))
        out, _ = layer.forward(small_adjacency, h)
        # Aggregated features are neighbourhood maxima of h.
        dense = small_adjacency.to_dense()
        expected = np.full((60, 5), -np.inf)
        for i in range(60):
            nz = np.nonzero(dense[i])[0]
            if nz.size:
                expected[i] = h[nz].max(axis=0)
        assert np.allclose(out, expected @ layer.weight)

    def test_inference_mode_skips_cache(self, rng, small_adjacency, va_spec):
        layer = AttentionLayer(5, 4, va_spec)
        h = rng.normal(size=(60, 5)).astype(np.float32)
        _, cache = layer.forward(small_adjacency, h, training=False)
        assert cache is None


class TestBackward:
    def test_gradcheck_with_psi_vjp(self, rng, small_adjacency, va_spec):
        h = rng.normal(size=(60, 4))
        layer = AttentionLayer(4, 3, va_spec, activation="tanh", seed=2,
                               dtype=np.float64)
        target = rng.normal(size=(60, 3))

        def loss_value():
            out, _ = layer.forward(small_adjacency, h, training=False)
            return float(((out - target) ** 2).sum())

        out, cache = layer.forward(small_adjacency, h)
        g = 2 * (out - target) * layer.activation.grad(cache.z)
        _, grads = layer.backward(cache, g)
        eps = 1e-6
        flat = layer.weight.reshape(-1)
        for i in rng.choice(flat.size, size=6, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_value()
            flat[i] = orig - eps
            down = loss_value()
            flat[i] = orig
            num = (up - down) / (2 * eps)
            assert np.isclose(grads["weight"].reshape(-1)[i], num, atol=1e-4)

    def test_backward_without_vjp_detaches_attention(
        self, rng, small_adjacency
    ):
        spec = AttentionSpec(psi=_raw_va_psi)  # no vjp
        layer = AttentionLayer(4, 3, spec, seed=2, dtype=np.float64)
        h = rng.normal(size=(60, 4))
        out, cache = layer.forward(small_adjacency, h)
        g = np.ones_like(out)
        dh, grads = layer.backward(cache, g)
        # Gradient stops at Psi: only the aggregation path S^T G W^T.
        assert np.allclose(
            dh, cache.s.to_dense().T @ g @ layer.weight.T
        )
        assert grads["weight"].shape == (4, 3)

    def test_exotic_semiring_training_rejected(self, rng, small_adjacency):
        layer = AttentionLayer(4, 3, AttentionSpec(psi=_raw_va_psi),
                               aggregate=TROPICAL_MAX, dtype=np.float64)
        h = rng.normal(size=(60, 4))
        # Forward with raw scores is fine; backward must refuse.
        s_out, cache = layer.forward(small_adjacency, h)
        with pytest.raises(NotImplementedError):
            layer.backward(cache, np.ones_like(s_out))

    def test_apply_gradients_sgd(self, rng, small_adjacency, va_spec):
        layer = AttentionLayer(4, 3, va_spec, dtype=np.float64)
        before = layer.weight.copy()
        SGD(0.1).step(
            GnnModel([layer]), [{"weight": np.ones_like(layer.weight)}]
        )
        assert np.allclose(layer.weight, before - 0.1)


class TestSpecValidation:
    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            AttentionLayer(4, 3, VA, order="sideways")

    def test_psi_on_projection_pins_order_and_heads(self):
        from repro.models import gat_spec

        with pytest.raises(ValueError, match="project_first"):
            AttentionLayer(4, 3, gat_spec(), order="aggregate_first")
        with pytest.raises(ValueError, match="heads"):
            AttentionLayer(4, 3, VA, heads=2)

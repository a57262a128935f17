"""Tests for the programmable layer (Eq. 1) driven by user-defined specs."""

import numpy as np
import pytest

from repro.core.formulation import AttentionSpec
from repro.models import AttentionLayer, layer_spec
from repro.models.base import GnnModel
from repro.tensor.kernels import spmm
from repro.tensor.megakernel import attention_scores
from repro.tensor.semiring import TROPICAL_MAX, adjacency_values
from repro.training import SGD
from repro.util.counters import FlopCounter

VA = layer_spec("va")


def _raw_va_psi(a, h, params, counter):
    """A user Psi on the general route: it returns the score matrix."""
    return attention_scores(a, "dot", x_src=h), (a, h)


def _raw_va_vjp(ds, cache, counter):
    """Eq. 11 from the raw kernels: dH = N H + N^T H with N = A ⊙ dS."""
    a, h = cache
    n_mat = a.with_data(ds * a.data)
    return spmm(n_mat, h) + spmm(n_mat.transpose(), h), {}


@pytest.fixture
def va_spec():
    """VA written out by a user from the raw kernels."""
    return AttentionSpec(psi=_raw_va_psi, psi_vjp=_raw_va_vjp, name="user-va")


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
        # Two routes, one formula: the user spec materialises S and runs
        # kernel-at-a-time, the built-in one is a single sweep.
        assert cache.s is not None and ref_cache.s is None
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)
        g = rng.normal(size=out.shape)
        dh, grads = layer.backward(cache, g)
        dh_ref, grads_ref = reference.backward(ref_cache, g)
        assert np.allclose(dh, dh_ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(
            grads["weight"], grads_ref["weight"], rtol=1e-12, atol=1e-12
        )

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
            s, cache = _raw_va_psi(a, h, params, counter)
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


class TestRouteFollowsSpecAndSemiring:
    """A kind-declaring spec sweeps over the real semiring and materialises
    ``attention_scores`` for any other; nothing else picks the route."""

    def test_built_in_spec_on_another_semiring_aggregates_its_scores(
        self, rng, small_adjacency
    ):
        h = rng.normal(size=(60, 5))
        layer = AttentionLayer(5, 4, layer_spec("agnn", beta=1.3), activation="identity",
                               aggregate=TROPICAL_MAX, seed=0, dtype=np.float64)
        out, cache = layer.forward(small_adjacency, h)
        norms = np.sqrt((h * h).sum(axis=1))
        s = attention_scores(small_adjacency, "cosine", x_src=h, norms=norms,
                             beta=1.3)
        assert cache.stats is None and np.allclose(cache.s.data, s.data)
        assert np.allclose(
            out, spmm(s, h @ layer.weight, semiring=TROPICAL_MAX)
        )
        with pytest.raises(NotImplementedError):
            layer.backward(cache, np.ones_like(out))

    def test_sweep_cache_holds_nothing_edge_sized(self, rng, small_adjacency):
        h = rng.normal(size=(60, 5))
        layer = AttentionLayer(5, 4, layer_spec("agnn"), seed=0, dtype=np.float64)
        _, cache = layer.forward(small_adjacency, h)
        assert cache.s is None and cache.psi_cache is None
        assert cache.stats.shift.shape == cache.stats.denom.shape == (60, 1)
        assert set(cache.ops) == {"x_src", "x_dst", "norms", "slope", "beta"}
        assert cache.ops["x_dst"] is cache.ops["x_src"] is h

    def test_kind_spec_without_operands_vjp_detaches_attention(
        self, rng, small_adjacency
    ):
        spec = AttentionSpec(kind="dot", softmax=True,
                             operands=lambda h, params, counter: {"x_src": h})
        layer = AttentionLayer(4, 3, spec, seed=2, dtype=np.float64)
        h = rng.normal(size=(60, 4))
        out, cache = layer.forward(small_adjacency, h)
        g = np.ones_like(out)
        dh, _ = layer.backward(cache, g)
        s = attention_scores(small_adjacency, "dot", x_src=h, softmax=True)
        assert np.allclose(dh, s.to_dense().T @ g @ layer.weight.T)


class TestSpecValidation:
    def test_a_spec_is_psi_or_a_kind_never_both(self):
        operands = VA.operands
        for bad in (
            {},
            {"psi": _raw_va_psi, "operands": operands},
            {"kind": "gram", "operands": operands},
            {"kind": "dot"},
            {"kind": "dot", "operands": operands, "psi": _raw_va_psi},
            {"kind": "dot", "operands": operands, "psi_vjp": _raw_va_vjp},
            {"psi": _raw_va_psi, "operands_vjp": VA.operands_vjp},
        ):
            with pytest.raises(ValueError, match="supplies psi .* or declares"):
                AttentionSpec(**bad)

    def test_kind_spec_stays_hashable_with_its_filled_in_psi(self, rng,
                                                             small_adjacency):
        assert hash(VA) == hash(VA) and VA == VA and len({VA, layer_spec("agnn")}) == 2
        h = rng.normal(size=(60, 3))
        s, cache = VA.psi(small_adjacency, h, {}, FlopCounter())
        assert cache is None
        assert np.allclose(s.to_dense(), small_adjacency.to_dense() * (h @ h.T))

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            AttentionLayer(4, 3, VA, order="sideways")

    def test_psi_on_projection_pins_order_and_heads(self):
        with pytest.raises(ValueError, match="project_first"):
            AttentionLayer(4, 3, layer_spec("gat"), order="aggregate_first")
        with pytest.raises(ValueError, match="heads"):
            AttentionLayer(4, 3, VA, heads=2)

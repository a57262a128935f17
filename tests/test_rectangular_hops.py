"""A layer on a rectangular hop computes its destination rows only.

A sampled block's matrix has one row per destination over its source
columns, and the layer is told where the destinations sit among the
sources (``rows=dst_positions``). The oracle is the same layer on the
hop's square lift (``tests/reference_blocks.py``): its output at
``dst_positions``, and its gradients given the output gradient scattered
into the source frame, zeros elsewhere — the arithmetic sampled layers
ran before blocks were rectangular. Both must agree bit for bit: every
reduction over a hop's rows sees the same entries in the same order, and
a square lift's extra rows are empty or multiply zeros.

Products whose row count is the hop's row count — GIN's MLP,
``aggregate_first``'s ``(Psi H) W`` and the weight
gradients that sum over those rows — are BLAS products of a different
shape on the two layouts. OpenBLAS blocks long inner and outer
dimensions, so on a hop of some thousand rows such a product can round
differently (GIN in float32 does on a 2 000-destination hop); these hops
have a few dozen rows, below any blocking, and the large-hop case is held
to rounding in ``test_row_products_agree_to_rounding_on_a_large_hop``.
The attention layers' own products (``H W`` and ``H^T dH'``) run over
the sources on both layouts and stay bit-equal at any size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fusion.layer import DagLayer
from repro.graphs import erdos_renyi, prepare_adjacency
from repro.models import build_model
from repro.models.attention import GCN, AttentionLayer, layer_spec
from repro.models.base import backward_blocks, forward_blocks
from repro.models.gin import GINLayer
from repro.tensor.sampling_graph import sample_blocks
from repro.tensor.semiring import AVERAGE
from repro.util.counters import FlopCounter
from tests.reference_blocks import square_hop

K_IN, K_OUT = 6, 4

LAYERS = {
    "va": lambda dt: AttentionLayer(K_IN, K_OUT, layer_spec("va"), seed=1, dtype=dt),
    "agnn": lambda dt: AttentionLayer(K_IN, K_OUT, layer_spec("agnn"), seed=1, dtype=dt),
    "agnn-beta": lambda dt: AttentionLayer(
        K_IN, K_OUT, layer_spec("agnn", learnable_beta=True), seed=1, dtype=dt),
    "gat": lambda dt: AttentionLayer(
        K_IN, K_OUT, layer_spec("gat"), activation="elu", seed=1, dtype=dt),
    "gat-3-concat": lambda dt: AttentionLayer(
        K_IN, K_OUT, layer_spec("gat"), activation="elu", heads=3, seed=1, dtype=dt),
    "gat-3-mean": lambda dt: AttentionLayer(
        K_IN, K_OUT, layer_spec("gat"), heads=3, combine="mean", seed=1, dtype=dt),
    "va-aggregate-first": lambda dt: AttentionLayer(
        K_IN, K_OUT, layer_spec("va"), order="aggregate_first", seed=1, dtype=dt),
    "gcn": lambda dt: AttentionLayer(K_IN, K_OUT, GCN, seed=1, dtype=dt),
    "gin": lambda dt: GINLayer(K_IN, 5, K_OUT, epsilon=0.3, seed=1, dtype=dt),
    **{f"dag-{model}-{'fused' if fused else 'interpreted'}": (
        lambda dt, model=model, fused=fused: DagLayer(
            model, K_IN, K_OUT, fused=fused, seed=1, dtype=dt))
       for model in ("va", "agnn", "gat") for fused in (True, False)},
}


def _hop(dtype, n=60, m=420, targets=slice(0, 60, 4), fanout=5, seed=0):
    """One sampled hop of an ER graph, and scaled source features."""
    a = prepare_adjacency(erdos_renyi(n, m, seed=seed), dtype=dtype)
    block = sample_blocks(a, np.arange(n)[targets], (fanout,), np.random.default_rng(seed))[0]
    assert 0 < block.dst_positions.shape[0] < block.num_src
    h = (0.5 * np.random.default_rng(seed + 1).normal(size=(block.num_src, K_IN))).astype(dtype)
    return block, h


def _both_layouts(layer, block, h, seed=2):
    """``(rectangular, square)`` passes of ``layer``: each its output rows
    at the destinations, input gradient and parameter gradients."""
    rows = block.dst_positions
    out, cache = layer.forward(block.matrix, h, rows=rows)
    d_out = np.random.default_rng(seed).normal(size=out.shape).astype(out.dtype)
    dh, grads = layer.backward(cache, d_out * layer.activation.grad(cache.z))
    rect = out, dh, grads

    out_sq, cache_sq = layer.forward(square_hop(block.matrix, rows), h)
    gamma = np.zeros_like(out_sq)
    gamma[rows] = d_out
    dh_sq, grads_sq = layer.backward(cache_sq, gamma * layer.activation.grad(cache_sq.z))
    return rect, (out_sq[rows], dh_sq, grads_sq)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("name", sorted(LAYERS))
def test_rectangular_hop_equals_its_square_lift(name, dtype):
    block, h = _hop(dtype)
    (out, dh, grads), (out_sq, dh_sq, grads_sq) = _both_layouts(LAYERS[name](dtype), block, h)
    assert out.shape == (block.dst_positions.shape[0],) + out.shape[1:]
    assert np.array_equal(out, out_sq)
    assert dh.shape == h.shape and np.array_equal(dh, dh_sq)
    assert grads.keys() == grads_sq.keys()
    for key in grads:
        assert np.array_equal(grads[key], grads_sq[key]), key


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_inference_rows_equal_training_rows(name):
    block, h = _hop(np.float64)
    layer = LAYERS[name](np.float64)
    out, _ = layer.forward(block.matrix, h, rows=block.dst_positions)
    served, cache = layer.forward(block.matrix, h, training=False, rows=block.dst_positions)
    assert cache is None and np.array_equal(served, out)


@pytest.mark.parametrize("name", ["gin", "va-aggregate-first", "gat-3-concat"])
def test_row_products_agree_to_rounding_on_a_large_hop(name):
    """On a hop of 2 000 destinations over some 5 000 sources the two
    layouts' BLAS products differ in shape; they agree to rounding."""
    block, h = _hop(np.float32, n=6000, m=60000, targets=slice(0, 6000, 3), fanout=6)
    (out, dh, grads), (out_sq, dh_sq, grads_sq) = _both_layouts(
        LAYERS[name](np.float32), block, h)
    assert np.allclose(out, out_sq, rtol=1e-5, atol=1e-6)
    assert np.allclose(dh, dh_sq, rtol=1e-5, atol=1e-6)
    for key in grads:
        assert np.allclose(grads[key], grads_sq[key], rtol=1e-4, atol=1e-5), key


@pytest.mark.parametrize("spec", ["gat", "gcn"])
def test_other_semirings_score_the_destination_rows(spec):
    """Inference over another semiring materialises ``S`` on the hop."""
    block, h = _hop(np.float64)
    layer = AttentionLayer(K_IN, K_OUT, GCN if spec == "gcn" else layer_spec(spec),
                           aggregate=AVERAGE, seed=1, dtype=np.float64)
    out, _ = layer.forward(block.matrix, h, training=False, rows=block.dst_positions)
    out_sq, _ = layer.forward(square_hop(block.matrix, block.dst_positions), h, training=False)
    assert np.array_equal(out, out_sq[block.dst_positions])


class TestFirstLayerInputGradient:
    """``backward_blocks`` gives the first layer ``input_grad=False``."""

    @pytest.fixture(scope="class")
    def setup(self):
        a = prepare_adjacency(erdos_renyi(90, 700, seed=4), dtype=np.float64)
        blocks = sample_blocks(a, np.arange(0, 90, 5), (4, 3), np.random.default_rng(1))
        h0 = np.random.default_rng(2).normal(size=(blocks[0].num_src, K_IN)) * 0.5
        return blocks, h0

    @staticmethod
    def _square_walk(model, blocks, h0, d_out, counter):
        """The layer walk over square lifts, every layer's input gradient
        formed: the arithmetic before rectangular hops."""
        h, caches = h0, []
        for layer, block in zip(model.layers, blocks):
            out, cache = layer.forward(square_hop(block.matrix, block.dst_positions), h,
                                       counter=counter)
            caches.append((cache, block.dst_positions))
            h = out[block.dst_positions]
        out, grads, gamma_dst = h, [None] * len(caches), d_out
        for index in range(len(caches) - 1, -1, -1):
            layer, (cache, rows) = model.layers[index], caches[index]
            gamma = np.zeros((cache.z.shape[0],) + gamma_dst.shape[1:], gamma_dst.dtype)
            gamma[rows] = gamma_dst
            gamma_dst, grads[index] = layer.backward(
                cache, gamma * layer.activation.grad(cache.z), counter=counter)
        return out, grads

    @pytest.mark.parametrize("name, heads", [("gat", 1), ("gat", 3), ("agnn", 1), ("gcn", 1)])
    def test_first_layer_skips_exactly_its_input_product(self, setup, name, heads):
        blocks, h0 = setup
        model = build_model(name, K_IN, 8, 3, num_layers=2, seed=7, dtype=np.float64,
                            **({"heads": heads} if heads > 1 else {}))
        seen = []
        first = model.layers[0]
        backward = first.backward
        first.backward = lambda *args, **kw: seen.append(kw["input_grad"]) or backward(*args, **kw)

        walked, counter = FlopCounter(), FlopCounter()
        out, caches = forward_blocks(model, blocks, h0, counter)
        d_out = np.random.default_rng(3).normal(size=out.shape)
        grads = backward_blocks(model, blocks, caches, d_out, counter)
        del first.backward
        out_sq, grads_sq = self._square_walk(model, blocks, h0, d_out, walked)

        assert seen == [False]
        assert np.array_equal(out, out_sq)
        for layer, layer_sq in zip(grads, grads_sq):
            assert layer.keys() == layer_sq.keys()
            assert all(np.array_equal(layer[key], layer_sq[key]) for key in layer)
        # dH = dH' W^T of the first layer: 2 n k_in k_out, n its sources.
        skipped = 2 * blocks[0].num_src * K_IN * model.layers[0].out_dim
        assert walked.by_label["MM"] - counter.by_label["MM"] == skipped
        rest = {label: value for label, value in walked.by_label.items() if label != "MM"}
        assert rest == {label: value for label, value in counter.by_label.items()
                        if label != "MM"}

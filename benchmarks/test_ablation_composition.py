"""Ablation — the Phi∘⊕ composition order (Section 4.4).

For linear Phi the two orders are mathematically equal but
computationally different: *project-first* runs the SpMM at width
``k_out``, *aggregate-first* at width ``k_in``. The cheaper order
therefore flips with the k_in/k_out ratio — which is exactly why the
paper's formulation leaves the order to the model designer. The bench
measures both orders in both regimes and asserts the flip (on flop
counts, which are deterministic) plus agreement of results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import make_graph
from repro.models import AttentionLayer, layer_spec
from repro.util.counters import FlopCounter

N = 2048


@pytest.fixture(scope="module")
def graph():
    return make_graph("uniform", N, 16 * N, seed=0)


def _flops(order, in_dim, out_dim, graph, h):
    layer = AttentionLayer(in_dim, out_dim, layer_spec("va"), order=order, seed=0,
                           dtype=np.float32)
    counter = FlopCounter()
    layer.forward(graph, h, counter=counter, training=False)
    return counter.total


@pytest.mark.parametrize("order", ["project_first", "aggregate_first"])
@pytest.mark.parametrize(
    "dims", [(64, 8), (8, 64)], ids=["shrinking", "expanding"]
)
def test_composition_order_timing(benchmark, graph, order, dims):
    rng = np.random.default_rng(0)
    in_dim, out_dim = dims
    h = rng.normal(size=(N, in_dim)).astype(np.float32)
    layer = AttentionLayer(in_dim, out_dim, layer_spec("va"), order=order, seed=0,
                           dtype=np.float32)
    out = benchmark(lambda: layer.forward(graph, h, training=False)[0])
    assert out.shape == (N, out_dim)


def test_cheaper_order_flips_with_dimensions(benchmark, graph):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rng = np.random.default_rng(0)
    # Shrinking projection (k_in=64 -> k_out=8): project first, so the
    # SpMM runs at width 8.
    h_wide = rng.normal(size=(N, 64)).astype(np.float32)
    assert _flops("project_first", 64, 8, graph, h_wide) < _flops(
        "aggregate_first", 64, 8, graph, h_wide
    )
    # Expanding projection (8 -> 64): aggregate first, SpMM at width 8.
    h_narrow = rng.normal(size=(N, 8)).astype(np.float32)
    assert _flops("aggregate_first", 8, 64, graph, h_narrow) < _flops(
        "project_first", 8, 64, graph, h_narrow
    )


def test_orders_agree_numerically(benchmark, graph):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rng = np.random.default_rng(0)
    h = rng.normal(size=(N, 16)).astype(np.float64)
    proj, agg = (
        AttentionLayer(16, 16, layer_spec("va"), order=order, seed=3, dtype=np.float64)
        for order in ("project_first", "aggregate_first")
    )
    out_p, _ = proj.forward(graph, h)
    out_a, _ = agg.forward(graph, h)
    assert np.allclose(out_p, out_a, atol=1e-8)

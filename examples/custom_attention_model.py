#!/usr/bin/env python3
"""Programmability demo: design a new A-GNN from Psi / ⊕ / Phi.

The paper's generic formulation (Eq. 1) claims one can "easily design
an arbitrary A-GNN model by appropriately specifying Psi, ⊕, and Phi".
This example does exactly that, twice, on the same ``AttentionLayer``
class the built-in VA/AGNN/GAT/GCN models run on:

1. A *temperature-scaled dot-product* attention (a softmax'd VA — the
   transformer scoring rule on graphs). It *declares* its score kind,
   so the layer runs it as one fused SDDMM → softmax → SpMM sweep; the
   only code written here is dense: the operand prep ``H / T`` and its
   two-term chain rule. The custom model is fully trainable.
2. A *max-pooling attention* variant whose aggregation runs over the
   tropical max-plus semiring (Section 4.3) — a Psi that hands the layer
   its score matrix ``S`` (the general route); inference-only, since
   max-aggregation is not smooth.

Neither needs a new kernel, and neither touches an edge array.

Run:
    python examples/custom_attention_model.py
"""

from __future__ import annotations

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.graphs import synthetic_classification
from repro.models import AttentionLayer, GnnModel
from repro.tensor.semiring import TROPICAL_MAX, adjacency_values
from repro.training import Adam, SoftmaxCrossEntropyLoss, Trainer


# ----------------------------------------------------------------------
# 1. Scaled dot-product attention: Psi = sm(A ⊙ (H H^T / sqrt(k)))
# ----------------------------------------------------------------------
def make_scaled_dot_spec(temperature: float) -> AttentionSpec:
    # The sweep scores an edge (i, j) as x_src[i] . x_dst[j]; the operand
    # prep is (X, params, counter) -> its keyword operands. This Psi has
    # no parameters of its own and reads the layer input H.
    def operands(h, params, counter):
        return {"x_src": h / temperature, "x_dst": h}

    # The sweep's backward returns the gradients of those operands; what
    # is left is (exits, X, params, operands, counter) -> (dX, parameter
    # gradients): H entered twice, once through the division.
    def operands_vjp(exits, h, params, ops, counter):
        return exits["dRow"] / temperature + exits["dCol"], {}

    return AttentionSpec(
        kind="dot", softmax=True, operands=operands,
        operands_vjp=operands_vjp, name="scaled-dot",
    )


# ----------------------------------------------------------------------
# 2. Max-pooling attention: scores gate which neighbour dominates.
# ----------------------------------------------------------------------
def make_max_pool_spec() -> AttentionSpec:
    def psi(a, h, params, counter):
        # Tropical lifting: stored entries become the multiplicative
        # identity so A ⊕ H computes per-feature neighbourhood maxima.
        s = a.with_data(adjacency_values(TROPICAL_MAX, a.data))
        return s, None

    return AttentionSpec(psi=psi, name="max-pool")


def main() -> None:
    data = synthetic_classification(n=600, feature_dim=16, seed=3)
    k, classes = 16, data.num_classes

    # --- trainable custom model ---------------------------------------
    layers = [
        AttentionLayer(k, 32, make_scaled_dot_spec(np.sqrt(k)),
                       activation="relu", seed=0),
        AttentionLayer(32, classes, make_scaled_dot_spec(np.sqrt(32)),
                       activation="identity", seed=1),
    ]
    model = GnnModel(layers)
    trainer = Trainer(model, SoftmaxCrossEntropyLoss(data.train_mask),
                      Adam(0.01))
    result = trainer.fit(data.adjacency, data.features, data.labels,
                         epochs=50)
    acc = trainer.evaluate(
        data.adjacency, data.features, data.labels, data.test_mask
    )
    print("scaled dot-product attention (custom, trainable):")
    print(f"  loss {result.losses[0]:.3f} -> {result.final_loss:.3f}, "
          f"test accuracy {acc:.3f}")
    assert acc > 0.75

    # --- semiring aggregation model (inference) ------------------------
    # ⊕ and the Phi∘⊕ order are the layer's, not Psi's.
    max_layer = AttentionLayer(k, k, make_max_pool_spec(),
                               activation="identity",
                               order="aggregate_first",
                               aggregate=TROPICAL_MAX, seed=2,
                               dtype=np.float64)
    out, _ = max_layer.forward(
        data.adjacency, data.features.astype(np.float64), training=False
    )
    print("\nmax-pooling attention (tropical semiring):")
    print(f"  output shape {out.shape}, "
          f"finite: {bool(np.all(np.isfinite(out)))}")
    # Sanity: aggregated features dominate each neighbourhood's values.
    dense = data.adjacency.to_dense()
    v = 5
    neighbours = np.nonzero(dense[v])[0]
    expected = data.features[neighbours].max(axis=0) @ max_layer.weight
    assert np.allclose(out[v], expected, atol=1e-6)
    print("  vertex-5 aggregation equals its neighbourhood feature maxima")


if __name__ == "__main__":
    main()

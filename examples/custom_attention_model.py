#!/usr/bin/env python3
"""Programmability demo: design a new A-GNN from Psi / ⊕ / Phi.

The paper's generic formulation (Eq. 1) claims one can "easily design
an arbitrary A-GNN model by appropriately specifying Psi, ⊕, and Phi".
This example does exactly that, twice, on the same ``AttentionLayer``
class the built-in VA/AGNN/GAT/GCN models run on:

1. A *temperature-scaled dot-product* attention (a softmax'd VA — the
   transformer scoring rule on graphs), with a hand-written VJP, so the
   custom model is fully trainable.
2. A *max-pooling attention* variant whose aggregation runs over the
   tropical max-plus semiring (Section 4.3) — inference-only, since
   max-aggregation is not smooth.

Both reuse the library's fused SDDMM/softmax kernels; no new kernel
code is needed.

Run:
    python examples/custom_attention_model.py
"""

from __future__ import annotations

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.graphs import synthetic_classification
from repro.models import AttentionLayer, GnnModel
from repro.tensor.kernels import (
    masked_row_softmax_backward,
    sddmm_dot,
    spmm,
)
from repro.tensor.segment import segment_softmax
from repro.tensor.semiring import TROPICAL_MAX, adjacency_values
from repro.training import Adam, SoftmaxCrossEntropyLoss, Trainer


# ----------------------------------------------------------------------
# 1. Scaled dot-product attention: Psi = sm(A ⊙ (H H^T / sqrt(k)))
# ----------------------------------------------------------------------
def make_scaled_dot_spec(temperature: float) -> AttentionSpec:
    # A Psi is (A, X, params, counter) -> (S, cache); this one has no
    # parameters of its own and reads the layer input H.
    def psi(a, h, params, counter):
        scores = sddmm_dot(a, h, h, counter=counter) / temperature
        soft = segment_softmax(scores, a.indptr)
        s = a.with_data(soft)
        return s, {"a": a, "h": h, "soft": soft}

    # Its VJP is (dS, cache, counter) -> (dX, parameter gradients).
    def psi_vjp(ds_values, cache, counter):
        a, h = cache["a"], cache["h"]
        # Softmax backward, then the symmetric Gram-product backward —
        # all built from the library's Table-2 kernels.
        d_scores = masked_row_softmax_backward(
            cache["soft"], ds_values, a.indptr
        ) / temperature
        n_mat = a.with_data(d_scores)
        dh = spmm(n_mat, h, counter=counter)
        dh += spmm(n_mat.transpose(), h, counter=counter)
        return dh, {}

    return AttentionSpec(psi=psi, psi_vjp=psi_vjp, name="scaled-dot")


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

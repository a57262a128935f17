#!/usr/bin/env python3
"""Programmability demo: design a new A-GNN from Psi / ⊕ / Phi.

The paper's generic formulation (Eq. 1) claims one can "easily design
an arbitrary A-GNN model by appropriately specifying Psi, ⊕, and Phi".
This example does exactly that, twice, on the same ``AttentionLayer``
class the built-in VA/AGNN/GAT/GCN models run on:

1. A *temperature-scaled dot-product* attention (a softmax'd VA — the
   transformer scoring rule on graphs), written *once*, as the layer's
   global formulation in the op-DAG IR. ``lower_layer_dag`` derives
   everything else: the score kind the fused SDDMM → softmax → SpMM sweep
   computes, the dense operand prep ``H / T`` and its chain rule. No
   backward code and no distributed code is written: ``build_model``
   takes the spec where it takes a model name, and it trains full-batch,
   sampled, on a 2 x 2 grid of ranks and on the DistDGL-style local
   baseline, one call apart, to the same losses.
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

from repro.baselines import dist_local_train
from repro.core.formulation import AttentionSpec
from repro.distributed.api import distributed_train
from repro.fusion import OpDag, lower_layer_dag
from repro.graphs import synthetic_classification
from repro.models import AttentionLayer, build_model
from repro.tensor.semiring import TROPICAL_MAX, adjacency_values
from repro.training import SGD, MinibatchTrainer, SoftmaxCrossEntropyLoss, Trainer


# ----------------------------------------------------------------------
# 1. Scaled dot-product attention: Z = sm(A ⊙ (H / T) H^T) (H W)
# ----------------------------------------------------------------------
def make_scaled_dot_spec(temperature: float) -> AttentionSpec:
    dag = OpDag()
    h = dag.input("H", "nk")
    a = dag.input("A", "nn", sparse=True)
    w = dag.input("W", "kk")
    scores = dag.matmul(dag.scale(h, 1.0 / temperature), dag.transpose(h))
    e = dag.exp(dag.hadamard(a, scores))  # virtual n x n, sampled on A
    psi = dag.divide(e, dag.replicate(dag.row_sum(e)))  # graph softmax
    dag.set_output(dag.matmul(psi, dag.matmul(h, w)))
    return lower_layer_dag(dag, name="scaled-dot")


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
    a, x, y = data.adjacency, data.features.astype(np.float64), data.labels
    epochs, lr = 40, 0.5

    # --- trainable custom model: one spec, four engines -----------------
    # `build_model` takes the spec where it takes "GAT"; every engine that
    # takes a model name takes it too, so each run is one call apart.
    spec = make_scaled_dot_spec(np.sqrt(k))
    model = build_model(spec, k, 32, classes, num_layers=2, dtype=np.float64)
    trainer = Trainer(model, SoftmaxCrossEntropyLoss(data.train_mask), SGD(lr))
    single = trainer.fit(a, x, y, epochs=epochs).losses
    sampled = MinibatchTrainer(  # full fan-out, one batch of every labelled vertex
        build_model(spec, k, 32, classes, num_layers=2, dtype=np.float64),
        SoftmaxCrossEntropyLoss(), SGD(lr), fanouts=(None, None), batch_size=len(y),
        shuffle=False,
    ).fit(a, x, y, epochs=epochs, targets=data.train_mask, full_eval=False).losses
    grid = distributed_train(spec, a, x, y, 32, classes, num_layers=2, p=4, epochs=epochs,
                             lr=lr, mask=data.train_mask, seed=0, dtype=np.float64).losses
    local, _ = dist_local_train(spec, a, x, y, 32, classes, num_layers=2, p=4, epochs=epochs,
                                lr=lr, mask=data.train_mask, seed=0, dtype=np.float64)
    acc = trainer.evaluate(a, x, y, data.test_mask)
    print("scaled dot-product attention (one layer DAG, derived spec):")
    print(f"  loss {single[0]:.3f} -> {single[-1]:.3f}, "
          f"test accuracy {acc:.3f}")
    for engine, losses in [("sampled", sampled), ("p = 4, 1.5D", grid), ("p = 4, local", local)]:
        match = np.allclose(losses, single, rtol=1e-8, atol=0)
        print(f"  {engine} loss {losses[-1]:.3f}: loss match {'yes' if match else 'no'}")
        assert match
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

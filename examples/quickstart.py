#!/usr/bin/env python3
"""Quickstart: train a Graph Attention Network with global formulations.

Builds a synthetic node-classification problem (a stochastic block
model), trains a 2-layer GAT with the library's manually-derived
global-formulation backward pass, and evaluates accuracy — the
minimal end-to-end tour of the public API.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

from repro.graphs import synthetic_classification
from repro.models import build_model
from repro.tensor.kernels import backend
from repro.training import Adam, SoftmaxCrossEntropyLoss, Trainer


def main() -> None:
    # 1. A learnable dataset: 800 vertices, 4 planted communities,
    #    noisy class-prototype features.
    data = synthetic_classification(
        n=800, num_classes=4, feature_dim=16, mean_degree=10,
        homophily=0.85, seed=7,
    )
    print(
        f"graph: n={data.adjacency.shape[0]}, m={data.adjacency.nnz}, "
        f"classes={data.num_classes}"
    )
    # The attention sweep runs compiled where a C compiler exists, in
    # NumPy otherwise; this names the side this process got, and why.
    print("kernel backend: {} ({})".format(*backend()))

    # 2. A 2-layer GAT. `build_model` accepts "VA", "AGNN", "GAT", "GCN";
    #    every model exposes identical forward/backward interfaces.
    model = build_model(
        "GAT", in_dim=16, hidden_dim=32, out_dim=data.num_classes,
        num_layers=2, seed=0,
    )

    # 3. Full-batch training: each epoch is one forward + backward pass
    #    over the whole graph (the paper's Section-5 formulations).
    trainer = Trainer(
        model,
        SoftmaxCrossEntropyLoss(data.train_mask),
        Adam(lr=0.01),
    )
    result = trainer.fit(
        data.adjacency, data.features, data.labels,
        epochs=60,
        train_mask=data.train_mask,
        val_mask=data.val_mask,
        patience=10,
    )

    # 4. Evaluate.
    test_accuracy = trainer.evaluate(
        data.adjacency, data.features, data.labels, data.test_mask
    )
    print(f"trained for {len(result.losses)} epochs")
    print(f"final training loss: {result.final_loss:.4f}")
    print(f"test accuracy:       {test_accuracy:.3f}")
    assert test_accuracy > 0.8, "the SBM should be easily separable"


if __name__ == "__main__":
    main()

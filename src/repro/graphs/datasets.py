"""Synthetic labelled datasets for end-to-end training demonstrations.

The paper benchmarks runtime, with features and weights "generated
randomly"; examples and integration tests additionally need a task the
models can actually *learn*, so this module provides a planted-partition
(stochastic block model) node-classification dataset: vertices belong
to classes, intra-class edges are more likely than inter-class ones,
and features are noisy class prototypes. Attention models separate the
classes easily, which makes convergence assertions meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.prep import _graph_from_keys, prepare_adjacency
from repro.tensor.csr import CSRMatrix
from repro.util.rng import make_rng

__all__ = ["NodeClassificationData", "synthetic_classification"]


@dataclass
class NodeClassificationData:
    """A ready-to-train node-classification problem."""

    adjacency: CSRMatrix
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int


def synthetic_classification(
    n: int = 512,
    num_classes: int = 4,
    feature_dim: int = 16,
    mean_degree: float = 8.0,
    homophily: float = 0.8,
    noise: float = 1.0,
    train_fraction: float = 0.6,
    val_fraction: float = 0.2,
    seed: int | np.random.Generator | None = 0,
) -> NodeClassificationData:
    """Generate a stochastic-block-model classification dataset.

    Parameters
    ----------
    n, num_classes, feature_dim:
        Problem dimensions.
    mean_degree:
        Expected (directed) degree before symmetrisation.
    homophily:
        Fraction of edges that connect same-class vertices.
    noise:
        Standard deviation of Gaussian feature noise around the class
        prototype.
    train_fraction, val_fraction:
        Random split fractions; the remainder is the test set.
    """
    if not 0 < homophily <= 1:
        raise ValueError("homophily must be in (0, 1]")
    rng = make_rng(seed)
    labels = rng.integers(0, num_classes, n, dtype=np.int64)

    m = int(n * mean_degree)
    src = rng.integers(0, n, m, dtype=np.int64)
    same_class = rng.random(m) < homophily
    dst = np.empty(m, dtype=np.int64)
    # Homophilous edges: pick a random vertex of the same class.
    by_class = [np.flatnonzero(labels == c) for c in range(num_classes)]
    for c in range(num_classes):
        members = by_class[c]
        take = same_class & (labels[src] == c)
        if members.size and take.any():
            dst[take] = members[rng.integers(0, members.size, int(take.sum()))]
    # Heterophilous edges: uniform random endpoint.
    rest = ~same_class
    dst[rest] = rng.integers(0, n, int(rest.sum()), dtype=np.int64)
    # Same-class slots that found no members fall back to uniform.
    unfilled = same_class & (dst == 0) & (labels[src] != labels[0])
    dst[unfilled] = rng.integers(0, n, int(unfilled.sum()), dtype=np.int64)

    src *= n
    src += dst
    adjacency = prepare_adjacency(_graph_from_keys(src, n, rng))

    prototypes = rng.normal(0, 1, (num_classes, feature_dim))
    features = (
        prototypes[labels] + noise * rng.normal(0, 1, (n, feature_dim))
    ).astype(np.float32)

    order = rng.permutation(n)
    n_train = int(train_fraction * n)
    n_val = int(val_fraction * n)
    train_mask = np.zeros(n, dtype=bool)
    val_mask = np.zeros(n, dtype=bool)
    test_mask = np.zeros(n, dtype=bool)
    train_mask[order[:n_train]] = True
    val_mask[order[n_train : n_train + n_val]] = True
    test_mask[order[n_train + n_val :]] = True

    return NodeClassificationData(
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        num_classes=num_classes,
    )

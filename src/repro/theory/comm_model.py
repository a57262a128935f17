"""Closed-form communication-volume predictors (Section 7).

The paper's bounds, per GNN layer, in words (fp32):

* **Global formulation** (Section 7.1): :math:`O(nk/\\sqrt{p} + k^2)`
  — feature-block broadcasts/reductions along the grid plus replicated
  parameter traffic.
* **Local formulation** (message passing): up to
  :math:`\\Omega(nkd/p + k^2)` — each of the :math:`n/p` owned vertices
  needs its (up to :math:`d`) neighbours' :math:`k`-word features.
* **Erdős–Rényi** (Section 7.3): with edge probability :math:`q`, the
  local volume concentrates at :math:`O(n^2 k q / p)` (every remote
  vertex is a neighbour of some owned vertex once :math:`nq/p` is
  large, capping at :math:`nk` per rank — the predictor takes the
  exact expectation below); the global formulation wins whenever
  :math:`q > \\sqrt{p}/n`.

Besides the asymptotic forms, :func:`exact_local_halo_words` computes
the *exact* per-rank halo volume of our DistDGL-like engine for a given
graph and partition, so the verification benchmark can assert
measured == predicted, not merely "same shape".
"""

from __future__ import annotations

import numpy as np

from repro.distributed.partition import block_range
from repro.tensor.csr import CSRMatrix

__all__ = [
    "global_layer_words",
    "erdos_renyi_local_words",
    "exact_local_halo_words",
    "crossover_density",
    "predict_training_words",
]


def global_layer_words(
    n: int,
    k: int,
    p: int,
    model: str = "gat",
    training: bool = False,
    constant: float = 1.0,
) -> float:
    """Per-layer volume of the global formulation, in words.

    Implements :math:`c \\cdot (nk/\\sqrt{p} + k^2 \\log_2 p)` with a
    model-dependent constant reflecting how many feature-block-sized
    transfers the layer performs (broadcast, reduce-scatter, exchange;
    roughly doubled for training). For ``p == 1`` the volume is zero.
    """
    if p <= 1:
        return 0.0
    # Feature-block transfers per layer (see distributed.layers table):
    # GCN's reduce-scatter + exchange; an attention layer adds the
    # diagonal broadcast (~2 with the tree algorithm).
    transfers = 2.0 if model.lower() == "gcn" else 4.0
    if training:
        transfers *= 2.5  # g broadcast, two allreduces, transpose swap
    log_p = max(np.log2(p), 1.0)
    return constant * (
        transfers * n * k / np.sqrt(p) + (k * k) * log_p
    )


def erdos_renyi_local_words(
    n: int, k: int, p: int, q: float, constant: float = 1.0
) -> float:
    """Expected per-layer halo volume on :math:`G_{n,q}` (Section 7.3).

    A remote vertex ``u`` is fetched by rank ``r`` iff ``u`` neighbours
    at least one of the rank's :math:`n/p` owned vertices (symmetric
    edges ⇒ probability :math:`1 - (1-q')^{n/p}` with
    :math:`q' = 1-(1-q)^2 \\approx 2q`). Expected words:

    .. math:: k \\cdot n\\frac{p-1}{p}\\left(1 - (1 - q')^{n/p}\\right)

    which is :math:`\\Theta(n^2 k q / p)` for small :math:`q` and
    saturates at :math:`nk` for dense graphs.
    """
    if p <= 1:
        return 0.0
    own = n / p
    q_sym = 1.0 - (1.0 - q) ** 2
    prob = 1.0 - (1.0 - q_sym) ** own
    return constant * k * n * (p - 1) / p * prob


def exact_local_halo_words(a: CSRMatrix, p: int, k: int) -> int:
    """Exact max-per-rank halo words of the 1D-partitioned local engine.

    For each rank, counts the distinct out-of-block column indices of
    its owned rows (features fetched) — the words *sent* by the owners;
    the BSP metric is the maximum over senders, which we compute by
    attributing each fetched vertex to its owner.
    """
    n = a.shape[0]
    sent_by = np.zeros(p, dtype=np.int64)
    for r in range(p):
        r0, r1 = block_range(n, p, r)
        start, stop = a.indptr[r0], a.indptr[r1]
        cols = a.indices[start:stop]
        remote = np.unique(cols[(cols < r0) | (cols >= r1)])
        owners = np.minimum(remote * p // max(n, 1), p - 1)
        # Exact owner lookup (block_range may be uneven): correct owners
        # by searchsorted against boundaries.
        bounds = np.array([block_range(n, p, s)[0] for s in range(p)] + [n])
        owners = np.searchsorted(bounds, remote, side="right") - 1
        np.add.at(sent_by, owners, 1)
    return int(sent_by.max()) * k


def crossover_density(n: int, p: int) -> float:
    """The Section-7.3 density above which the global view wins:
    :math:`q > \\sqrt{p}/n`."""
    return float(np.sqrt(p) / n)


def predict_training_words(
    n: int,
    k: int,
    p: int,
    layers: int,
    model: str = "gat",
) -> float:
    """End-to-end per-iteration volume of the global formulation
    (forward + backward, all layers)."""
    return layers * global_layer_words(n, k, p, model=model, training=True)

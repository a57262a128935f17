"""GCN — the C-GNN special case used in Section 8.4's verification.

A C-GNN layer is :math:`\\sigma(\\mathcal{A} H W)` with a *fixed*,
pre-normalised adjacency matrix taking the place of :math:`\\Psi`
(Section 4.4: "once :math:`\\Psi` is computed, the same execution
strategies can be applied to C-GNN and A-GNN models"). One inference
layer is a single SpMM plus one MM, which is why the paper uses it to
isolate the communication behaviour of the substrate. The layer itself
is :class:`repro.models.attention.AttentionLayer` with the constant
``GCN`` spec; what GCN adds is the normalisation below.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.csr import CSRMatrix

__all__ = ["normalize_adjacency"]


def normalize_adjacency(
    a: CSRMatrix, mode: str = "sym", add_self_loops: bool = True
) -> CSRMatrix:
    """GCN-style degree normalisation of the adjacency matrix.

    ``"sym"`` produces :math:`D^{-1/2}(A + I)D^{-1/2}` (Kipf–Welling);
    ``"row"`` produces the random-walk normalisation
    :math:`D^{-1}(A + I)`; ``"none"`` only (optionally) adds self loops.
    """
    if mode not in ("sym", "row", "none"):
        raise ValueError("mode must be 'sym', 'row' or 'none'")
    if add_self_loops:
        if a.shape[0] != a.shape[1]:
            raise ValueError("self loops require a square matrix")
        n = a.shape[0]
        rows = a.expand_rows()
        off = rows != a.indices
        diag = np.arange(n, dtype=np.int64)
        a = CSRMatrix.from_entries(
            np.concatenate([rows[off], diag]),
            np.concatenate([a.indices[off], diag]),
            np.concatenate([a.data[off], np.ones(n, a.dtype)]),
            a.shape,
        )
    if mode == "none":
        return a
    deg = a.row_sum().astype(np.float64)
    rows = a.expand_rows()
    if mode == "row":
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1e-12), 0.0)
        return a.with_data(a.data * inv.astype(a.dtype)[rows])
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    inv_sqrt = inv_sqrt.astype(a.dtype)
    return a.with_data(a.data * inv_sqrt[rows] * inv_sqrt[a.indices])

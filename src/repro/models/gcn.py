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
        a = a.to_coo().add_self_loops().to_csr()
    if mode == "none":
        return a
    deg = a.row_sum().astype(np.float64)
    if mode == "row":
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1e-12), 0.0)
        return a.scale_rows(inv.astype(a.dtype))
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    inv_sqrt = inv_sqrt.astype(a.dtype)
    return a.scale_rows(inv_sqrt).scale_cols(inv_sqrt)

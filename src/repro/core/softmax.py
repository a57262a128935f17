"""Global formulation of the graph softmax (Section 4.2).

The paper derives

.. math:: \\mathrm{sm}(\\mathcal{X}) = \\exp(\\mathcal{X}) \\oslash
          \\mathrm{rs}_n(\\exp(\\mathcal{X}))

— element-wise exponentiation, row sums via multiplication with a
column of ones, replication via a row of ones, and Hadamard division.
Two implementations are provided:

* :func:`graph_softmax_dense` follows the four derivation steps
  literally on a dense masked matrix. It materialises the replicated
  denominator and serves as the executable specification.
* :func:`graph_softmax` is the production path on CSR attention
  matrices; the replicated :math:`n \\times n` denominator stays
  *virtual* (Section 6.1) and only stored entries are touched.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import rep, sum_rows
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import masked_row_softmax

__all__ = ["graph_softmax", "graph_softmax_dense"]


def graph_softmax_dense(
    x: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Literal four-step dense graph softmax (reference semantics).

    Parameters
    ----------
    x:
        Dense score matrix.
    mask:
        Boolean matrix of stored positions (the adjacency pattern).
        Entries outside the mask take no part in normalisation and are
        zero in the output. With ``mask=None`` all entries participate.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[1]
    if mask is None:
        mask = np.ones_like(x, dtype=bool)
    # Step (1): element-wise exponentiation of the stored entries.
    exp = np.where(mask, np.exp(x), 0.0)
    # Step (2): row sums — multiplication by a column vector of ones.
    row = sum_rows(exp)
    # Step (3): replication — multiplication by a row vector of ones.
    denom = rep(row, n)
    # Step (4): element-wise Hadamard division.
    safe = np.where(denom == 0, 1.0, denom)
    return np.where(mask, exp / safe, 0.0)


def graph_softmax(s: CSRMatrix) -> CSRMatrix:
    """Sparse graph softmax: normalise each row's stored entries.

    Equivalent to :func:`graph_softmax_dense` restricted to the
    pattern, but never materialises the virtual replicated denominator.
    Numerically stabilised with a per-row max shift (which cancels in
    the softmax).

    Head-batched matrices carrying stacked ``(nnz, heads)`` values are
    normalised per head in the same sweep — head ``i`` of the result
    equals the scalar softmax of head ``i``'s values.
    """
    return masked_row_softmax(s)

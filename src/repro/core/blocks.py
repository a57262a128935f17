"""Tensor-algebra building blocks of Table 2.

These are the expressions the paper identifies as the vocabulary of
global GNN formulations: replication ``rep``, row summation ``sum``,
their composition ``rs``, the symmetrisation :math:`X + X^T` and the
Gram product :math:`X X^T`. Expressing everything through these blocks
is what lets a formulation be handed to any tensor DSL (GraphBLAS,
CTF, ...) unchanged; here they double as the reference semantics that
the fused sparse kernels are tested against.

Dense variants materialise their results and are therefore only used on
small inputs (tests, the tiled ablation executor); production paths use
the sampled/sparse counterparts in :mod:`repro.tensor.kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.coo import COOMatrix
from repro.tensor.csr import CSRMatrix
from repro.tensor.segment import bincount_sum

__all__ = [
    "rep",
    "rep_t",
    "sum_rows",
    "sum_cols",
    "rs",
    "gram",
    "matrix_plus_transpose",
]


def rep(x: np.ndarray, i: int) -> np.ndarray:
    """Replication ``rep_i(x) = x 1^T``: tile column vector ``x`` i times.

    Returns an ``(len(x), i)`` matrix whose columns are all ``x``.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("rep expects a 1-D vector")
    return np.broadcast_to(x[:, None], (x.shape[0], i)).copy()


def rep_t(x: np.ndarray, i: int) -> np.ndarray:
    """Transposed replication ``rep_i^T(x) = 1 x^T``: rows are all ``x``."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("rep_t expects a 1-D vector")
    return np.broadcast_to(x[None, :], (i, x.shape[0])).copy()


def sum_rows(x: np.ndarray | CSRMatrix) -> np.ndarray:
    """Row summation ``sum(X) = X 1`` (a column vector of row sums)."""
    if isinstance(x, CSRMatrix):
        return x.row_sum()
    return np.asarray(x).sum(axis=1)


def sum_cols(x: np.ndarray | CSRMatrix) -> np.ndarray:
    """Column summation ``sum^T(X) = 1^T X`` (a row vector of column sums)."""
    if isinstance(x, CSRMatrix):
        return bincount_sum(x.indices, x.data, x.shape[1])
    return np.asarray(x).sum(axis=0)


def rs(x: np.ndarray | CSRMatrix, i: int) -> np.ndarray:
    """Composition ``rs_i(X) = rep_i(sum(X))`` — multiply by a ones matrix.

    Each row of the result holds ``i`` copies of that row's sum.
    """
    return rep(sum_rows(x), i)


def gram(x: np.ndarray) -> np.ndarray:
    """Gram product :math:`X_\\times = X X^T` (dense; reference use)."""
    x = np.asarray(x)
    return x @ x.T


def matrix_plus_transpose(x: np.ndarray | CSRMatrix) -> np.ndarray | CSRMatrix:
    """Symmetrisation :math:`X_+ = X + X^T` (Table 2, new block).

    Dispatches on the input type: sparse inputs stay sparse (entries
    of both merged by summation), dense inputs use NumPy broadcasting.
    """
    if isinstance(x, CSRMatrix):
        if x.shape[0] != x.shape[1]:
            raise ValueError("X + X^T requires a square matrix")
        t = x.transpose()
        both = COOMatrix(
            np.concatenate([x.expand_rows(), t.expand_rows()]),
            np.concatenate([x.indices, t.indices]),
            np.concatenate([x.data, t.data]),
            shape=x.shape,
        )
        return CSRMatrix.from_entries(both.rows, both.cols, both.data, x.shape)
    x = np.asarray(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError("X + X^T requires a square matrix")
    return x + x.T

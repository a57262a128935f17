"""Test oracle: a rectangular hop lifted to the square frame of its sources.

A hop's matrix has one row per destination over its source columns; the
square layout sampled blocks used to have keeps the same entries in the
destinations' rows of a ``(num_src, num_src)`` matrix and leaves every
other row empty. Every layer computed on the square lift, sliced at the
destinations, is the oracle for the same layer computed on the hop. Built
from the entries' row coordinates, sharing no code with
``CSRMatrix.lift_rows``.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.csr import CSRMatrix


def square_hop(matrix: CSRMatrix, rows: np.ndarray) -> CSRMatrix:
    """``matrix`` (row ``i`` the in-edges of destination ``rows[i]``) as the
    square matrix whose row ``rows[i]`` holds them and whose other rows are
    empty; ``rows`` must be strictly increasing, so entries keep their order."""
    rows = np.asarray(rows, dtype=np.int64)
    num_src = matrix.shape[1]
    assert rows.shape == (matrix.shape[0],) and np.all(np.diff(rows) > 0)
    entry_rows = rows[np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))]
    counts = np.bincount(entry_rows, minlength=num_src)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRMatrix(indptr, matrix.indices.copy(), matrix.data, (num_src, num_src))

"""Coordinate-format (COO) sparse matrices.

COO is the construction format: graph generators emit edge lists, which
are deduplicated and sorted here before conversion to CSR for compute.
All heavy operations are vectorised NumPy; no Python-level per-edge
loops appear on any hot path (see the HPC guide: vectorise, avoid
copies, prefer in-place ops).
"""

from __future__ import annotations

import numpy as np

__all__ = ["COOMatrix"]


def _run_starts(key: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in sorted ``key``."""
    first = np.empty(key.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


class COOMatrix:
    """A sparse matrix in coordinate format.

    Parameters
    ----------
    rows, cols:
        Integer arrays of equal length holding the coordinates of the
        stored entries.
    data:
        Values of the stored entries. If ``None``, an all-ones pattern
        matrix is created (the adjacency-matrix case).
    shape:
        ``(n_rows, n_cols)``.
    dedup:
        If ``True`` (default), duplicate coordinates are combined by
        *summing* their values, matching the artifact's Kronecker
        post-processing ("removing duplicate edges").

    Notes
    -----
    The class stores entries in canonical order (row-major, then column)
    after :meth:`canonicalize` — conversion to CSR requires this.
    """

    __slots__ = ("rows", "cols", "data", "shape", "_canonical")

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray | None = None,
        shape: tuple[int, int] | None = None,
        dedup: bool = True,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.ndim != 1 or cols.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be equal-length 1-D arrays")
        if data is None:
            data = np.ones(rows.shape[0], dtype=dtype)
        else:
            data = np.asarray(data)
            if data.shape != rows.shape:
                raise ValueError("data must have the same length as rows/cols")
        if shape is None:
            n_r = int(rows.max()) + 1 if rows.size else 0
            n_c = int(cols.max()) + 1 if cols.size else 0
            shape = (n_r, n_c)
        if rows.size:
            if rows.min() < 0 or cols.min() < 0:
                raise ValueError("negative indices are not allowed")
            if rows.max() >= shape[0] or cols.max() >= shape[1]:
                raise ValueError("index exceeds matrix shape")
        self.rows = rows
        self.cols = cols
        self.data = data
        self.shape = (int(shape[0]), int(shape[1]))
        self._canonical = False
        if dedup:
            self.canonicalize()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.rows.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"

    # ------------------------------------------------------------------
    # Canonicalisation
    # ------------------------------------------------------------------
    def canonicalize(self) -> "COOMatrix":
        """Sort entries row-major and merge duplicates by summation.

        Idempotent; returns ``self`` for chaining.
        """
        if self._canonical:
            return self
        if self.nnz == 0:
            self._canonical = True
            return self
        # Linearised key guarantees a total row-major order.
        key = self.rows * np.int64(self.shape[1]) + self.cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        data = self.data[order]
        # Merge duplicates: boundaries where the key changes.
        starts = np.flatnonzero(_run_starts(key))
        merged = np.add.reduceat(data, starts)
        unique_key = key[starts]
        self.rows = unique_key // self.shape[1]
        self.cols = unique_key % self.shape[1]
        self.data = merged.astype(data.dtype, copy=False)
        self._canonical = True
        return self

    # ------------------------------------------------------------------
    # Edge keys: ``row * n_cols + col`` sorts like the canonical order
    # ------------------------------------------------------------------
    @staticmethod
    def unique_keys(key: np.ndarray) -> np.ndarray:
        """Sort int64 ``key`` in place and drop repeats.

        Returns ``key`` itself when nothing repeats.
        """
        key.sort()
        first = _run_starts(key)
        return key if first.all() else key[first]

    def sorted_keys(self) -> np.ndarray:
        """A new sorted, repeat-free array of the entries' keys.

        A canonical matrix is not sorted again.
        """
        key = self.rows * np.int64(self.shape[1])
        key += self.cols
        return key if self._canonical else self.unique_keys(key)

    @classmethod
    def from_sorted_keys(
        cls,
        key: np.ndarray,
        shape: tuple[int, int],
        dtype: np.dtype | type = np.float32,
    ) -> "COOMatrix":
        """The canonical all-ones matrix of sorted, repeat-free ``key``.

        ``key`` is overwritten: it becomes the row array.
        """
        cols = key % shape[1]
        key //= shape[1]
        out = cls(key, cols, None, shape=shape, dedup=False, dtype=dtype)
        out._canonical = True
        return out

    # ------------------------------------------------------------------
    # Structural transforms
    # ------------------------------------------------------------------
    def transpose(self) -> "COOMatrix":
        """Return the transpose as a new canonical COO matrix."""
        return COOMatrix(
            self.cols.copy(),
            self.rows.copy(),
            self.data.copy(),
            shape=(self.shape[1], self.shape[0]),
        )

    def symmetrize(self) -> "COOMatrix":
        """Return the pattern-symmetrised matrix ``sign(X + X^T)``.

        Used on generated graphs to model undirected edges; values are
        reset to ones (an adjacency pattern), matching the paper's
        pre-normalisation adjacency matrix.
        """
        if self.shape[0] != self.shape[1]:
            raise ValueError("symmetrize requires a square matrix")
        rows = np.concatenate([self.rows, self.cols])
        cols = np.concatenate([self.cols, self.rows])
        out = COOMatrix(rows, cols, None, shape=self.shape, dtype=self.dtype)
        out.data = np.ones(out.nnz, dtype=self.dtype)
        return out

    def remove_self_loops(self) -> "COOMatrix":
        """Return a copy without diagonal entries."""
        keep = self.rows != self.cols
        out = COOMatrix(
            self.rows[keep],
            self.cols[keep],
            self.data[keep],
            shape=self.shape,
            dedup=not self._canonical,
        )
        out._canonical = True  # a subset of sorted entries stays sorted
        return out

    def add_self_loops(self, value: float = 1.0) -> "COOMatrix":
        """Return a copy with the full diagonal present (set to ``value``).

        Existing diagonal entries are overwritten, not accumulated —
        models such as GAT attend over ``N(v) ∪ {v}``, where the self
        edge must appear exactly once.
        """
        if self.shape[0] != self.shape[1]:
            raise ValueError("add_self_loops requires a square matrix")
        base = self.remove_self_loops()
        n = self.shape[0]
        diag = np.arange(n, dtype=np.int64)
        rows = np.concatenate([base.rows, diag])
        cols = np.concatenate([base.cols, diag])
        data = np.concatenate(
            [base.data, np.full(n, value, dtype=self.dtype)]
        )
        return COOMatrix(rows, cols, data, shape=self.shape)

    # ------------------------------------------------------------------
    # Dense interop (test/reference use only — O(n^2) memory)
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array. Reference/testing use only."""
        out = np.zeros(self.shape, dtype=self.dtype)
        np.add.at(out, (self.rows, self.cols), self.data)
        return out

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build from a dense array, storing the nonzero entries."""
        dense = np.asarray(dense)
        rows, cols = np.nonzero(dense)
        return cls(rows, cols, dense[rows, cols], shape=dense.shape)

    def to_csr(self) -> "CSRMatrix":
        """Convert to CSR (the compute format)."""
        from repro.tensor.csr import CSRMatrix

        self.canonicalize()
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(self.row_degrees(), out=indptr[1:])
        return CSRMatrix(
            indptr, self.cols.copy(), self.data.copy(), shape=self.shape
        )

    # ------------------------------------------------------------------
    # Degree statistics (used by theory predictors and preprocessing)
    # ------------------------------------------------------------------
    def row_degrees(self) -> np.ndarray:
        """Number of stored entries per row."""
        return np.bincount(self.rows, minlength=self.shape[0])

    def col_degrees(self) -> np.ndarray:
        """Number of stored entries per column."""
        return np.bincount(self.cols, minlength=self.shape[1])

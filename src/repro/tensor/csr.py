"""Compressed sparse row (CSR) matrices.

CSR is the compute format of the library: the adjacency matrix
:math:`\\mathcal{A}` and every attention-score matrix
:math:`\\Psi(\\mathcal{A}, H)` (which shares A's sparsity pattern) are
stored in CSR. The format is three NumPy arrays — ``indptr``,
``indices``, ``data`` — exactly as in scipy, but implemented from
scratch so that semiring products and fused attention kernels can work
directly on the raw arrays.

Every matrix carries a :class:`~repro.tensor.structure.PatternStructure`
interned on the identity of its ``(indptr, indices)`` arrays: matrices
derived via :meth:`CSRMatrix.with_data` / :meth:`CSRMatrix.astype` /
:meth:`CSRMatrix.scale_rows` share the structure object, so
``expand_rows``, ``transpose_permutation``, the transposed pattern and
the scipy view are computed at most once per sparsity pattern per
process. The index arrays are frozen (read-only) on construction —
``data`` remains writable.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.segment import ragged_ranges
from repro.tensor.structure import (
    PatternStructure,
    intern_structure,
    lookup_structure,
)

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A sparse matrix in compressed sparse row format.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n_rows + 1``; row ``i`` owns entries
        ``indptr[i]:indptr[i+1]``. Frozen (made read-only) on
        construction.
    indices:
        Column index of each stored entry, row-major sorted. Frozen on
        construction.
    data:
        Value of each stored entry (stays writable). Either a scalar
        per entry — shape ``(nnz,)`` — or a stacked per-head value
        vector — shape ``(nnz, heads)`` — for the batched multi-head
        kernels; all structural operations act on the leading (entry)
        axis only.
    shape:
        ``(n_rows, n_cols)``.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_structure")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data)
        shape = (int(shape[0]), int(shape[1]))
        if indices.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if data.ndim not in (1, 2) or data.shape[0] != indices.shape[0]:
            raise ValueError(
                "data must be (nnz,) or (nnz, heads) matching indices length"
            )
        # An interned structure means these exact arrays already passed
        # validation for this shape (and cannot have been mutated since:
        # they are frozen), so the O(n + nnz) checks are skipped.
        structure = lookup_structure(indptr, indices, shape)
        if structure is None:
            if indptr.ndim != 1 or indptr.shape[0] != shape[0] + 1:
                raise ValueError("indptr must have length n_rows + 1")
            if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
                raise ValueError("indptr endpoints inconsistent with indices")
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if indices.size and (
                indices.min() < 0 or indices.max() >= shape[1]
            ):
                raise ValueError("column index out of range")
            structure = intern_structure(indptr, indices, shape)
        self.indptr = structure.indptr
        self.indices = structure.indices
        self.data = data
        self.shape = shape
        self._structure = structure

    @classmethod
    def _from_structure(
        cls, structure: PatternStructure, data: np.ndarray
    ) -> "CSRMatrix":
        """Construct over an already-interned structure (no validation)."""
        data = np.asarray(data)
        if data.ndim not in (1, 2) or data.shape[0] != structure.indices.shape[0]:
            raise ValueError(
                f"data shape {data.shape} does not match pattern nnz "
                f"{structure.indices.shape}"
            )
        obj = cls.__new__(cls)
        obj.indptr = structure.indptr
        obj.indices = structure.indices
        obj.data = data
        obj.shape = structure.shape
        obj._structure = structure
        return obj

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def structure(self) -> PatternStructure:
        """The interned structure cache shared by all same-pattern matrices."""
        return self._structure

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"

    def row_lengths(self) -> np.ndarray:
        """Stored entries per row (the out-degree for adjacency input).

        Cached per pattern; the returned array is read-only.
        """
        return self._structure.row_lengths()

    def expand_rows(self) -> np.ndarray:
        """Row index of every stored entry (COO row vector).

        The workhorse of every edge-wise (SDDMM-like) kernel. Cached
        per pattern; the returned array is read-only.
        """
        return self._structure.expand_rows()

    def degree_stats(self):
        """Row-length summary statistics (cached per pattern).

        See :meth:`repro.tensor.structure.PatternStructure.degree_stats`.
        """
        return self._structure.degree_stats()

    # ------------------------------------------------------------------
    # Same-pattern value algebra
    # ------------------------------------------------------------------
    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        """A new matrix sharing this pattern with different values.

        Attention matrices :math:`\\Psi` always share the adjacency
        pattern (Section 6.2: "the output almost always has the same
        sparsity pattern as the adjacency matrix"), so this is the main
        constructor on the attention path. ``indptr``/``indices`` — and
        the structure cache — are shared, not copied.
        """
        return CSRMatrix._from_structure(self._structure, data)

    def scale_rows(self, row_factors: np.ndarray) -> "CSRMatrix":
        """Multiply each row by a scalar: ``diag(f) @ X`` (same pattern)."""
        row_factors = np.asarray(row_factors)
        if row_factors.shape != (self.shape[0],):
            raise ValueError("row_factors must have length n_rows")
        factors = row_factors[self.expand_rows()]
        if self.data.ndim == 2:
            factors = factors[:, None]
        return self.with_data(self.data * factors)

    def scale_cols(self, col_factors: np.ndarray) -> "CSRMatrix":
        """Multiply each column by a scalar: ``X @ diag(f)`` (same pattern)."""
        col_factors = np.asarray(col_factors)
        if col_factors.shape != (self.shape[1],):
            raise ValueError("col_factors must have length n_cols")
        factors = col_factors[self.indices]
        if self.data.ndim == 2:
            factors = factors[:, None]
        return self.with_data(self.data * factors)

    def row_sum(self) -> np.ndarray:
        """Per-row sum of stored values — ``sum(X) = X @ 1`` of Table 2."""
        from repro.tensor.segment import segment_sum

        return segment_sum(self.data, self.indptr)

    def col_sum(self) -> np.ndarray:
        """Per-column sum of stored values — ``sum^T(X) = 1^T X``.

        Uses ``np.bincount`` (a single C pass) rather than the much
        slower ``np.add.at`` scatter; accumulation happens in float64
        and the result is cast back to the value dtype.
        """
        from repro.tensor.segment import bincount_sum

        return bincount_sum(self.indices, self.data, self.shape[1])

    # ------------------------------------------------------------------
    # Structural transforms
    # ------------------------------------------------------------------
    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a new CSR matrix.

        The transposed pattern and the entry permutation are cached per
        structure (O(nnz) counting sort on first use, then free), so
        repeated backward-pass transposes only pay the O(nnz) value
        permutation.
        """
        structure_t = self._structure.transpose()
        perm = self._structure.transpose_permutation()
        return CSRMatrix._from_structure(structure_t, self.data[perm])

    def transpose_permutation(self) -> np.ndarray:
        """Permutation ``p`` such that entry ``i`` of ``X^T`` (row-major
        order of the transpose) is entry ``p[i]`` of ``X``.

        Backward passes repeatedly need values of :math:`\\Psi^T`; with
        this permutation they are a single fancy-index away instead of a
        full re-transposition. Cached per pattern (read-only).
        """
        return self._structure.transpose_permutation()

    def lift_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """The square ``(m, m)`` matrix, ``m`` this one's column count,
        whose row ``rows[i]`` is row ``i`` of this one and whose other rows
        are empty: a hop that keeps the source rows ``rows`` (ascending,
        one per row), in the frame of its sources. Entries keep their order,
        so values and any per-entry array stay aligned."""
        m = self.shape[1]
        indptr = np.zeros(m + 1, dtype=np.int64)
        indptr[np.asarray(rows) + 1] = self.row_lengths()
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(indptr, self.indices, self.data, (m, m))

    def extract_block(
        self, r0: int, r1: int, c0: int, c1: int
    ) -> "CSRMatrix":
        """Extract the dense-index block ``[r0:r1, c0:c1]`` as CSR.

        Used by the 2D partitioner: each rank of the ``Px × Py`` grid
        stores one such block of :math:`\\mathcal{A}` (Section 6.3).
        """
        if not (0 <= r0 <= r1 <= self.shape[0]):
            raise ValueError("row range out of bounds")
        if not (0 <= c0 <= c1 <= self.shape[1]):
            raise ValueError("column range out of bounds")
        from repro.tensor.segment import segment_sum

        start, stop = self.indptr[r0], self.indptr[r1]
        cols = self.indices[start:stop]
        mask = (cols >= c0) & (cols < c1)
        # Per-row counts of surviving entries, via segment sums of the mask.
        seg = self.indptr[r0 : r1 + 1] - start
        counts = segment_sum(mask.astype(np.int64), seg)
        local_indptr = np.zeros(r1 - r0 + 1, dtype=np.int64)
        local_indptr[1:] = np.cumsum(counts)
        return CSRMatrix(
            local_indptr,
            cols[mask] - c0,
            self.data[start:stop][mask],
            (r1 - r0, c1 - c0),
        )

    def extract_submatrix(self, vertices: np.ndarray) -> "CSRMatrix":
        """Induced square submatrix on a sorted vertex subset.

        Rows and columns are restricted to ``vertices`` (strictly
        increasing global ids) and relabelled to ``[0, len(vertices))``.
        Used by the mini-batch baseline to build sampled training
        blocks.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and np.any(np.diff(vertices) <= 0):
            raise ValueError("vertices must be strictly increasing")
        nv = vertices.shape[0]
        starts = self.indptr[vertices]
        lengths = self.indptr[vertices + 1] - starts
        gather = ragged_ranges(starts, lengths)
        cols = self.indices[gather]
        data = self.data[gather]
        row_of_entry = np.repeat(np.arange(nv, dtype=np.int64), lengths)
        # Keep entries whose column is in the subset; remap both axes.
        pos = np.searchsorted(vertices, cols)
        pos_clipped = np.minimum(pos, max(nv - 1, 0))
        keep = nv > 0 and vertices[pos_clipped] == cols
        keep = np.asarray(keep, dtype=bool) & (pos < nv)
        new_rows = row_of_entry[keep]
        new_cols = pos_clipped[keep]
        indptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_rows, minlength=nv), out=indptr[1:])
        return CSRMatrix(indptr, new_cols, data[keep], (nv, nv))

    # ------------------------------------------------------------------
    # Elementwise combination (general pattern)
    # ------------------------------------------------------------------
    def add(self, other: "CSRMatrix") -> "CSRMatrix":
        """Entry-wise sum with another CSR matrix (patterns may differ)."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch in CSR add")
        from repro.tensor.coo import COOMatrix

        rows = np.concatenate([self.expand_rows(), other.expand_rows()])
        cols = np.concatenate([self.indices, other.indices])
        data = np.concatenate(
            [self.data, other.data.astype(self.data.dtype, copy=False)]
        )
        return COOMatrix(rows, cols, data, shape=self.shape).to_csr()

    def hadamard_same_pattern(self, other: "CSRMatrix") -> "CSRMatrix":
        """Entry-wise product assuming identical patterns (checked cheaply)."""
        if self.shape != other.shape or self.nnz != other.nnz:
            raise ValueError("pattern mismatch in hadamard_same_pattern")
        return self.with_data(self.data * other.data)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_coo(self) -> "COOMatrix":
        from repro.tensor.coo import COOMatrix

        out = COOMatrix(
            self.expand_rows().copy(),
            self.indices.copy(),
            self.data.copy(),
            shape=self.shape,
            dedup=False,
        )
        out._canonical = True
        return out

    def to_dense(self) -> np.ndarray:
        """Materialise as dense. Reference/testing use only.

        Head-batched matrices yield ``(n, m, heads)``.
        """
        out = np.zeros(self.shape + self.data.shape[1:], dtype=self.dtype)
        out[self.expand_rows(), self.indices] = self.data
        return out

    def to_scipy(self):
        """View as ``scipy.sparse.csr_matrix`` (shares buffers).

        The scipy wrapper (including its int32 index downcast) is built
        once per pattern and shallow-cloned per call. Only scalar edge
        values have a scipy counterpart; head-batched matrices must go
        through the head-interleaved view used by the batched SpMM.
        """
        if self.data.ndim != 1:
            raise ValueError(
                "to_scipy requires scalar edge values; head-batched "
                "matrices use structure.head_scipy_view"
            )
        return self._structure.scipy_view(self.data)

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any scipy sparse matrix."""
        mat = mat.tocsr()
        if not mat.has_sorted_indices:
            mat = mat.copy()
            mat.sort_indices()
        return cls(
            mat.indptr.astype(np.int64),
            mat.indices.astype(np.int64),
            np.array(mat.data),
            mat.shape,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        from repro.tensor.coo import COOMatrix

        return COOMatrix.from_dense(dense).to_csr()

    def astype(self, dtype) -> "CSRMatrix":
        """Pattern-sharing cast of the values."""
        return self.with_data(self.data.astype(dtype))

    def copy(self) -> "CSRMatrix":
        """An independent copy: fresh data *and* fresh index arrays.

        The copy deliberately does not share this matrix's structure
        cache (its index arrays are new objects), which also makes it
        the way to obtain a cache-cold matrix in tests.
        """
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape
        )

"""Unit tests for the CSR sparse format."""

import numpy as np
import pytest

from repro.tensor.csr import CSRMatrix
from tests.conftest import random_csr


class TestValidation:
    def test_rejects_bad_indptr_length(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 2))

    def test_rejects_inconsistent_endpoints(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 1, 3]), np.array([0]), np.array([1.0]), (2, 2))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]),
                (2, 2),
            )

    def test_rejects_column_out_of_range(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                np.array([0, 1, 2]), np.array([0, 5]), np.array([1.0, 1.0]),
                (2, 2),
            )


class TestBasics:
    def test_row_lengths_and_expand_rows(self, rng):
        csr = random_csr(rng, 8, 8, ensure_empty_row=True)
        lengths = csr.row_lengths()
        assert lengths.sum() == csr.nnz
        rows = csr.expand_rows()
        for i in range(8):
            assert np.sum(rows == i) == lengths[i]

    def test_with_data_shares_pattern(self, rng):
        csr = random_csr(rng, 6, 6)
        new = csr.with_data(np.arange(csr.nnz, dtype=float))
        assert new.indptr is csr.indptr
        assert new.indices is csr.indices
        assert new.data[3] == 3.0

    def test_with_data_rejects_wrong_length(self, rng):
        csr = random_csr(rng, 6, 6)
        with pytest.raises(ValueError):
            csr.with_data(np.zeros(csr.nnz + 1))


class TestScaling:

    def test_row_and_col_sums(self, rng):
        csr = random_csr(rng, 6, 4, ensure_empty_row=True)
        dense = csr.to_dense()
        assert np.allclose(csr.row_sum(), dense.sum(axis=1))


class TestTranspose:
    def test_transpose_matches_dense(self, rng):
        csr = random_csr(rng, 9, 5)
        assert np.allclose(csr.transpose().to_dense(), csr.to_dense().T)

    def test_double_transpose_identity(self, rng):
        csr = random_csr(rng, 7, 7)
        back = csr.transpose().transpose()
        assert np.allclose(back.to_dense(), csr.to_dense())

    def test_transpose_permutation_consistency(self, rng):
        csr = random_csr(rng, 8, 6)
        perm = csr.structure.transpose_permutation()
        t = csr.transpose()
        assert np.allclose(t.data, csr.data[perm])


class TestBlocks:
    def test_extract_block_matches_dense(self, rng):
        csr = random_csr(rng, 12, 10, ensure_empty_row=True)
        dense = csr.to_dense()
        block = csr.extract_block(3, 9, 2, 8)
        assert np.allclose(block.to_dense(), dense[3:9, 2:8])

    def test_extract_full_block_is_identity(self, rng):
        csr = random_csr(rng, 6, 6)
        block = csr.extract_block(0, 6, 0, 6)
        assert np.allclose(block.to_dense(), csr.to_dense())

    def test_extract_empty_block(self, rng):
        csr = random_csr(rng, 6, 6)
        block = csr.extract_block(2, 2, 0, 6)
        assert block.shape == (0, 6)
        assert block.nnz == 0

    def test_extract_block_bounds_checked(self, rng):
        csr = random_csr(rng, 6, 6)
        with pytest.raises(ValueError):
            csr.extract_block(0, 7, 0, 6)
        with pytest.raises(ValueError):
            csr.extract_block(0, 6, 3, 2)


class TestInterop:
    def test_scipy_roundtrip(self, rng):
        csr = random_csr(rng, 8, 8)
        assert np.allclose(csr.to_scipy().toarray(), csr.to_dense())

    def test_astype_and_copy(self, rng):
        csr = random_csr(rng, 5, 5)
        as32 = csr.astype(np.float32)
        assert as32.dtype == np.float32


class TestCSRProperties:
    """Hypothesis coverage of the structural CSR operations."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_extract_block_random_ranges(self, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n_rows, n_cols)) < 0.4) * rng.normal(
            size=(n_rows, n_cols)
        )
        csr = CSRMatrix.from_dense(dense)
        r0 = int(rng.integers(0, n_rows + 1))
        r1 = int(rng.integers(r0, n_rows + 1))
        c0 = int(rng.integers(0, n_cols + 1))
        c1 = int(rng.integers(c0, n_cols + 1))
        block = csr.extract_block(r0, r1, c0, c1)
        assert np.allclose(block.to_dense(), dense[r0:r1, c0:c1])

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_transpose_involution(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.5) * rng.normal(size=(n, n))
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(
            csr.transpose().transpose().to_dense(), dense
        )



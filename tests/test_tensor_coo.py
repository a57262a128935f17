"""Unit tests for the COO sparse format."""

import numpy as np
import pytest

from repro.tensor.coo import COOMatrix


class TestConstruction:
    def test_basic_shape_and_nnz(self):
        coo = COOMatrix([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], shape=(3, 3))
        assert coo.shape == (3, 3)
        assert coo.nnz == 3

    def test_default_ones_pattern(self):
        coo = COOMatrix([0, 1], [1, 0], shape=(2, 2))
        assert np.all(coo.data == 1)

    def test_shape_inferred_from_indices(self):
        coo = COOMatrix([0, 4], [2, 1], shape=None)
        assert coo.shape == (5, 3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            COOMatrix([0, 1], [1], shape=(2, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            COOMatrix([0, 5], [0, 0], shape=(2, 2))

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            COOMatrix([0, -1], [0, 0], shape=(2, 2))


class TestCanonicalize:
    def test_duplicates_are_summed(self):
        coo = COOMatrix([0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0], shape=(2, 2))
        assert coo.nnz == 2
        dense = coo.to_dense()
        assert dense[0, 1] == 3.0
        assert dense[1, 0] == 5.0

    def test_sorted_row_major(self):
        coo = COOMatrix([2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0], shape=(3, 3))
        assert list(coo.rows) == [0, 1, 2]

    def test_idempotent(self):
        coo = COOMatrix([1, 0], [0, 1], [1.0, 1.0], shape=(2, 2))
        before = (coo.rows.copy(), coo.cols.copy(), coo.data.copy())
        coo.canonicalize()
        assert np.all(before[0] == coo.rows)
        assert np.all(before[2] == coo.data)

    def test_empty_matrix(self):
        coo = COOMatrix(np.empty(0, np.int64), np.empty(0, np.int64),
                        shape=(4, 4))
        assert coo.nnz == 0
        assert coo.to_dense().sum() == 0


class TestConversions:
    def test_dense_roundtrip(self, rng):
        dense = (rng.random((7, 5)) < 0.5) * rng.normal(size=(7, 5))
        assert np.allclose(COOMatrix.from_dense(dense).to_dense(), dense)

    def test_degrees(self):
        coo = COOMatrix([0, 0, 2], [1, 2, 1], shape=(3, 3))
        assert list(coo.row_degrees()) == [2, 0, 1]
        assert list(coo.col_degrees()) == [0, 2, 1]
        empty = COOMatrix(np.empty(0, np.int64), np.empty(0, np.int64),
                          shape=(4, 2))
        assert list(empty.row_degrees()) == [0] * 4
        assert list(empty.col_degrees()) == [0] * 2


class TestEdgeKeys:
    def test_sorted_keys_round_trip_to_the_canonical_pattern(self):
        """Keys ``row * n_cols + col`` of a non-square, non-canonical
        matrix come back sorted and repeat-free; the matrix rebuilt from
        them is the canonical pattern, flagged canonical."""
        coo = COOMatrix([2, 0, 2, 1, 0], [1, 3, 1, 0, 3], shape=(3, 4),
                        dedup=False)
        key = coo.sorted_keys()
        assert list(key) == [3, 4, 9]
        out = COOMatrix.from_sorted_keys(key, coo.shape, np.float64)
        ref = coo.canonicalize()
        assert out._canonical and out.shape == (3, 4)
        assert list(out.rows) == list(ref.rows) == [0, 1, 2]
        assert list(out.cols) == list(ref.cols) == [3, 0, 1]
        assert out.data.dtype == np.float64 and np.all(out.data == 1)
        # A canonical matrix hands out fresh keys without sorting again.
        assert list(ref.sorted_keys()) == [3, 4, 9]
        assert not np.shares_memory(ref.sorted_keys(), ref.rows)

    def test_unique_keys_returns_the_input_when_nothing_repeats(self):
        key = np.array([5, 1, 3], dtype=np.int64)
        assert COOMatrix.unique_keys(key) is key
        assert list(key) == [1, 3, 5]
        assert list(COOMatrix.unique_keys(np.array([2, 2, 0, 2]))) == [0, 2]
        assert COOMatrix.unique_keys(np.empty(0, np.int64)).size == 0

"""Tests for the Table-2 compute kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import kernels
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import (
    masked_row_softmax,
    masked_row_softmax_backward,
    mm,
    mspmm,
    sddmm_add,
    sddmm_cosine,
    sddmm_dot,
    spmm,
    spmm_reference,
    spmmm,
)
from repro.tensor.semiring import (
    AVERAGE,
    TROPICAL_MAX,
    TROPICAL_MIN,
    adjacency_values,
    semiring_matmul_dense,
)
from repro.util.counters import FlopCounter
from tests.conftest import random_csr


class TestSpMMReal:
    @pytest.mark.parametrize(
        "kernel", [spmm, spmm_reference], ids=["scipy", "reference"]
    )
    def test_matches_dense(self, rng, kernel):
        a = random_csr(rng, 10, 8, ensure_empty_row=True)
        h = rng.normal(size=(8, 4))
        assert np.allclose(kernel(a, h), a.to_dense() @ h)

    def test_backends_agree(self, rng):
        """The dispatch (scipy for REAL) against the pure-NumPy oracle."""
        a = random_csr(rng, 12, 12)
        h = rng.normal(size=(12, 5))
        assert np.allclose(spmm(a, h), spmm_reference(a, h))

    def test_vector_input_squeezed(self, rng):
        a = random_csr(rng, 6, 6)
        x = rng.normal(size=6)
        for kernel in (spmm, spmm_reference):
            out = kernel(a, x)
            assert out.shape == (6,)
            assert np.allclose(out, a.to_dense() @ x)

    def test_dimension_mismatch(self, rng):
        a = random_csr(rng, 6, 6)
        with pytest.raises(ValueError):
            spmm(a, rng.normal(size=(5, 2)))

    def test_empty_matrix(self):
        a = CSRMatrix(np.zeros(5, np.int64), np.empty(0, np.int64),
                      np.empty(0), (4, 4))
        for kernel in (spmm, spmm_reference):
            assert np.allclose(kernel(a, np.ones((4, 2))), 0)

    def test_flop_accounting(self, rng):
        a = random_csr(rng, 6, 6)
        counter = FlopCounter()
        spmm(a, rng.normal(size=(6, 3)), counter=counter)
        assert counter.total == 2 * a.nnz * 3
        assert counter.by_label["SpMM"] == counter.total


class TestSpMMSemirings:
    def _tropical_dense(self, a: CSRMatrix, sr):
        dense = np.full(a.shape, sr.zero)
        dense[a.expand_rows(), a.indices] = sr.one
        return dense

    @pytest.mark.parametrize("sr", [TROPICAL_MIN, TROPICAL_MAX])
    def test_tropical_matches_oracle(self, rng, sr):
        a = random_csr(rng, 8, 8, ensure_empty_row=True)
        lifted = a.with_data(adjacency_values(sr, a.data))
        h = rng.normal(size=(8, 3))
        out = spmm(lifted, h, semiring=sr)
        expected = semiring_matmul_dense(sr, self._tropical_dense(a, sr), h)
        assert np.allclose(out, expected)

    def test_min_aggregation_semantics(self, rng):
        """h'_ij = min over neighbours — the paper's Section 4.3 claim."""
        a = random_csr(rng, 8, 8)
        lifted = a.with_data(adjacency_values(TROPICAL_MIN, a.data))
        h = rng.normal(size=(8, 3))
        out = spmm(lifted, h, semiring=TROPICAL_MIN)
        dense = a.to_dense()
        for i in range(8):
            nz = np.nonzero(dense[i])[0]
            if nz.size:
                assert np.allclose(out[i], h[nz].min(axis=0))

    def test_average_matches_oracle(self, rng):
        a = random_csr(rng, 8, 8, ensure_empty_row=True)
        a = a.with_data(np.abs(a.data) + 0.1)
        h = rng.normal(size=(8, 3))
        out = spmm(a, h, semiring=AVERAGE)
        expected = semiring_matmul_dense(AVERAGE, a.to_dense(), h)
        assert np.allclose(out, expected)

    def test_average_empty_rows_are_zero(self, rng):
        a = random_csr(rng, 8, 8, ensure_empty_row=True)
        a = a.with_data(np.abs(a.data) + 0.1)
        out = spmm(a, rng.normal(size=(8, 2)), semiring=AVERAGE)
        empty = a.row_lengths() == 0
        assert np.allclose(out[empty], 0)


class TestSDDMM:
    def test_dot_matches_dense_gram(self, rng):
        a = random_csr(rng, 9, 9)
        x = rng.normal(size=(9, 4))
        y = rng.normal(size=(9, 4))
        vals = sddmm_dot(a, x, y)
        full = x @ y.T
        assert np.allclose(vals, full[a.expand_rows(), a.indices])

    def test_dot_chunking_invariant(self, rng, monkeypatch):
        a = random_csr(rng, 20, 20)
        x = rng.normal(size=(20, 3))
        whole = sddmm_dot(a, x, x)
        monkeypatch.setattr(kernels, "_SDDMM_CHUNK", 7)
        assert np.allclose(sddmm_dot(a, x, x), whole)

    def test_dot_rectangular(self, rng):
        a = random_csr(rng, 6, 9)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(9, 3))
        vals = sddmm_dot(a, x, y)
        full = x @ y.T
        assert np.allclose(vals, full[a.expand_rows(), a.indices])

    def test_dot_validates_shapes(self, rng):
        a = random_csr(rng, 6, 6)
        with pytest.raises(ValueError):
            sddmm_dot(a, rng.normal(size=(6, 3)), rng.normal(size=(6, 4)))
        with pytest.raises(ValueError):
            sddmm_dot(a, rng.normal(size=(5, 3)), rng.normal(size=(6, 3)))

    def test_add_matches_outer_sum(self, rng):
        a = random_csr(rng, 7, 7)
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        vals = sddmm_add(a, u, v)
        full = u[:, None] + v[None, :]
        assert np.allclose(vals, full[a.expand_rows(), a.indices])

    def test_cosine_in_unit_range(self, rng):
        a = random_csr(rng, 8, 8)
        h = rng.normal(size=(8, 5))
        vals, norms = sddmm_cosine(a, h)
        assert np.all(vals <= 1 + 1e-9)
        assert np.all(vals >= -1 - 1e-9)
        assert np.allclose(norms, np.linalg.norm(h, axis=1))

    def test_cosine_self_similarity_is_one(self, rng):
        h = rng.normal(size=(5, 4))
        eye = CSRMatrix.from_dense(np.eye(5))
        vals, _ = sddmm_cosine(eye, h)
        assert np.allclose(vals, 1.0)


class TestCompositeKernels:
    def test_spmmm_both_orders(self, rng):
        a = random_csr(rng, 8, 8)
        b = rng.normal(size=(8, 4))
        c = rng.normal(size=(4, 6))
        expected = a.to_dense() @ b @ c
        assert np.allclose(spmmm(a, b, c), expected)

    def test_mspmm(self, rng):
        a = random_csr(rng, 8, 8)
        d = rng.normal(size=(4, 8))
        e = rng.normal(size=(8, 3))
        assert np.allclose(mspmm(d, a, e), d @ a.to_dense() @ e)

    def test_mm_flops(self, rng):
        counter = FlopCounter()
        mm(rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), counter=counter)
        assert counter.total == 2 * 3 * 4 * 5


class TestMaskedSoftmax:
    def test_forward_rows_normalised(self, rng):
        a = random_csr(rng, 8, 8, ensure_empty_row=True)
        s = masked_row_softmax(a.with_data(rng.normal(size=a.nnz)))
        sums = s.row_sum()
        nonempty = a.row_lengths() > 0
        assert np.allclose(sums[nonempty], 1.0)

    def test_backward_matches_numeric(self, rng):
        a = random_csr(rng, 6, 6)
        x = rng.normal(size=a.nnz)
        g = rng.normal(size=a.nnz)

        def loss(values):
            s = masked_row_softmax(a.with_data(values))
            return float(np.dot(s.data, g))

        analytic = masked_row_softmax_backward(
            masked_row_softmax(a.with_data(x)).data, g, a.indptr
        )
        eps = 1e-6
        for i in rng.choice(a.nnz, size=min(10, a.nnz), replace=False):
            xp = x.copy(); xp[i] += eps
            xm = x.copy(); xm[i] -= eps
            num = (loss(xp) - loss(xm)) / (2 * eps)
            assert np.isclose(num, analytic[i], atol=1e-5)


@st.composite
def spmm_case(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=1, max_value=4))
    mask = draw(
        st.lists(st.booleans(), min_size=n * m, max_size=n * m)
    )
    values = draw(
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                 min_size=n * m, max_size=n * m)
    )
    h = draw(
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                 min_size=m * k, max_size=m * k)
    )
    dense = (np.array(values).reshape(n, m)
             * np.array(mask).reshape(n, m))
    return dense, np.array(h).reshape(m, k)


class TestSpMMProperty:
    @given(spmm_case())
    @settings(max_examples=60, deadline=None)
    def test_reference_matches_dense_product(self, case):
        dense, h = case
        a = CSRMatrix.from_dense(dense)
        out = spmm_reference(a, h)
        assert np.allclose(out, dense @ h, atol=1e-8)

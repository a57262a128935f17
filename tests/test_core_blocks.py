"""Tests for the Table-2 building blocks and activations."""

import numpy as np
import pytest

from repro.core.activations import (
    get_activation,
    leaky_relu,
    leaky_relu_grad,
)
from repro.core.blocks import (
    gram,
    matrix_plus_transpose,
    rep,
    rep_t,
    rs,
    sum_cols,
    sum_rows,
)
from tests.conftest import random_csr


class TestReplication:
    def test_rep_columns_are_x(self, rng):
        x = rng.normal(size=5)
        out = rep(x, 3)
        assert out.shape == (5, 3)
        for j in range(3):
            assert np.allclose(out[:, j], x)

    def test_rep_is_x_times_ones_row(self, rng):
        x = rng.normal(size=4)
        assert np.allclose(rep(x, 6), np.outer(x, np.ones(6)))

    def test_rep_t_rows_are_x(self, rng):
        x = rng.normal(size=5)
        out = rep_t(x, 3)
        assert out.shape == (3, 5)
        assert np.allclose(out, np.outer(np.ones(3), x))

    def test_rep_rejects_matrix(self, rng):
        with pytest.raises(ValueError):
            rep(rng.normal(size=(2, 2)), 3)


class TestSummation:
    def test_sum_rows_dense_and_sparse_agree(self, rng):
        csr = random_csr(rng, 7, 5, ensure_empty_row=True)
        assert np.allclose(sum_rows(csr), sum_rows(csr.to_dense()))

    def test_sum_cols_dense_and_sparse_agree(self, rng):
        csr = random_csr(rng, 7, 5)
        assert np.allclose(sum_cols(csr), sum_cols(csr.to_dense()))

    def test_rs_is_rep_of_sum(self, rng):
        x = rng.normal(size=(4, 6))
        out = rs(x, 6)
        assert np.allclose(out, np.outer(x.sum(axis=1), np.ones(6)))

    def test_rs_equals_ones_matrix_product(self, rng):
        """Table 2: rs_i(X) == X @ ones(n, i)."""
        x = rng.normal(size=(4, 6))
        assert np.allclose(rs(x, 3), x @ np.ones((6, 3)))


class TestGramAndSymmetrise:
    def test_gram(self, rng):
        x = rng.normal(size=(5, 3))
        assert np.allclose(gram(x), x @ x.T)

    def test_matrix_plus_transpose_dense(self, rng):
        x = rng.normal(size=(4, 4))
        out = matrix_plus_transpose(x)
        assert np.allclose(out, out.T)

    def test_matrix_plus_transpose_sparse(self, rng):
        csr = random_csr(rng, 6, 6)
        out = matrix_plus_transpose(csr)
        assert np.allclose(out.to_dense(), csr.to_dense() + csr.to_dense().T)

    def test_requires_square(self, rng):
        with pytest.raises(ValueError):
            matrix_plus_transpose(rng.normal(size=(3, 4)))


class TestActivations:
    @pytest.mark.parametrize(
        "name", ["relu", "identity", "tanh", "elu", "sigmoid", "leaky_relu"]
    )
    def test_gradient_matches_numeric(self, rng, name):
        act = get_activation(name)
        z = rng.normal(size=(4, 3)) + 0.05  # avoid the ReLU kink
        eps = 1e-6
        numeric = (act.fn(z + eps) - act.fn(z - eps)) / (2 * eps)
        assert np.allclose(act.grad(z), numeric, atol=1e-5)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            get_activation("swish9000")

    def test_passthrough_of_activation_object(self):
        act = get_activation("relu")
        assert get_activation(act) is act

    def test_elu_no_overflow_for_large_negatives(self):
        act = get_activation("elu")
        out = act.fn(np.array([-1e4, -1e2, 0.0, 3.0]))
        assert np.all(np.isfinite(out))
        assert np.isclose(out[0], -1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_equals_the_select_bit_for_bit(self, rng, dtype):
        """ELU and its gradient run without a select; the ``np.where``
        form is the oracle, to the bit: NaN, ±inf, ±0 (sign included),
        subnormals and both tails."""
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45,
                    1e-310, -1e-310, -1e4, 1e30, -88.7, -745.2]
        z = np.concatenate([
            rng.normal(size=4099) * 5, np.tile(specials, 5),
        ]).astype(dtype).reshape(-1, 2)
        elu = get_activation("elu")
        fn = np.where(z > 0, z, np.expm1(np.minimum(z, 0))).astype(dtype)
        grad = np.where(z > 0, 1.0, np.exp(np.minimum(z, 0))).astype(dtype)
        for ours, oracle in ((elu.fn(z), fn), (elu.grad(z), grad)):
            assert ours.dtype == dtype
            assert np.array_equal(ours, oracle, equal_nan=True)
            assert np.array_equal(np.signbit(ours), np.signbit(oracle))

    def test_sigmoid_stable_both_tails(self):
        act = get_activation("sigmoid")
        out = act.fn(np.array([-1e3, 1e3]))
        assert np.allclose(out, [0.0, 1.0])

    def test_leaky_relu_slope(self):
        z = np.array([-2.0, 2.0])
        assert np.allclose(leaky_relu(z, 0.1), [-0.2, 2.0])
        assert np.allclose(leaky_relu_grad(z, 0.1), [0.1, 1.0])

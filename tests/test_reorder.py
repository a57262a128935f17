"""Tests for vertex reordering and load-balance diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import kronecker, prepare_adjacency
from repro.graphs.reorder import (
    degree_sort_order,
    load_balance_report,
    permute,
    random_order,
)
from repro.tensor.coo import COOMatrix
from tests.conftest import random_csr


class TestPermute:
    def test_permutation_is_isomorphism(self, rng):
        csr = random_csr(rng, 10, 10)
        order = random_order(10, seed=1)
        out = permute(csr, order)
        dense = csr.to_dense()
        expected = np.zeros_like(dense)
        for i in range(10):
            for j in range(10):
                expected[order[i], order[j]] = dense[i, j]
        assert np.allclose(out.to_dense(), expected)

    def test_identity_order(self, rng):
        csr = random_csr(rng, 8, 8)
        out = permute(csr, np.arange(8))
        assert np.allclose(out.to_dense(), csr.to_dense())

    def test_preserves_format(self, rng):
        csr = random_csr(rng, 6, 6)
        assert permute(csr, random_order(6)).__class__.__name__ == "CSRMatrix"
        coo = COOMatrix(csr.expand_rows(), csr.indices, csr.data, shape=csr.shape)
        assert permute(coo, random_order(6)).__class__.__name__ == "COOMatrix"

    def test_rejects_non_permutation(self, rng):
        csr = random_csr(rng, 5, 5)
        with pytest.raises(ValueError):
            permute(csr, np.zeros(5, dtype=np.int64))

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ValueError):
            permute(random_csr(rng, 4, 6), np.arange(4))

    @given(st.integers(min_value=2, max_value=20),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_degree_multiset_invariant(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.4).astype(np.float64)
        coo = COOMatrix.from_dense(dense)
        out = permute(coo, random_order(n, seed=seed))
        assert sorted(coo.row_degrees()) == sorted(out.row_degrees())


class TestOrders:
    def test_degree_sort_puts_hubs_first(self, rng):
        csr = random_csr(rng, 12, 12, density=0.3)
        order = degree_sort_order(csr)
        out = permute(csr, order)
        degrees = out.row_lengths()
        assert degrees[0] == degrees.max()

    def test_random_order_is_permutation(self):
        order = random_order(50, seed=3)
        assert np.array_equal(np.sort(order), np.arange(50))


class TestLoadBalance:
    def test_report_totals(self, rng):
        csr = random_csr(rng, 16, 16)
        report = load_balance_report(csr, 4)
        assert report.total_nnz == csr.nnz
        assert report.imbalance >= 1.0

    def test_scrambling_improves_kronecker_balance(self):
        raw = prepare_adjacency(kronecker(512, 8000, seed=0, scramble=False), False)
        scrambled = prepare_adjacency(kronecker(512, 8000, seed=0, scramble=True), False)
        assert (
            load_balance_report(scrambled, 16).imbalance
            < load_balance_report(raw, 16).imbalance
        )

    def test_rejects_non_square_p(self, rng):
        with pytest.raises(ValueError):
            load_balance_report(random_csr(rng, 8, 8), 6)


class TestSweepRunner:
    def test_tiny_sweep_runs(self, tmp_path):
        from repro.bench.sweep import main, run_sweep

        rows = run_sweep("fig7_weak_er", scale=0.05, verbose=False)
        assert rows
        assert {r.formulation for r in rows} == {"global", "local"}
        code = main(["--list"])
        assert code == 0
        code = main(["no_such_figure"])
        assert code == 1

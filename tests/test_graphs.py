"""Tests for graph generators, preprocessing and IO."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    density,
    ensure_min_degree,
    erdos_renyi,
    graph_stats,
    kronecker,
    load_npz,
    makg_like,
    powerlaw_graph,
    prepare_adjacency,
    save_npz,
    synthetic_classification,
)
from repro.tensor.coo import COOMatrix
from tests import reference_graphs as reference


class TestKronecker:
    def test_rounds_to_power_of_two(self):
        g = kronecker(1000, 5000, seed=0)
        assert g.shape[0] == 512

    def test_no_self_loops_and_symmetric(self):
        g = kronecker(256, 3000, seed=1)
        dense = g.to_dense()
        assert np.all(np.diag(dense) == 0)
        assert np.array_equal(dense != 0, (dense != 0).T)

    def test_no_isolated_vertices(self):
        g = kronecker(128, 300, seed=2)
        deg = g.row_degrees() + g.col_degrees()
        assert np.all(deg > 0)

    def test_heavy_tail_degrees(self):
        """Kronecker graphs must be skewed: max degree >> mean degree."""
        g = kronecker(1 << 10, 40000, seed=3)
        stats = graph_stats(g.to_csr())
        assert stats.max_degree > 4 * stats.mean_degree

    def test_deterministic_by_seed(self):
        a = kronecker(128, 1000, seed=7)
        b = kronecker(128, 1000, seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kronecker(1, 10)
        with pytest.raises(ValueError):
            kronecker(16, 0)
        with pytest.raises(ValueError):
            kronecker(16, 10, initiator=(0.5, 0.4, 0.3))


class TestErdosRenyi:
    def test_edge_count_close_to_target(self):
        g = erdos_renyi(500, 8000, seed=0, symmetrize=False,
                        ensure_connected=False)
        assert abs(g.nnz - 8000) <= 80

    def test_density_parameterisation(self):
        g = erdos_renyi(400, q=0.05, seed=1, symmetrize=False,
                        ensure_connected=False)
        assert abs(density(g) - 0.05) < 0.01

    def test_uniformish_degrees(self):
        """ER graphs are load balanced: max degree close to mean."""
        g = erdos_renyi(1 << 10, 50000, seed=2)
        stats = graph_stats(g.to_csr())
        assert stats.max_degree < 2.5 * stats.mean_degree

    def test_requires_exactly_one_of_m_q(self):
        with pytest.raises(ValueError):
            erdos_renyi(10)
        with pytest.raises(ValueError):
            erdos_renyi(10, m=5, q=0.1)

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            erdos_renyi(4, m=100)


class TestPowerlaw:
    def test_heavy_tail(self):
        g = powerlaw_graph(1 << 10, 20000, seed=0)
        stats = graph_stats(g.to_csr())
        assert stats.max_degree > 5 * stats.mean_degree

    def test_makg_like_density(self):
        g = makg_like(n=1 << 10, seed=0)
        stats = graph_stats(g.to_csr())
        # ~29 sampled edges per vertex, doubled by symmetrisation, minus
        # dedup losses.
        assert 15 < stats.mean_degree < 70

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            powerlaw_graph(10, 20, exponent=0.5)


class TestPrep:
    def test_ensure_min_degree_repairs_isolates(self, rng):
        coo = COOMatrix([0, 1], [1, 0], shape=(6, 6))
        fixed = ensure_min_degree(coo, rng=0)
        deg = fixed.row_degrees() + fixed.col_degrees()
        assert np.all(deg > 0)

    def test_ensure_min_degree_no_self_loops_added(self):
        coo = COOMatrix([0], [1], shape=(4, 4))
        fixed = ensure_min_degree(coo, rng=0)
        assert np.all(fixed.rows != fixed.cols)

    def test_ensure_min_degree_noop_when_connected(self):
        coo = COOMatrix([0, 1, 2, 0], [1, 2, 0, 2], shape=(3, 3))
        fixed = ensure_min_degree(coo, rng=0)
        assert fixed is coo

    def test_prepare_adjacency_adds_diagonal(self, rng):
        coo = erdos_renyi(20, 60, seed=0)
        csr = prepare_adjacency(coo)
        dense = csr.to_dense()
        assert np.all(np.diag(dense) == 1)
        assert csr.dtype == np.float32

    def test_graph_stats_fields(self):
        csr = prepare_adjacency(erdos_renyi(50, 200, seed=0))
        stats = graph_stats(csr)
        assert stats.n == 50
        assert stats.m == csr.nnz
        assert stats.isolated == 0
        assert 0 < stats.density < 1

    @given(st.integers(min_value=2, max_value=64),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_property_er_always_valid(self, n, m):
        m = min(m, n * (n - 1) // 2)
        if m == 0:
            return
        g = erdos_renyi(n, m, seed=0)
        assert g.shape == (n, n)
        assert np.all(g.rows != g.cols)
        deg = g.row_degrees() + g.col_degrees()
        assert np.all(deg > 0)


class TestIO:
    def test_roundtrip(self, tmp_path, rng):
        g = erdos_renyi(30, 100, seed=5)
        path = tmp_path / "graph.npz"
        save_npz(path, g)
        back = load_npz(path)
        assert back.shape == g.shape
        assert np.allclose(back.to_dense(), g.to_dense())

    def test_missing_arrays_rejected(self, tmp_path):
        np.savez_compressed(tmp_path / "bad.npz", row=np.array([0]))
        with pytest.raises(ValueError):
            load_npz(tmp_path / "bad.npz")


class TestSyntheticDataset:
    def test_masks_partition_vertices(self):
        data = synthetic_classification(n=100, seed=0)
        total = (
            data.train_mask.astype(int)
            + data.val_mask.astype(int)
            + data.test_mask.astype(int)
        )
        assert np.all(total == 1)

    def test_shapes(self):
        data = synthetic_classification(n=80, num_classes=3, feature_dim=9,
                                        seed=1)
        assert data.features.shape == (80, 9)
        assert data.labels.shape == (80,)
        assert data.num_classes == 3
        assert set(np.unique(data.labels)) <= set(range(3))

    def test_homophily_increases_same_class_edges(self):
        high = synthetic_classification(n=400, homophily=0.95, seed=2)
        low = synthetic_classification(n=400, homophily=0.3, seed=2)

        def same_class_fraction(data):
            csr = data.adjacency
            rows = csr.expand_rows()
            cols = csr.indices
            off_diag = rows != cols
            return float(
                (data.labels[rows[off_diag]] == data.labels[cols[off_diag]]).mean()
            )

        assert same_class_fraction(high) > same_class_fraction(low) + 0.2

    def test_invalid_homophily(self):
        with pytest.raises(ValueError):
            synthetic_classification(n=10, homophily=1.5)


def assert_same_coo(ours, oracle):
    assert ours.shape == oracle.shape
    for name in ("rows", "cols", "data"):
        a, b = getattr(ours, name), getattr(oracle, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_same_csr(ours, oracle):
    assert ours.shape == oracle.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(ours, name), getattr(oracle, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestIdentityOracle:
    """Every generator builds, array for array, the graph the
    ``COOMatrix`` chain of ``tests/reference_graphs.py`` builds from the
    same draws; so does ``prepare_adjacency``. Cases cover n = 2, graphs
    with isolated vertices (few samples), and each finishing switch."""

    FINISH = [{}, {"symmetrize": False}, {"ensure_connected": False},
              {"symmetrize": False, "ensure_connected": False}]

    def check(self, ours, oracle):
        assert_same_coo(ours, oracle)
        for self_loops in (True, False):
            for dtype in (np.float32, np.float64):
                assert_same_csr(
                    prepare_adjacency(ours, self_loops, dtype),
                    reference.prepare_adjacency(oracle, self_loops, dtype),
                )

    @pytest.mark.parametrize("finish", FINISH)
    @pytest.mark.parametrize("n,m,seed", [
        (2, 1, 0), (2, 7, 3), (64, 20, 1), (256, 3000, 2), (1000, 5000, 5),
    ])
    def test_kronecker(self, n, m, seed, finish):
        self.check(kronecker(n, m, seed=seed, **finish),
                   reference.kronecker(n, m, seed=seed, **finish))

    def test_kronecker_unscrambled_other_initiator(self):
        kw = {"initiator": (0.45, 0.15, 0.3), "scramble": False}
        self.check(kronecker(512, 4000, seed=4, **kw),
                   reference.kronecker(512, 4000, seed=4, **kw))

    @pytest.mark.parametrize("finish", FINISH)
    @pytest.mark.parametrize("n,m,seed", [
        (2, 3, 0), (80, 30, 1), (300, 2400, 2), (1 << 10, 29 << 10, 3),
    ])
    def test_powerlaw(self, n, m, seed, finish):
        self.check(powerlaw_graph(n, m, seed=seed, **finish),
                   reference.powerlaw_graph(n, m, seed=seed, **finish))

    @pytest.mark.parametrize("finish", FINISH)
    @pytest.mark.parametrize("n,m,seed", [
        (2, 1, 0), (2, 2, 1), (90, 25, 2), (200, 3000, 3), (64, 4000, 4),
    ])
    def test_erdos_renyi(self, n, m, seed, finish):
        self.check(erdos_renyi(n, m, seed=seed, **finish),
                   reference.erdos_renyi(n, m, seed=seed, **finish))

    @pytest.mark.parametrize("n,mean_degree,seed", [
        (2, 1.0, 0), (60, 0.4, 1), (300, 8.0, 2),
    ])
    def test_synthetic_classification(self, n, mean_degree, seed):
        data = synthetic_classification(n=n, mean_degree=mean_degree,
                                        seed=seed)
        adjacency, features = reference.synthetic_classification(
            n=n, mean_degree=mean_degree, seed=seed)
        assert_same_csr(data.adjacency, adjacency)
        assert np.array_equal(data.features, features)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_ensure_min_degree_and_prepare_on_raw_coo(self, symmetric):
        """Not canonical: repeats, self loops, unsorted entries."""
        rng = np.random.default_rng(6)
        rows, cols = rng.integers(0, 40, (2, 60))
        rows[:5] = cols[:5]
        for dedup in (True, False):
            coo = COOMatrix(rows, cols, None, shape=(40, 40), dedup=dedup)
            ours = ensure_min_degree(coo, rng=3, symmetric=symmetric)
            oracle = reference.ensure_min_degree(
                coo, np.random.default_rng(3), symmetric=symmetric)
            assert_same_coo(ours, oracle)
            for self_loops in (True, False):
                assert_same_csr(prepare_adjacency(coo, self_loops),
                                reference.prepare_adjacency(coo, self_loops))


class TestBuildMemory:
    """``tracemalloc`` budgets of graph construction at n = 2^14. The
    ``COOMatrix`` chain peaked at ~113 (Kronecker) and ~109 (power-law)
    bytes per returned edge, and ``prepare_adjacency`` at ~7.9x the CSR
    it returns; on sorted int64 keys the returned COO (20 B per edge)
    is most of the peak."""

    N = 1 << 14

    @staticmethod
    def traced_peak(build):
        """What ``build()`` returns and its traced peak above the start."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = build()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return out, peak

    @pytest.mark.parametrize("generator,samples_per_vertex", [
        (kronecker, 16), (powerlaw_graph, 8),
    ])
    def test_generation_peak_per_edge(self, generator, samples_per_vertex):
        g, peak = self.traced_peak(
            lambda: generator(self.N, samples_per_vertex * self.N, seed=0))
        assert peak <= 40 * g.nnz, f"{peak / g.nnz:.1f} B per edge"

    def test_prepare_peak_over_the_csr(self):
        coo = kronecker(self.N, 16 * self.N, seed=0)
        a, peak = self.traced_peak(lambda: prepare_adjacency(coo))
        csr = a.indptr.nbytes + a.indices.nbytes + a.data.nbytes
        assert peak <= 3 * csr, f"{peak / csr:.2f}x the CSR"

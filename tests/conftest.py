"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.graphs import erdos_renyi, synthetic_classification
from repro.graphs.prep import prepare_adjacency
from repro.tensor.csr import CSRMatrix

# ``--hypothesis-profile=ci`` raises the example budget of every
# property that does not pin ``max_examples`` itself.
settings.register_profile("ci", max_examples=400, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_adjacency() -> CSRMatrix:
    """A 60-vertex ER adjacency with self loops (float64)."""
    return prepare_adjacency(erdos_renyi(60, 420, seed=7), dtype=np.float64)


@pytest.fixture(scope="session")
def medium_adjacency() -> CSRMatrix:
    """A 200-vertex ER adjacency with self loops (float64)."""
    return prepare_adjacency(erdos_renyi(200, 3000, seed=3), dtype=np.float64)


@pytest.fixture(scope="session")
def sbm_data():
    """A learnable node-classification dataset (module-shared)."""
    return synthetic_classification(n=300, feature_dim=12, seed=0)


def random_csr(
    rng: np.random.Generator,
    n_rows: int,
    n_cols: int,
    density: float = 0.2,
    dtype=np.float64,
    ensure_empty_row: bool = False,
) -> CSRMatrix:
    """Random CSR with controllable density; optionally forces an empty
    row (the reduceat edge case)."""
    dense = (rng.random((n_rows, n_cols)) < density).astype(dtype)
    dense *= rng.normal(1.0, 0.3, (n_rows, n_cols)).astype(dtype)
    if ensure_empty_row and n_rows > 2:
        dense[n_rows // 2, :] = 0
    return CSRMatrix.from_dense(dense)


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2 * eps)
    return grad

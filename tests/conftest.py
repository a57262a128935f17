"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.graphs import erdos_renyi, synthetic_classification
from repro.graphs.prep import prepare_adjacency
from repro.tensor.csr import CSRMatrix


def pytest_addoption(parser):
    parser.addoption(
        "--kernels", choices=("c", "numpy"), default=None,
        help="backend of the fused sweep and the sampler's selection under "
        "test: the compiled library, which "
        "must then load ('c'), or the NumPy code with the loader patched to "
        "'not available' ('numpy'); by default the library when it builds",
    )


def pytest_configure(config):
    """``--kernels numpy``: no library for this process or its children.

    The loader's resolved state is set to "not available" before any
    kernel runs. Child interpreters (the examples, the seeded-replay run of
    ``test_minibatch``) re-import the package and would build their own, so they are given a
    ``PATH`` without ``cc`` / ``gcc``: the no-compiler install, which is
    what the NumPy side is.
    """
    if config.getoption("--kernels") == "numpy":
        from repro.tensor import _edge

        _edge._state = (None, "disabled by --kernels numpy")
        os.environ["PATH"] = os.pathsep.join(
            d for d in os.environ.get("PATH", "").split(os.pathsep)
            if not any(os.path.exists(os.path.join(d, c)) for c in ("cc", "gcc"))
        )


@pytest.fixture(scope="session")
def kernels_backend() -> str:
    """``"c"`` or ``"numpy"``: the side this run's kernels are on."""
    from repro.tensor.kernels import backend

    return backend()[0]


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

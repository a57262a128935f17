"""Ablation — generalised semiring aggregations (Section 4.3).

The paper's claim is architectural: arbitrary aggregations (max, min,
average) are *the same SpMM kernel* over a different semiring, so they
plug into the same distribution schedule at comparable cost. This
bench measures the single-node kernel across semirings and asserts the
exotic semirings stay within a small factor of the real-semiring
reference path (they cannot use the BLAS fast path, so parity with the
pure-NumPy reference is the right comparison).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.harness import make_graph
from repro.tensor.kernels import spmm_reference
from repro.tensor.semiring import (
    AVERAGE,
    REAL,
    TROPICAL_MAX,
    TROPICAL_MIN,
    adjacency_values,
)

N, K = 4096, 32


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    a = make_graph("uniform", N, 16 * N, seed=0)
    h = rng.normal(size=(N, K)).astype(np.float32)
    return a, h


@pytest.mark.parametrize(
    "semiring", [REAL, TROPICAL_MIN, TROPICAL_MAX, AVERAGE],
    ids=lambda s: s.name,
)
def test_semiring_spmm(benchmark, operands, semiring):
    a, h = operands
    lifted = a.with_data(adjacency_values(semiring, a.data))
    out = benchmark(lambda: spmm_reference(lifted, h, semiring=semiring))
    assert out.shape == (N, K)
    assert np.all(np.isfinite(out))


def test_semiring_cost_parity(benchmark, operands):
    """Exotic semirings stay within ~4x of the real reference SpMM."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    a, h = operands
    timings = {}
    for semiring in (REAL, TROPICAL_MIN, TROPICAL_MAX, AVERAGE):
        lifted = a.with_data(adjacency_values(semiring, a.data))
        spmm_reference(lifted, h, semiring=semiring)  # warmup
        start = time.perf_counter()
        for _ in range(3):
            spmm_reference(lifted, h, semiring=semiring)
        timings[semiring.name] = time.perf_counter() - start
    base = timings["real"]
    for name, t in timings.items():
        assert t < 4 * base + 0.05, f"{name} too slow: {t:.4f}s vs {base:.4f}s"

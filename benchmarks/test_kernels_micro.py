"""Single-node kernel microbenchmarks (Table 2's compute vocabulary).

Times SpMM (both backends), the SDDMM family, the graph softmax and
the composite SpMMM/MSpMM kernels on a fixed Erdős–Rényi operand set —
the per-kernel baseline every higher-level measurement decomposes into.

The ``test_*_warm_cache_speedup`` tests assert the amortization claim
of the pattern-structure cache directly: running a kernel on a matrix
whose pattern caches are warm must be at least 1.5× faster than the
cold path (a first-touch pattern paying structure validation,
``expand_rows`` and transpose construction).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.harness import make_graph
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import (
    masked_row_softmax,
    mspmm,
    sddmm_add,
    sddmm_cosine,
    sddmm_dot,
    spmm,
    spmm_reference,
    spmmm,
)

N, K = 4096, 64


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    a = make_graph("uniform", N, 16 * N, seed=0)
    h = rng.normal(size=(N, K)).astype(np.float32)
    w = rng.normal(size=(K, K)).astype(np.float32)
    u = rng.normal(size=N).astype(np.float32)
    return a, h, w, u


def test_spmm_scipy(benchmark, operands):
    a, h, _, _ = operands
    out = benchmark(lambda: spmm(a, h))
    assert out.shape == (N, K)


def test_spmm_reference(benchmark, operands):
    a, h, _, _ = operands
    out = benchmark(lambda: spmm_reference(a, h))
    assert out.shape == (N, K)


def test_sddmm_dot(benchmark, operands):
    a, h, _, _ = operands
    values = benchmark(lambda: sddmm_dot(a, h, h))
    assert values.shape == (a.nnz,)


def test_sddmm_add(benchmark, operands):
    a, _, _, u = operands
    values = benchmark(lambda: sddmm_add(a, u, u))
    assert values.shape == (a.nnz,)


def test_sddmm_cosine(benchmark, operands):
    a, h, _, _ = operands
    values, _ = benchmark(lambda: sddmm_cosine(a, h))
    assert values.shape == (a.nnz,)


def test_graph_softmax(benchmark, operands):
    a, _, _, _ = operands
    rng = np.random.default_rng(1)
    scores = a.with_data(rng.normal(size=a.nnz).astype(np.float32))
    out = benchmark(lambda: masked_row_softmax(scores))
    assert np.all(np.isfinite(out.data))


def test_spmmm(benchmark, operands):
    a, h, w, _ = operands
    out = benchmark(lambda: spmmm(a, h, w))
    assert out.shape == (N, K)


def test_mspmm(benchmark, operands):
    a, h, _, _ = operands
    out = benchmark(lambda: mspmm(h.T, a, h))
    assert out.shape == (K, K)


def test_backends_agree(benchmark, operands):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    a, h, _, _ = operands
    assert np.allclose(spmm(a, h), spmm_reference(a, h), atol=1e-4)


# ----------------------------------------------------------------------
# Warm-cache speedups over the pre-cache implementations
# ----------------------------------------------------------------------
# ``_sddmm_dot_uncached`` and ``_transpose_uncached`` replicate, line
# for line, what the library did before the pattern-structure cache:
# the COO row vector recomputed per call, fancy-indexed gather
# temporaries, 1M-entry chunks, and an O(nnz log nnz) argsort
# transpose. The tests assert the cached hot path beats them ≥1.5×.


def _best_time(fn, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _sddmm_dot_uncached(pattern, x, y, chunk=1 << 20):
    rows = np.repeat(
        np.arange(pattern.shape[0], dtype=np.int64), np.diff(pattern.indptr)
    )
    cols = pattern.indices
    out = np.empty(pattern.nnz, dtype=np.result_type(x, y))
    for start in range(0, pattern.nnz, chunk):
        stop = min(start + chunk, pattern.nnz)
        np.einsum(
            "ij,ij->i",
            x[rows[start:stop]],
            y[cols[start:stop]],
            out=out[start:stop],
        )
    return out


def _transpose_uncached(m):
    n_rows, n_cols = m.shape
    rows = np.repeat(
        np.arange(n_rows, dtype=np.int64), np.diff(m.indptr)
    )
    key = m.indices * np.int64(n_rows) + rows
    perm = np.argsort(key, kind="stable")
    indptr_t = np.zeros(n_cols + 1, dtype=np.int64)
    np.add.at(indptr_t, m.indices + 1, 1)
    np.cumsum(indptr_t, out=indptr_t)
    return CSRMatrix(indptr_t, rows[perm], m.data[perm], (n_cols, n_rows))


def test_sddmm_warm_cache_speedup(benchmark, operands):
    """Cached, chunked SDDMM ≥1.5× faster than the pre-cache kernel."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    a, h, _, _ = operands
    assert np.allclose(sddmm_dot(a, h, h), _sddmm_dot_uncached(a, h, h))
    t_warm = _best_time(lambda: sddmm_dot(a, h, h))
    t_old = _best_time(lambda: _sddmm_dot_uncached(a, h, h))
    assert t_old >= 1.5 * t_warm, (
        f"cached {t_warm * 1e3:.3f} ms vs uncached {t_old * 1e3:.3f} ms "
        f"({t_old / t_warm:.2f}x)"
    )


def test_multihead_batched_speedup(benchmark):
    """Head-batched GAT layer ≥2× faster than the per-head loop.

    Eight heads on a small graph — the regime the batching targets:
    the per-head loop (``heads`` single-head layers on the same
    parameters, the oracle of ``tests/reference_heads.py``) re-pays
    kernel dispatch and structure-cache lookups once per head, while
    the layer walks the interned CSR pattern once for all heads. Warm
    structure cache, forward + backward, float64.
    Timed with looped batches so sub-millisecond steps are not noise.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.models import AttentionLayer, layer_spec
    from tests.reference_heads import (
        combine_heads,
        head_gradients,
        single_heads,
    )

    n, heads, d, f = 64, 8, 8, 16
    a = make_graph("uniform", n, 4 * n, seed=0).astype(np.float64)
    rng = np.random.default_rng(0)
    h = rng.normal(size=(n, f))
    g = rng.normal(size=(n, heads * d))
    layer = AttentionLayer(f, d, layer_spec("gat"), activation="elu", heads=heads,
                           seed=3, dtype=np.float64)
    per_head = single_heads(layer, lambda: AttentionLayer(
        f, d, layer_spec("gat"), activation="identity", dtype=np.float64))

    def step_batched():
        out, cache = layer.forward(a, h)
        layer.backward(cache, g)
        return out

    def step_per_head():
        outs = []
        for head, g_h in zip(per_head, head_gradients(layer, g)):
            out, cache = head.forward(a, h)
            head.backward(cache, g_h)
            outs.append(out)
        return combine_heads(layer, outs)

    out_b, out_p = step_batched(), step_per_head()  # warm caches
    assert np.allclose(out_b, out_p, rtol=1e-10, atol=1e-12)

    def timed(step, repeats=9, iters=12):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(iters):
                step()
            best = min(best, (time.perf_counter() - t0) / iters)
        return best

    t_batched = timed(step_batched)
    t_per_head = timed(step_per_head)
    assert t_per_head >= 2.0 * t_batched, (
        f"batched {t_batched * 1e3:.3f} ms vs per-head "
        f"{t_per_head * 1e3:.3f} ms ({t_per_head / t_batched:.2f}x)"
    )


def test_tracing_disabled_overhead_unmeasurable(benchmark, operands):
    """The null-tracer fast path must not tax the kernel bench gate.

    ``spmm`` is wrapped by ``@traced``; with tracing disabled the
    wrapper is one accessor call and one attribute check, so timing the
    public entry point against the unwrapped function must show no
    measurable difference at this resolution (generous 1.25x bound to
    absorb scheduler noise — the true overhead is ~100ns on a ~ms
    kernel).
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.obs.tracer import tracer

    assert not tracer().enabled, "bench must run with tracing disabled"
    a, h, _, _ = operands
    raw = spmm.__wrapped__
    assert np.array_equal(spmm(a, h), raw(a, h))  # warm caches
    t_wrapped = _best_time(lambda: spmm(a, h))
    t_raw = _best_time(lambda: raw(a, h))
    assert t_wrapped <= 1.25 * t_raw, (
        f"traced-off {t_wrapped * 1e3:.3f} ms vs raw {t_raw * 1e3:.3f} ms "
        f"({t_wrapped / t_raw:.2f}x)"
    )


def test_transpose_perm_warm_cache_speedup(benchmark, operands):
    """Cached transpose permutation ≥1.5× faster than per-call argsort."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    a, _, _, _ = operands
    ref = _transpose_uncached(a)
    warm = a.transpose()  # builds transposed pattern + permutation once
    assert np.array_equal(warm.indices, ref.indices)
    assert np.array_equal(warm.data, ref.data)
    t_warm = _best_time(lambda: a.transpose())
    t_old = _best_time(lambda: _transpose_uncached(a))
    assert t_old >= 1.5 * t_warm, (
        f"cached {t_warm * 1e3:.3f} ms vs uncached {t_old * 1e3:.3f} ms "
        f"({t_old / t_warm:.2f}x)"
    )

"""Head-batched kernel stack: batched sweeps vs the per-head oracle.

The multi-head GAT layer runs every Table-2 kernel once over stacked
``(nnz, heads)`` edge values instead of looping the heads in Python.
These tests pin the contract down at every level:

* each batched kernel (SpMM on both backends, the SDDMM family,
  SpMMM/MSpMM, graph softmax forward/backward) matches the per-head
  loop bit-for-bit or to float64 roundoff;
* :class:`FlopCounter` tallies of the batched sweep equal the summed
  per-head loop *exactly*, per label;
* a multi-head GAT :class:`AttentionLayer` is allclose (rtol 1e-10)
  to ``heads`` single-head layers on its own parameter views (the
  oracle in :mod:`tests.reference_heads`) in forward and backward, and
  survives a finite-difference gradcheck for ``concat`` and ``mean``;
* the distributed multi-head layer sends ``heads``-times fewer
  messages than ``heads`` single-head passes at unchanged payload
  bytes (CommStats).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import distribute_adjacency, distribute_features
from repro.distributed.layers import DistAttentionLayer
from repro.distributed.ops import OpSequencer
from repro.models import AttentionLayer, layer_spec
from repro.obs.metrics import metrics
from repro.runtime import run_spmd, square_grid
from repro.tensor import kernels
from repro.tensor.kernels import (
    AVERAGE,
    masked_row_softmax,
    masked_row_softmax_backward,
    mspmm,
    sddmm_add,
    sddmm_cosine,
    sddmm_dot,
    spmm,
    spmm_reference,
    spmmm,
)
from repro.tensor.semiring import (
    REAL,
    TROPICAL_MAX,
    TROPICAL_MIN,
    adjacency_values,
)
from repro.util.counters import FlopCounter, null_counter
from tests.reference_heads import (
    combine_heads,
    head_gradients,
    single_heads,
    sum_head_backward,
)

HEADS = 4


def _gat_layer(in_dim, out_dim, **kwargs):
    return AttentionLayer(in_dim, out_dim, layer_spec("gat"), **kwargs)


def _per_head_step(layer, a, h, g, counter=null_counter()):
    """Forward + backward of the per-head oracle on ``layer``'s params."""
    heads = single_heads(layer, lambda: _gat_layer(
        layer.in_dim, layer.head_dim, activation="identity",
        dtype=layer.weight.dtype,
    ))
    outs, caches = zip(*(hd.forward(a, h, counter=counter) for hd in heads))
    dh, grads = sum_head_backward([
        hd.backward(cache, g_h, counter=counter)
        for hd, cache, g_h in zip(heads, caches, head_gradients(layer, g))
    ])
    return combine_heads(layer, outs), dh, grads


@pytest.fixture
def stacked(rng, small_adjacency):
    """Shared pattern plus stacked ``(n, heads, k)`` operands."""
    a = small_adjacency
    n = a.shape[0]
    k = 5
    x = rng.normal(size=(n, HEADS, k))
    y = rng.normal(size=(n, HEADS, k))
    vals = rng.normal(size=(a.nnz, HEADS))
    return a, x, y, vals


def _heads_of(x):
    return [np.ascontiguousarray(x[:, i]) for i in range(x.shape[1])]


def _numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array.

    Perturbs through ``x.reshape(-1)``, which stays a view because the
    stacked multi-head parameters are contiguous — itself part of the
    contract under test.
    """
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


# ----------------------------------------------------------------------
# Kernel-level parity
# ----------------------------------------------------------------------
class TestKernelParity:
    @pytest.mark.parametrize(
        "kernel", [spmm, spmm_reference], ids=["scipy", "reference"]
    )
    def test_spmm_batched_matches_per_head(self, stacked, kernel):
        a, x, _, vals = stacked
        sa = a.with_data(vals)
        out = kernel(sa, x)
        assert out.shape == x.shape
        for i, xi in enumerate(_heads_of(x)):
            ref = kernel(a.with_data(vals[:, i].copy()), xi)
            np.testing.assert_allclose(out[:, i], ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "semiring", [REAL, TROPICAL_MIN, TROPICAL_MAX, AVERAGE],
        ids=lambda s: s.name,
    )
    def test_spmm_batched_matches_the_oracle(self, stacked, semiring):
        """The dispatch against ``spmm_reference`` on stacked values:
        scipy's summation order for REAL, the very same path (so the
        very same bits) for every other semiring."""
        a, x, _, vals = stacked
        sa = a.with_data(adjacency_values(semiring, vals))
        out = spmm(sa, x, semiring=semiring)
        ref = spmm_reference(sa, x, semiring=semiring)
        if semiring is REAL:
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
        else:
            np.testing.assert_array_equal(out, ref)

    def test_spmm_batched_flat_layout(self, stacked):
        """A flat ``(n, heads*k)`` operand is the same computation."""
        a, x, _, vals = stacked
        sa = a.with_data(vals)
        n, _, k = x.shape
        flat = spmm(sa, np.ascontiguousarray(x.reshape(n, HEADS * k)))
        np.testing.assert_array_equal(flat, spmm(sa, x).reshape(n, HEADS * k))

    def test_spmm_batched_average_semiring(self, stacked):
        a, x, _, vals = stacked
        sa = a.with_data(vals)
        out = spmm(sa, x, semiring=AVERAGE)
        for i, xi in enumerate(_heads_of(x)):
            ref = spmm(a.with_data(vals[:, i].copy()), xi, semiring=AVERAGE)
            np.testing.assert_allclose(out[:, i], ref, rtol=1e-12, atol=1e-12)

    def test_sddmm_dot_batched_matches_per_head(self, stacked):
        a, x, y, _ = stacked
        out = sddmm_dot(a, x, y)
        assert out.shape == (a.nnz, HEADS)
        for i in range(HEADS):
            ref = sddmm_dot(a, *(_heads_of(z)[i] for z in (x, y)))
            np.testing.assert_allclose(out[:, i], ref, rtol=1e-12, atol=1e-12)

    def test_sddmm_dot_batched_chunked(self, stacked, monkeypatch):
        """A tiny chunk exercises the multi-chunk gather loop."""
        a, x, y, _ = stacked
        whole = sddmm_dot(a, x, y)
        monkeypatch.setattr(kernels, "_SDDMM_CHUNK", 7 * HEADS)
        np.testing.assert_array_equal(sddmm_dot(a, x, y), whole)

    def test_sddmm_add_batched_matches_per_head(self, stacked):
        a, x, y, _ = stacked
        u, v = x[:, :, 0].copy(), y[:, :, 0].copy()
        out = sddmm_add(a, u, v)
        assert out.shape == (a.nnz, HEADS)
        for i in range(HEADS):
            ref = sddmm_add(a, u[:, i].copy(), v[:, i].copy())
            np.testing.assert_array_equal(out[:, i], ref)

    def test_sddmm_cosine_batched_matches_per_head(self, stacked):
        a, x, _, _ = stacked
        out, norms = sddmm_cosine(a, x)
        assert out.shape == (a.nnz, HEADS) and norms.shape == x.shape[:2]
        for i, xi in enumerate(_heads_of(x)):
            ref, ref_norms = sddmm_cosine(a, xi)
            np.testing.assert_allclose(out[:, i], ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(norms[:, i], ref_norms, rtol=1e-12)

    def test_spmmm_batched_matches_per_head(self, stacked):
        a, x, _, vals = stacked
        sa = a.with_data(vals)
        w = np.linspace(-1, 1, x.shape[2] * 3).reshape(x.shape[2], 3)
        out = spmmm(sa, x, w)
        for i, xi in enumerate(_heads_of(x)):
            ref = spmmm(a.with_data(vals[:, i].copy()), xi, w)
            np.testing.assert_allclose(out[:, i], ref, rtol=1e-12, atol=1e-12)

    def test_mspmm_batched_matches_per_head(self, stacked):
        a, x, y, vals = stacked
        sa = a.with_data(vals)
        d = np.ascontiguousarray(x[:, 0].T)  # shared (kd, n) left operand
        out = mspmm(d, sa, y)
        assert out.shape == (HEADS, d.shape[0], y.shape[2])
        for i, yi in enumerate(_heads_of(y)):
            ref = mspmm(d, a.with_data(vals[:, i].copy()), yi)
            np.testing.assert_allclose(out[i], ref, rtol=1e-12, atol=1e-12)

    def test_masked_row_softmax_batched_matches_per_head(self, stacked):
        a, _, _, vals = stacked
        s = masked_row_softmax(a.with_data(vals))
        for i in range(HEADS):
            ref = masked_row_softmax(a.with_data(vals[:, i].copy()))
            np.testing.assert_allclose(
                s.data[:, i], ref.data, rtol=1e-12, atol=1e-12
            )

    def test_masked_row_softmax_backward_batched(self, rng, stacked):
        a, _, _, vals = stacked
        s = masked_row_softmax(a.with_data(vals))
        grad = rng.normal(size=(a.nnz, HEADS))
        out = masked_row_softmax_backward(
            s.data, grad, a.indptr, rows=a.expand_rows()
        )
        for i in range(HEADS):
            ref = masked_row_softmax_backward(
                np.ascontiguousarray(s.data[:, i]),
                np.ascontiguousarray(grad[:, i]),
                a.indptr,
            )
            np.testing.assert_allclose(out[:, i], ref, rtol=1e-12, atol=1e-12)

    def test_head_interleave_is_cached_per_pattern(self, stacked):
        a, x, _, vals = stacked
        sa = a.with_data(vals)
        spmm(sa, x)  # warm
        before = metrics().counters()
        spmm(sa, x)
        after = metrics().counters()
        assert after.get("head_interleave.computed", 0) == before.get(
            "head_interleave.computed", 0
        )
        assert after.get("head_scipy_view.hit", 0) > before.get(
            "head_scipy_view.hit", 0
        )


# ----------------------------------------------------------------------
# Flop accounting parity
# ----------------------------------------------------------------------
class TestFlopParity:
    def _sum_per_head(self, fns):
        total = FlopCounter()
        for fn in fns:
            c = FlopCounter()
            fn(c)
            total.merge(c)
        return total

    def assert_equal_counts(self, batched: FlopCounter, summed: FlopCounter):
        assert batched.total == summed.total
        assert batched.by_label == summed.by_label

    def test_kernel_flops_scale_by_heads(self, stacked):
        a, x, y, vals = stacked
        sa = a.with_data(vals)
        w = np.eye(x.shape[2])
        cases = [
            (lambda c: spmm(sa, x, counter=c),
             lambda c, i: spmm(
                 a.with_data(vals[:, i].copy()), _heads_of(x)[i], counter=c
             )),
            (lambda c: sddmm_dot(a, x, y, counter=c),
             lambda c, i: sddmm_dot(
                 a, _heads_of(x)[i], _heads_of(y)[i], counter=c
             )),
            (lambda c: sddmm_cosine(a, x, counter=c),
             lambda c, i: sddmm_cosine(a, _heads_of(x)[i], counter=c)),
            (lambda c: masked_row_softmax(sa, counter=c),
             lambda c, i: masked_row_softmax(
                 a.with_data(vals[:, i].copy()), counter=c
             )),
            (lambda c: spmmm(sa, x, w, counter=c),
             lambda c, i: spmmm(
                 a.with_data(vals[:, i].copy()), _heads_of(x)[i], w, counter=c
             )),
        ]
        for batched_fn, head_fn in cases:
            batched = FlopCounter()
            batched_fn(batched)
            summed = self._sum_per_head(
                [lambda c, i=i: head_fn(c, i) for i in range(HEADS)]
            )
            self.assert_equal_counts(batched, summed)

    @pytest.mark.parametrize("combine", ["concat", "mean"])
    def test_layer_flops_match_per_head_loop(self, rng, small_adjacency,
                                             combine):
        a = small_adjacency
        h = rng.normal(size=(a.shape[0], 6))
        g = rng.normal(size=(a.shape[0], 3 * HEADS if combine == "concat"
                             else 3))
        layer = _gat_layer(6, 3, heads=HEADS, combine=combine, seed=11,
                           activation="identity", dtype=np.float64)
        cb, co = FlopCounter(), FlopCounter()
        _, cache = layer.forward(a, h, counter=cb)
        layer.backward(cache, g, counter=cb)
        _per_head_step(layer, a, h, g, counter=co)
        self.assert_equal_counts(cb, co)


# ----------------------------------------------------------------------
# Layer-level parity and gradients
# ----------------------------------------------------------------------
class TestLayerParity:
    @pytest.mark.parametrize("combine", ["concat", "mean"])
    def test_batched_matches_oracle_forward_backward(self, rng,
                                                     small_adjacency,
                                                     combine):
        a = small_adjacency
        n = a.shape[0]
        h = rng.normal(size=(n, 6))
        layer = _gat_layer(6, 3, heads=HEADS, combine=combine, seed=3,
                           dtype=np.float64)
        out_b, cache = layer.forward(a, h)
        # layer.backward takes dL/dZ, which the oracle splits per head.
        g = rng.normal(size=out_b.shape)
        dh_b, grads_b = layer.backward(cache, g)
        out_o, dh_o, grads_o = _per_head_step(layer, a, h, g)
        np.testing.assert_allclose(out_b, out_o, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(dh_b, dh_o, rtol=1e-10, atol=1e-12)
        assert grads_b.keys() == grads_o.keys()
        for name in grads_o:
            np.testing.assert_allclose(
                grads_b[name], grads_o[name], rtol=1e-10, atol=1e-12
            )

    @pytest.mark.parametrize("combine", ["concat", "mean"])
    def test_gradcheck_batched(self, rng, small_adjacency, combine):
        a = small_adjacency
        n = a.shape[0]
        h = rng.normal(size=(n, 4))
        # Identity activation: layer.backward takes dL/dZ, so with
        # sigma = id the projection is directly the output gradient.
        layer = _gat_layer(
            4, 2, heads=2, combine=combine, activation="identity",
            seed=7, dtype=np.float64,
        )
        proj = rng.normal(size=(n, layer.out_dim))

        def loss():
            out, _ = layer.forward(a, h, training=False)
            return float(np.sum(out * proj))

        _, cache = layer.forward(a, h)
        _, grads = layer.backward(cache, proj)
        for name, param in layer.parameters().items():
            numeric = _numeric_gradient(loss, param, eps=1e-6)
            np.testing.assert_allclose(
                grads[name], numeric, rtol=2e-5, atol=1e-7,
                err_msg=f"gradient mismatch for {name} ({combine})",
            )


# ----------------------------------------------------------------------
# Distributed: message coalescing
# ----------------------------------------------------------------------
class TestDistributedCoalescing:
    HEADS = 4

    def _run(self, a, h, per_head):
        heads = self.HEADS

        def program(comm):
            grid = square_grid(comm)
            a_block = distribute_adjacency(a, grid)
            h_block = distribute_features(h, grid)
            layer = DistAttentionLayer(
                h.shape[1], 3, layer_spec("gat"), "elu", heads=heads, seed=5,
                dtype=np.float64,
            )
            passes = [layer]
            if per_head:
                passes = single_heads(layer, lambda: DistAttentionLayer(
                    h.shape[1], 3, layer_spec("gat"), "identity", dtype=np.float64,
                ))
            seq = OpSequencer()
            # Snapshot after block distribution: only the layer step's
            # traffic is under test.
            msgs0 = comm.stats.messages_sent
            bytes0 = comm.stats.bytes_sent
            outs = []
            for one in passes:
                one.bind(grid, seq)
                out, cache = one.forward(a_block, h_block)
                one.backward(cache, np.ones_like(out))
                outs.append(out)
            return (
                combine_heads(layer, outs) if per_head else outs[0],
                comm.stats.messages_sent - msgs0,
                comm.stats.bytes_sent - bytes0,
            )

        return run_spmd(4, program, timeout=60).values

    def test_batched_sends_heads_times_fewer_messages(self, rng):
        from repro.graphs import erdos_renyi
        from repro.graphs.prep import prepare_adjacency

        a = prepare_adjacency(erdos_renyi(24, 120, seed=2),
                              dtype=np.float64)
        h = rng.normal(size=(24, 6))
        results_b = self._run(a, h, per_head=False)
        results_p = self._run(a, h, per_head=True)
        for (out_b, msgs_b, bytes_b), (out_p, msgs_p, bytes_p) in zip(
            results_b, results_p
        ):
            np.testing.assert_allclose(out_b, out_p, rtol=1e-10, atol=1e-12)
            # Exactly heads-times fewer messages per rank than ``heads``
            # single-head passes.
            assert msgs_p == self.HEADS * msgs_b
            # Payload bytes are unchanged; the only slack is the 8-byte
            # algorithm flag each coalesced bcast sends once instead of
            # ``heads`` times (two bcasts per layer step: forward hp
            # row-broadcast and backward gradient row-broadcast).
            slack = 2 * 8 * (self.HEADS - 1)
            assert 0 <= bytes_p - bytes_b <= slack

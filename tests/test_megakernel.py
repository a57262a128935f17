"""Fused-vs-interpreter parity suite for the attention megakernel.

Three layers of assurance:

* **Kernel parity** — :func:`repro.tensor.megakernel.attention_forward`
  / ``attention_backward`` against a composition of the *unfused*
  Table-2 kernels (``sddmm_*`` → ``masked_row_softmax`` → ``spmm`` and
  their backward counterparts), across all three Psi kinds × {1, 8}
  heads × {empty-row, single-row, power-law} patterns at rtol 1e-10 —
  forward and every gradient output.
* **Program parity** — :class:`repro.fusion.layer.DagLayer` with
  ``fused=True`` (``AttentionLayer``'s sweep over the spec lowered from
  the layer DAG) against the kernel-at-a-time interpreter
  (``fused=False``), plus a numeric gradcheck through the fused path.
* **Resource guarantees** — on the C backend no ``(nnz,)``-sized
  score/softmax intermediate is materialised on the fused path (the
  engine's edge memo stays empty and what the allocator hands out beyond
  the returned arrays stays within a few vectors of the longest row;
  the NumPy fallback composes the unfused kernels and says so on its
  spans), the scratch length is memoised per pattern, flop accounting
  equals the summed unfused counts, and a ``DagLayer`` takes the sweep
  only when ``fused=True`` is passed.
* **Mixed operand dtypes** — float64 adjacency values over float32
  features run the same sweep as the all-float64 call.

``tests/test_fused_kernels.py`` holds the C entries against the NumPy
composition pattern by pattern.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.fusion.interp import ProgramRunner
from repro.fusion.layer import DagLayer
from repro.models.attention import LayerCache
from repro.graphs import erdos_renyi
from repro.graphs.powerlaw import powerlaw_graph
from repro.graphs.prep import prepare_adjacency
from repro.models import build_model
from repro.models.base import GnnModel
from repro.obs.metrics import metrics
from repro.obs.tracer import Tracer, install_tracer
from repro.training.loss import MSELoss
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import (
    masked_row_softmax,
    masked_row_softmax_backward,
    sddmm_add,
    sddmm_cosine,
    sddmm_dot,
    spmm,
)
from repro.tensor.megakernel import (
    attention_backward,
    attention_forward,
    plan_sweep,
)
from repro.tensor.segment import bincount_sum, segment_sum
from repro.util.counters import FlopCounter

from tests.conftest import random_csr

RTOL = 1e-10
ATOL = 1e-13
PSIS = ("dot", "add", "cosine")


# ----------------------------------------------------------------------
# Pattern zoo: the reduceat/balance edge cases the issue names
# ----------------------------------------------------------------------
def _single_row_csr(rng: np.random.Generator, n: int) -> CSRMatrix:
    """Only one row holds entries — extreme skew plus empty segments."""
    dense = np.zeros((n, n))
    cols = rng.choice(n, size=max(2, n // 3), replace=False)
    dense[n // 2, cols] = rng.normal(size=cols.size)
    return CSRMatrix.from_dense(dense)


def _patterns(rng: np.random.Generator) -> list[tuple[str, CSRMatrix]]:
    return [
        (
            "empty-row",
            random_csr(rng, 48, 48, density=0.15, ensure_empty_row=True),
        ),
        ("single-row", _single_row_csr(rng, 32)),
        (
            "power-law",
            prepare_adjacency(
                powerlaw_graph(96, 700, seed=5), dtype=np.float64
            ),
        ),
    ]


def _operands(rng, n, heads, k, kp, psi):
    shape3 = (n, k) if heads == 1 else (n, heads, k)
    shape3p = (n, kp) if heads == 1 else (n, heads, kp)
    shape1 = (n,) if heads == 1 else (n, heads)
    ops = {"y": rng.normal(size=shape3p), "dz": rng.normal(size=shape3p)}
    if psi == "add":
        ops["u"] = rng.normal(size=shape1)
        ops["v"] = rng.normal(size=shape1)
    else:
        x = rng.normal(size=shape3)
        ops["x"] = x
        ops["norms"] = np.sqrt(np.einsum("...j,...j->...", x, x))
    return ops


# ----------------------------------------------------------------------
# The kernel-at-a-time oracle: unfused Table-2 kernels, head-batched
# ----------------------------------------------------------------------
def unfused_reference(a, psi, ops, slope, beta, counter=None):
    """SDDMM → softmax → SpMM plus backward, one kernel per step."""
    counter = counter if counter is not None else FlopCounter()
    heads = 1 if ops["y"].ndim == 2 else ops["y"].shape[1]
    adata = a.data if heads == 1 else a.data[:, None]
    softmax = psi != "dot"
    if psi == "dot":
        raw = sddmm_dot(a, ops["x"], ops["x"], counter=counter)
    elif psi == "add":
        raw = sddmm_add(a, ops["u"], ops["v"], counter=counter)
        raw = np.where(raw > 0, raw, slope * raw)
    else:
        raw, _ = sddmm_cosine(
            a, ops["x"], norms=ops["norms"], counter=counter
        )
        raw = beta * raw
    masked = adata * raw
    if softmax:
        psi_vals = masked_row_softmax(
            a.with_data(masked), counter=counter
        ).data
    else:
        psi_vals = masked
    out = {"Z": spmm(a.with_data(psi_vals), ops["y"], counter=counter)}

    dpsi = sddmm_dot(a, ops["dz"], ops["y"], counter=counter)
    out["dY"] = spmm(
        a.with_data(psi_vals).transpose(), ops["dz"], counter=counter
    )
    if softmax:
        dmasked = masked_row_softmax_backward(
            psi_vals, dpsi, a.indptr, rows=a.expand_rows(), counter=counter
        )
    else:
        dmasked = dpsi
    if psi == "add":
        c = sddmm_add(a, ops["u"], ops["v"])
        dc = dmasked * adata * np.where(c > 0, 1.0, slope)
        out["dU"] = segment_sum(dc, a.indptr)
        out["dV"] = bincount_sum(a.indices, dc, a.shape[1])
        return out, counter
    if psi == "dot":
        dgram = dmasked * adata
    else:
        cos, _ = sddmm_cosine(a, ops["x"], norms=ops["norms"])
        denom = np.take(ops["norms"], a.expand_rows(), axis=0) * np.take(
            ops["norms"], a.indices, axis=0
        )
        out["dCoef"] = (dmasked * adata * cos).reshape(a.nnz, heads).sum(axis=0)
        dgram = dmasked * adata * beta / denom
        ddenom = -(dgram * cos)
        norms_col = (
            ops["norms"][:, None] if heads == 1 else ops["norms"][:, :, None]
        )
        nr = spmm(a.with_data(ddenom), norms_col, counter=counter)
        nc = spmm(
            a.with_data(ddenom).transpose(), norms_col, counter=counter
        )
        out["dNormRow"] = nr[..., 0]
        out["dNormCol"] = nc[..., 0]
    out["dRow"] = spmm(a.with_data(dgram), ops["x"], counter=counter)
    out["dCol"] = spmm(
        a.with_data(dgram).transpose(), ops["x"], counter=counter
    )
    return out, counter


def megakernel_results(a, psi, ops, slope, beta, counter=None):
    counter = counter if counter is not None else FlopCounter()
    kwargs = {"slope": slope, "beta": beta}
    if psi == "add":
        kwargs.update(u=ops["u"], v=ops["v"])
    else:
        kwargs.update(x_src=ops["x"], x_dst=ops["x"])
        if psi == "cosine":
            kwargs["norms"] = ops["norms"]
    z, stats = attention_forward(a, psi, ops["y"], counter=counter, **kwargs)
    grads = attention_backward(
        a, psi, ops["y"], ops["dz"], stats=stats, counter=counter, **kwargs
    )
    return {"Z": z, **grads}, counter


def _swept(cache) -> bool:
    """The layer's forward was one sweep: dense operands cached, no ``S``."""
    return isinstance(cache, LayerCache) and cache.ops is not None and cache.s is None


class TestKernelParity:
    """Megakernel vs the unfused kernel chain, every output.

    Parity is a tolerance (rtol 1e-10 at float64) wherever the two sum
    in different orders: always for ``cosine`` (the sweep folds the norm
    product in another place), and for every Psi once the unfused chain
    runs the compiled kernels. On the NumPy side (``--kernels numpy``)
    ``dot`` and ``add`` are the same arithmetic in the same order, and
    are held bit for bit.
    """

    @pytest.mark.parametrize("heads", [1, 8])
    @pytest.mark.parametrize("psi", PSIS)
    def test_forward_backward_parity(self, psi, heads, kernels_backend):
        exact = kernels_backend == "numpy" and psi != "cosine"
        rtol, atol = (0, 0) if exact else (RTOL, ATOL)
        rng = np.random.default_rng(42)
        for name, a in _patterns(rng):
            ops = _operands(rng, a.shape[0], heads, 5, 7, psi)
            want, _ = unfused_reference(a, psi, ops, slope=0.3, beta=0.7)
            got, _ = megakernel_results(a, psi, ops, slope=0.3, beta=0.7)
            assert set(got) == set(want)
            for key in want:
                np.testing.assert_allclose(
                    got[key], want[key], rtol=rtol, atol=atol,
                    err_msg=f"{psi}/{heads} heads/{name}/{key}",
                )

    @pytest.mark.parametrize("psi", PSIS)
    def test_flop_accounting_matches_unfused(self, psi):
        """Fused ops are counted once, equal to the summed unfused counts."""
        rng = np.random.default_rng(3)
        a = random_csr(rng, 40, 40, density=0.2, ensure_empty_row=True)
        for heads in (1, 8):
            ops = _operands(rng, 40, heads, 5, 7, psi)
            _, ref_counter = unfused_reference(
                a, psi, ops, slope=0.3, beta=0.7
            )
            _, mega_counter = megakernel_results(
                a, psi, ops, slope=0.3, beta=0.7
            )
            assert mega_counter.by_label == ref_counter.by_label
            assert mega_counter.total == ref_counter.total

    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("psi", PSIS)
    def test_mixed_operand_dtypes_take_the_same_sweep(self, psi, heads):
        """float64 adjacency values over float32 features: the operands
        are cast to the sweep dtype once, so the call equals the one
        whose operands were float64 to begin with."""
        rng = np.random.default_rng(9)
        for name, a in _patterns(rng):
            assert a.data.dtype == np.float64
            ops32 = {
                key: val.astype(np.float32)
                for key, val in _operands(
                    rng, a.shape[0], heads, 5, 7, psi
                ).items()
            }
            ops64 = {key: val.astype(np.float64) for key, val in ops32.items()}
            got, _ = megakernel_results(a, psi, ops32, slope=0.3, beta=0.7)
            want, _ = megakernel_results(a, psi, ops64, slope=0.3, beta=0.7)
            assert set(got) == set(want)
            for key in want:
                assert got[key].dtype == np.float64
                np.testing.assert_allclose(
                    got[key], want[key], rtol=1e-6, atol=1e-6,
                    err_msg=f"{psi}/{heads} heads/{name}/{key}",
                )


class TestProgramParity:
    """DagLayer(fused=True) against the interpreter it was derived on."""

    @pytest.fixture(scope="class")
    def adjacency(self):
        return prepare_adjacency(
            erdos_renyi(90, 720, seed=11), dtype=np.float64
        )

    @pytest.mark.parametrize("model,kw", [
        ("va", {}),
        ("agnn", {"beta": 0.7}),
        ("gat", {"slope": 0.3}),
    ])
    def test_layer_parity(self, adjacency, model, kw):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(90, 12))
        g = rng.normal(size=(90, 6))
        ref = DagLayer(model, 12, 6, seed=4, fused=False, **kw)
        fus = DagLayer(model, 12, 6, seed=4, fused=True, **kw)
        h_ref, cache_ref = ref.forward(adjacency, h)
        h_fus, cache_fus = fus.forward(adjacency, h)
        assert _swept(cache_fus) and isinstance(cache_ref.runner, ProgramRunner)
        np.testing.assert_allclose(h_fus, h_ref, rtol=RTOL, atol=ATOL)
        dh_ref, grads_ref = ref.backward(cache_ref, g)
        dh_fus, grads_fus = fus.backward(cache_fus, g)
        np.testing.assert_allclose(dh_fus, dh_ref, rtol=RTOL, atol=ATOL)
        assert set(grads_fus) == set(grads_ref)
        for key in grads_ref:
            np.testing.assert_allclose(
                grads_fus[key], grads_ref[key], rtol=RTOL, atol=ATOL,
                err_msg=f"{model}/{key}",
            )

    @pytest.mark.parametrize("model,kw", [
        ("va", {}),
        ("agnn", {"beta": 0.9}),
        ("gat", {"slope": 0.2}),
    ])
    def test_gradcheck_through_fused_layer(self, model, kw):
        """Central-difference check of every parameter gradient with the
        megakernel engaged end to end (same idiom as
        ``tests/test_models_gradcheck.py``)."""
        rng = np.random.default_rng(9)
        a = random_csr(rng, 20, 20, density=0.3, ensure_empty_row=True)
        h = rng.normal(size=(20, 4))
        target = rng.normal(size=(20, 3))
        net = GnnModel([
            DagLayer(model, 4, 5, activation="tanh", seed=2,
                     fused=True, **kw),
            DagLayer(model, 5, 3, activation="identity", seed=3,
                     fused=True, **kw),
        ])
        loss = MSELoss()
        out = net.forward(a, h, training=True)
        grads = net.backward(loss.gradient(out, target))
        eps = 1e-6
        for layer_index, layer in enumerate(net.layers):
            for name, param in layer.parameters().items():
                flat = param.reshape(-1)
                for i in rng.choice(
                    flat.size, size=min(5, flat.size), replace=False
                ):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = loss.value(net.forward(a, h, training=False), target)
                    flat[i] = orig - eps
                    down = loss.value(
                        net.forward(a, h, training=False), target
                    )
                    flat[i] = orig
                    numeric = (up - down) / (2 * eps)
                    analytic = np.asarray(
                        grads[layer_index][name]
                    ).reshape(-1)[i]
                    denom = max(1e-8, abs(numeric) + abs(analytic))
                    assert abs(numeric - analytic) / denom < 1e-6, (
                        f"{model} layer {layer_index} {name}[{i}]"
                    )


class TestResourceGuarantees:
    """No edge-sized intermediates on C; scratch length memoised; opt-in."""

    def test_no_nnz_sized_intermediates(self, kernels_backend):
        """Fused training step on a graph whose rows are far shorter than
        its edge list: beyond the arrays it returns, the C sweep allocates
        a few vectors of the longest row, and the layer around it (the
        derived operand VJP) a few dense ``(n, k)`` temporaries — nothing
        that grows with nnz, and no ``S``. The NumPy fallback composes
        the unfused kernels (edge arrays and all); there the test checks
        that it ran and that its spans say so."""
        a = prepare_adjacency(
            erdos_renyi(2048, 800000, seed=1), dtype=np.float64
        )
        longest = a.structure.degree_stats().max
        assert 1000 * longest < a.nnz  # the claim is non-vacuous
        rng = np.random.default_rng(0)
        h = rng.normal(size=(2048, 32))
        g = rng.normal(size=(2048, 16))
        layer = DagLayer("gat", 32, 16, seed=3, fused=True)
        # What the first step caches on the pattern (degree statistics)
        # is retained state, not scratch: warm it untraced.
        _, cache = layer.forward(a, h)
        layer.backward(cache, g)
        base = metrics().counters()
        scratch = []
        tracer = Tracer()
        install_tracer(tracer)
        tracemalloc.start()
        try:
            _, cache = layer.forward(a, h)
            held, peak = tracemalloc.get_traced_memory()
            scratch.append(peak - held)
            tracemalloc.reset_peak()
            gamma, grads = layer.backward(cache, g)
            held, peak = tracemalloc.get_traced_memory()
            scratch.append(peak - held)
            # The sweep alone, where nothing later hides its peak: what
            # it allocates minus what it returns.
            y, dz = rng.normal(size=(2, 2048, 16))
            ops = {"u": rng.normal(size=2048), "v": rng.normal(size=2048)}
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            z, stats = attention_forward(a, "add", y, **ops)
            returned = z.nbytes + stats.shift.nbytes + stats.denom.nbytes
            scratch.append(tracemalloc.get_traced_memory()[1] - held - returned)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            out = attention_backward(a, "add", y, dz, stats=stats, **ops)
            returned = sum(arr.nbytes for arr in out.values())
            scratch.append(tracemalloc.get_traced_memory()[1] - held - returned)
        finally:
            tracemalloc.stop()
            install_tracer(None)
        after = metrics().counters()
        assert _swept(cache)
        assert gamma.shape == h.shape and grads
        assert after.get("megakernel.forward", 0) > base.get(
            "megakernel.forward", 0
        )
        assert after.get("megakernel.backward", 0) > base.get(
            "megakernel.backward", 0
        )
        sweeps = [s for s in tracer.spans if s.name.startswith("megakernel.")]
        assert len(sweeps) == 4
        assert {s.attrs["backend"] for s in sweeps} == {kernels_backend}
        if kernels_backend == "numpy":
            # The composition ran: its unfused kernels sit under the sweep.
            assert any(s.name == "kernel.sddmm_add" and s.depth > 0 for s in tracer.spans)
            return
        # One scratch vector in the forward, four in the backward, each of
        # the longest row (heads = 1); the rest is tracemalloc's own
        # bookkeeping of small Python objects. The layer's backward also
        # holds the derived VJP's dense temporaries (GAT: the two rank-1
        # terms outer(dU, a_src), outer(dV, a_dst) and their sum).
        itemsize = h.dtype.itemsize
        cap = 8 * longest * itemsize
        dense = 3 * g.size * itemsize
        assert 10 * (cap + dense) < a.nnz * itemsize  # far below one (nnz,) edge array
        assert max(scratch[2:]) <= cap and max(scratch[:2]) <= cap + dense, (
            f"scratch {scratch} bytes (cap {cap} + {dense}, longest row {longest}, nnz={a.nnz})"
        )

    @pytest.mark.parametrize(
        "name,kw", [("gat", {"heads": 2}), ("agnn", {}), ("va", {})],
        ids=["gat-2-heads", "agnn", "va"],
    )
    def test_default_path_training_pass_holds_nothing_edge_sized(
        self, name, kw, kernels_backend
    ):
        """``build_model``'s layers, three deep, forward + backward: beyond
        the dense arrays the pass hands back or caches (operands, softmax
        statistics, outputs, gradients) it retains no more than a few
        vectors of the longest row — no ``S``, no transposed pattern, no
        row-index vector — and its transient peak stays well under one
        ``(nnz,)`` array. On the NumPy side the same pass runs the sweep's
        fallback, and its spans say so."""

        def array_bytes(obj, seen):
            """nbytes of every distinct buffer reachable from ``obj``."""
            if isinstance(obj, np.ndarray):
                while isinstance(obj.base, np.ndarray):
                    obj = obj.base
                seen.setdefault(id(obj), obj.nbytes)
            elif dataclasses.is_dataclass(obj):
                array_bytes([getattr(obj, f.name) for f in dataclasses.fields(obj)], seen)
            elif isinstance(obj, (dict, list, tuple)):
                for item in (obj.values() if isinstance(obj, dict) else obj):
                    array_bytes(item, seen)
            return sum(seen.values())

        a = prepare_adjacency(
            erdos_renyi(2048, 800000, seed=1), dtype=np.float64
        )
        longest = a.structure.degree_stats().max
        h = np.random.default_rng(0).normal(size=(2048, 8))
        model = build_model(name, 8, 8, 4, num_layers=3, seed=3,
                            dtype=np.float64, **kw)
        tracer = Tracer()
        install_tracer(tracer)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = model.forward(a, h, training=True)
            caches = model._caches
            grads = model.backward(np.ones_like(out) / out.size)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            install_tracer(None)
        sweeps = [s for s in tracer.spans if s.name.startswith("megakernel.")]
        assert len(sweeps) == 6
        assert {s.attrs["backend"] for s in sweeps} == {kernels_backend}
        if kernels_backend == "numpy":
            assert any(s.name.startswith("kernel.sddmm_") and s.depth > 0
                       for s in tracer.spans)
            return
        # The adjacency and the input were there before; the longest row
        # the first sweep memoises on the pattern is a scalar.
        given = {id(x): 0 for x in (a.data, a.indices, a.indptr, h)}
        dense = array_bytes([caches, out, grads], given)
        itemsize, heads = h.dtype.itemsize, kw.get("heads", 1)
        edge_array = a.nnz * itemsize
        cap = 8 * longest * heads * itemsize
        assert 50 * cap < edge_array
        assert held - base - dense <= cap, (held - base, dense, cap)
        assert 2 * (peak - base) < edge_array, (peak - base, edge_array)

    def test_plan_memoised_per_pattern_heads_k(self):
        """The scratch length is read from the pattern's memoised longest
        row: computed once, whatever heads and k are asked for."""
        a = prepare_adjacency(erdos_renyi(64, 512, seed=2), dtype=np.float64)
        longest = int(a.row_lengths().max())
        base = metrics().counters()
        assert plan_sweep(a.structure, 1, 32) == longest
        assert plan_sweep(a.structure, 1, 32) == longest
        assert plan_sweep(a.structure, 8, 16) == 8 * longest
        after = metrics().counters()
        assert after.get("max_row.computed", 0) - base.get(
            "max_row.computed", 0
        ) == 1
        assert after.get("max_row.hit", 0) - base.get("max_row.hit", 0) == 2
        assert not any(name.startswith("megaplan.") for name in after)

    def test_megakernel_is_opt_in_by_argument(self):
        a = random_csr(np.random.default_rng(4), 12, 12, density=0.4)
        h = np.random.default_rng(5).normal(size=(12, 4))
        layer_kwargs = dict(model="va", in_dim=4, out_dim=3, seed=1)
        _, cache = DagLayer(**layer_kwargs).forward(a, h)
        assert isinstance(cache.runner, ProgramRunner)  # default: interpreter
        _, cache = DagLayer(**layer_kwargs, fused=True).forward(a, h)
        assert _swept(cache)

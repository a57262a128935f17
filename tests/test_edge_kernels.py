"""The compiled library (``tensor/_edge.c``, the fused attention sweep)
against the NumPy kernels it fuses, stage by stage, and its loader.

Both backends run inside one process: the C side is whatever ``_edge``
loaded, the NumPy side is the same public ``attention_forward`` /
``attention_backward`` with the loader's resolved state patched to "not
available" (the switch ``--kernels numpy`` flips for a whole run), which
composes the unfused NumPy kernels. A C reduction sums in another order
than ``einsum`` / ``add.reduceat``, so the two agree to the tolerance
written in ``TOL`` — per dtype, for unit-scale operands of width
``k <= 32`` and rows of degree up to ~4200 — and not bit for bit. What
*is* bit for bit: a row against the same row swept from a sub-block, from
unaligned operands, from four threads at once, by a forward specialised
on its width or by a library built without the host's ISA flags.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.dist_local import dist_local_train
from repro.distributed.api import distributed_train
from repro.graphs import erdos_renyi, prepare_adjacency
from repro.models import build_model
from repro.obs.metrics import metrics
from repro.obs.tracer import Tracer, install_tracer
from repro.tensor import _edge, kernels
from repro.tensor.csr import CSRMatrix
from repro.tensor.megakernel import attention_backward, attention_forward
from repro.tensor.segment import segment_softmax
from repro.training import SGD, MinibatchTrainer, SoftmaxCrossEntropyLoss
from tests.conftest import random_csr

#: C vs NumPy: ``|c - numpy| <= atol + rtol * |numpy|`` per dtype.
TOL = {
    np.float32: dict(rtol=2e-5, atol=2e-5),
    np.float64: dict(rtol=1e-12, atol=1e-13),
}
DTYPES = [np.float32, np.float64]
HEADS = [1, 3]
K, KP = 32, 16
SRC = Path(__file__).parent.parent / "src"

def _compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


@pytest.fixture
def _needs_c(request, kernels_backend):
    """Skip without the compiled library (``--kernels numpy``, or no
    compiler on this box) — but where the C side was asked for
    (``--kernels c``, as CI's C leg runs) or a compiler exists, the library
    must really be there: a failed build may not turn these tests into
    NumPy against NumPy."""
    if request.config.getoption("--kernels") == "c" or (
        request.config.getoption("--kernels") is None and _compiler()
    ):
        assert kernels_backend == "c", kernels.backend()
    if kernels_backend != "c":
        pytest.skip("needs the compiled library")


needs_c = pytest.mark.usefixtures("_needs_c")


@contextmanager
def numpy_side():
    saved = _edge._state
    _edge._state = (None, "test oracle")
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _edge._state = saved


def _hub(n: int = 4200) -> CSRMatrix:
    """Square, row 0 stores every column (degree > 4096), a thin rest."""
    rng = np.random.default_rng(4)
    dense = rng.random((n, n)) < 2.0 / n
    dense[0, :] = True
    return CSRMatrix.from_dense(dense.astype(np.float64))


PATTERNS = {
    "nnz0": lambda: CSRMatrix(np.zeros(6, np.int64), np.zeros(0, np.int64),
                              np.zeros(0), (5, 5)),
    "empty_rows": lambda: random_csr(np.random.default_rng(1), 30, 30, 0.15,
                                     ensure_empty_row=True),
    "hub": _hub,
    "er": lambda: prepare_adjacency(erdos_renyi(200, 1500, seed=2)),
    "block": lambda: random_csr(np.random.default_rng(3), 40, 90, 0.2),
}


@pytest.fixture(scope="module", params=sorted(PATTERNS))
def pattern(request) -> CSRMatrix:
    return PATTERNS[request.param]()


def _operand(rng, n: int, heads: int, dtype, k: int | None = K) -> np.ndarray:
    shape = (n,) + ((heads,) if heads > 1 else ()) + (() if k is None else (k,))
    return rng.normal(size=shape).astype(dtype)


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...j,...j->...", x, x))


def _both(call):
    """``call()`` on the loaded backend and on the NumPy side."""
    got = call()
    with numpy_side():
        want = call()
    return got, want


def _close(got, want, dtype):
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, **TOL[dtype])


def _forward(a, psi, y, softmax=False, **ops) -> np.ndarray:
    return attention_forward(a, psi, y, softmax=softmax, **ops)[0]


def _chain(a, psi, y, dz, softmax=True, **ops) -> dict:
    """Forward and backward through the public functions, every output."""
    z, stats = attention_forward(a, psi, y, softmax=softmax, **ops)
    out = attention_backward(a, psi, y, dz, stats=stats, softmax=softmax, **ops)
    out["Z"] = z
    if stats is not None:
        out["shift"], out["denom"] = stats.shift, stats.denom
    return out


@needs_c
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("heads", HEADS)
class TestAgainstNumpy:
    """One stage of the chain at a time: each SDDMM kind aggregated
    without a softmax, then the softmax and the backward."""

    def test_sddmm_dot(self, pattern, heads, dtype, rng):
        a = pattern.astype(dtype)
        n, m = a.shape
        x, xd = _operand(rng, n, heads, dtype), _operand(rng, m, heads, dtype)
        y = _operand(rng, m, heads, dtype, KP)
        _close(*_both(lambda: _forward(a, "dot", y, x_src=x, x_dst=xd)), dtype)

    def test_sddmm_dot_odd_width(self, heads, dtype, rng):
        """Widths around the eight accumulator lanes, zero included."""
        a = PATTERNS["block"]().astype(dtype)
        y = _operand(rng, a.shape[1], heads, dtype, KP)
        for k in (0, 1, 7, 8, 9, 19):
            x = _operand(rng, a.shape[0], heads, dtype, k)
            xd = _operand(rng, a.shape[1], heads, dtype, k)
            _close(*_both(lambda: _forward(a, "dot", y, x_src=x, x_dst=xd)), dtype)

    def test_sddmm_add(self, pattern, heads, dtype, rng):
        a = pattern.astype(dtype)
        n, m = a.shape
        u = _operand(rng, n, heads, dtype, k=None)
        v = _operand(rng, m, heads, dtype, k=None)
        y = _operand(rng, m, heads, dtype, KP)
        _close(*_both(lambda: _forward(a, "add", y, u=u, v=v, slope=0.3)), dtype)

    @pytest.mark.parametrize("given_norms", [False, True])
    def test_sddmm_cosine(self, pattern, heads, dtype, rng, given_norms):
        """One vector at both endpoints, or (``given_norms``) each
        endpoint's own vector and norms, as on an off-diagonal block."""
        if pattern.shape[0] != pattern.shape[1]:
            pytest.skip("the rectangular block is covered by test_sddmm_dot")
        a = pattern.astype(dtype)
        x = _operand(rng, a.shape[0], heads, dtype)
        y = _operand(rng, a.shape[1], heads, dtype, KP)
        ops = {"x_src": x, "norms": _norms(x), "beta": 0.7}
        if given_norms:
            xd = _operand(rng, a.shape[1], heads, dtype)
            ops.update(x_dst=xd, norms_dst=_norms(xd))
        _close(*_both(lambda: _forward(a, "cosine", y, **ops)), dtype)

    def test_cosine_given_norms_and_eps_clip(self, heads, dtype, rng):
        """A zero norm product scores 0 on both sides; tiny norms are not
        clipped, so a scaled operand scores as the unscaled one."""
        a = PATTERNS["er"]().astype(dtype)
        x = _operand(rng, a.shape[0], heads, dtype)
        x[:5] = 0
        y = _operand(rng, a.shape[1], heads, dtype, KP)
        got, want = _both(lambda: attention_forward(
            a, "cosine", y, x_src=x, norms=_norms(x), softmax=False)[0])
        _close(got, want, dtype)
        assert not got[:5].any()  # every edge of a zero row scored 0
        tiny = (x * dtype(1e-6)).astype(dtype)
        got_tiny, want_tiny = _both(lambda: _forward(
            a, "cosine", y, x_src=tiny, norms=_norms(tiny)))
        _close(got_tiny, want_tiny, dtype)
        np.testing.assert_allclose(got_tiny, got, rtol=1e-3 if dtype is np.float32
                                   else 1e-9, atol=1e-3 if dtype is np.float32 else 1e-9)

    def test_row_softmax(self, pattern, heads, dtype, rng):
        a = pattern.astype(dtype)
        x = _operand(rng, a.shape[0], heads, dtype) * dtype(2)
        xd = _operand(rng, a.shape[1], heads, dtype)
        y = _operand(rng, a.shape[1], heads, dtype, KP)
        got, want = _both(lambda: attention_forward(
            a, "dot", y, x_src=x, x_dst=xd, softmax=True))
        _close(got[0], want[0], dtype)
        _close(got[1].shift, want[1].shift, dtype)
        _close(got[1].denom, want[1].denom, dtype)

    def test_row_softmax_backward(self, pattern, heads, dtype, rng):
        a = pattern.astype(dtype)
        n, m = a.shape
        ops = {"x_src": _operand(rng, n, heads, dtype),
               "x_dst": _operand(rng, m, heads, dtype)}
        y, dz = _operand(rng, m, heads, dtype, KP), _operand(rng, n, heads, dtype, KP)
        got, want = _both(lambda: _chain(a, "dot", y, dz, **ops))
        assert got.keys() == want.keys()
        for key in want:
            _close(got[key], want[key], dtype)


@needs_c
class TestNonFinite:
    """NaN / inf reach the same positions on both sides, without a crash
    and (on the C side) without a warning."""

    @staticmethod
    def _same_non_finites(got, want, dtype):
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_array_equal(np.isposinf(got), np.isposinf(want))
        np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
        ok = np.isfinite(want)
        np.testing.assert_allclose(got[ok], want[ok], **TOL[dtype])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sddmm(self, dtype, rng):
        """Non-finite operands through each score kind, no softmax."""
        a = PATTERNS["er"]().astype(dtype)
        h = _operand(rng, a.shape[0], 1, dtype)
        h[3, 2], h[10, 0], h[20, 5] = np.nan, np.inf, -np.inf
        h[30] = 0
        y = _operand(rng, a.shape[1], 1, dtype, KP)
        u = h[:, 0].copy()
        for psi, ops in (("dot", {"x_src": h}),
                         ("cosine", {"x_src": h, "norms": _norms(h)}),
                         ("add", {"u": u, "v": u[::-1].copy()})):
            with np.errstate(all="ignore"):
                got, want = _both(lambda: _forward(a, psi, y, **ops))
            assert not np.isfinite(want).all(), psi
            self._same_non_finites(got, want, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("heads", HEADS)
    def test_row_softmax_and_backward(self, dtype, heads, rng):
        """Non-finite edge values (the adjacency mask) into the softmax, and
        a row with nothing finite in it, forward and backward."""
        a = PATTERNS["er"]().astype(dtype)
        flat = a.data
        for i, bad in zip(rng.choice(flat.size, 12, replace=False),
                          [np.nan, np.inf, -np.inf] * 4):
            flat[i] = bad
        n, m = a.shape
        u = np.abs(_operand(rng, n, heads, dtype, k=None)) + dtype(1)
        v = np.abs(_operand(rng, m, heads, dtype, k=None))
        a.data[a.indptr[7]:a.indptr[8]] = -np.inf  # positive scores: all -inf
        y, dz = _operand(rng, m, heads, dtype, KP), _operand(rng, n, heads, dtype, KP)
        with np.errstate(all="ignore"):
            got, want = _both(lambda: _chain(a, "add", y, dz, u=u, v=v))
        assert np.isnan(want["Z"]).any() and np.isfinite(want["Z"]).any()
        assert np.isnan(want["Z"][7]).all()
        assert got.keys() == want.keys()
        for key in want:
            self._same_non_finites(got[key], want[key], dtype)


class TestValidation:
    """Shape errors of the NumPy row kernels are ``ValueError``s naming the
    kernel and the shape, the same whether or not the library loaded."""

    @pytest.fixture(params=["loaded", "numpy"])
    def side(self, request):
        if request.param == "loaded":
            yield
        else:
            with numpy_side():
                yield

    def test_backward_refuses_a_broadcast_gradient(self, side):
        a = PATTERNS["er"]()
        soft = np.full(a.nnz, 0.5)
        with pytest.raises(ValueError, match=r"masked_row_softmax_backward.*\(1,\)"):
            kernels.masked_row_softmax_backward(soft, np.ones(1), a.indptr)

    @pytest.mark.parametrize("shape", [(7,), (7, 2), (7, 2, 2)])
    def test_values_must_match_the_row_pointer(self, side, shape):
        a = PATTERNS["er"]()
        with pytest.raises(ValueError, match=r"segment_softmax.*\(7,"):
            segment_softmax(np.zeros(shape), a.indptr)
        with pytest.raises(ValueError, match="masked_row_softmax_backward"):
            kernels.masked_row_softmax_backward(
                np.zeros(shape), np.zeros(shape), a.indptr)

    def test_rows_must_match_the_values(self, side):
        a = PATTERNS["er"]()
        with pytest.raises(ValueError, match="segment_softmax.*rows"):
            segment_softmax(np.zeros(a.nnz), a.indptr, rows=np.zeros(3, np.int64))

    def test_empty_row_pointer(self, side):
        with pytest.raises(ValueError, match="segment_softmax"):
            segment_softmax(np.zeros(0), np.zeros(0, np.int64))
        assert segment_softmax(np.zeros(0), np.zeros(1, np.int64)).shape == (0,)

    def test_cosine_norms_of_the_wrong_length(self, side):
        a = PATTERNS["er"]()
        h = np.ones((a.shape[0], 4))
        with pytest.raises(ValueError, match=r"sddmm_cosine.*\(3,\)"):
            kernels.sddmm_cosine(a, h, norms=np.ones(3))
        with pytest.raises(ValueError, match="sddmm_cosine"):
            kernels.sddmm_cosine(a, h, norms=np.ones((a.shape[0], 1)))

    def test_a_decreasing_row_pointer_is_refused_not_read(self):
        bad = np.array([0, 9, 4, 6], np.int64)  # ends at len(values), dips inside
        with pytest.raises(ValueError, match="segment_softmax.*non-decreasing"):
            segment_softmax(np.zeros(6), bad)
        with pytest.raises(ValueError, match="masked_row_softmax_backward.*non-decr"):
            kernels.masked_row_softmax_backward(np.zeros(6), np.zeros(6), bad)


@needs_c
class TestOperandsThatAreNotPlainArrays:
    def test_non_contiguous_operands_are_copied_not_misread(self, rng):
        a = PATTERNS["block"]().astype(np.float32)
        wide = rng.normal(size=(a.shape[0], 2 * K)).astype(np.float32)
        x = wide[:, ::2]  # strided view
        xd = np.asfortranarray(rng.normal(size=(a.shape[1], K)).astype(np.float32))
        y = rng.normal(size=(a.shape[1], 2, KP)).astype(np.float32)[:, 1]
        dz = np.asfortranarray(rng.normal(size=(a.shape[0], KP)).astype(np.float32))
        assert not any(o.flags.c_contiguous for o in (x, xd, y, dz))
        got = _chain(a, "dot", y, dz, x_src=x, x_dst=xd)
        want = _chain(a, "dot", *(np.ascontiguousarray(o) for o in (y, dz)),
                      x_src=x.copy(), x_dst=np.ascontiguousarray(xd))
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)

    def test_mixed_and_unsupported_dtypes_take_the_numpy_path(self, rng):
        """float16 — alone, or with integer operands, which promote to it —
        has no C entry and runs the NumPy side, bit for bit; a float32 /
        float64 mix promotes to the float64 entry and stays on C."""
        a = PATTERNS["block"]()
        u = rng.normal(size=a.shape[0])
        v = rng.integers(-3, 3, a.shape[1]).astype(np.int8)
        y = rng.normal(size=(a.shape[1], KP))
        t = Tracer()
        install_tracer(t)
        try:
            for adj, ops in (
                (a.astype(np.float16), {"u": u.astype(np.float16), "v": v,
                                        "y": y.astype(np.float16)}),
                (a.astype(np.float16), {"u": u.astype(np.float16),
                                        "v": v.astype(np.float16),
                                        "y": y.astype(np.float16)}),
            ):
                with np.errstate(all="ignore"):
                    got, want = _both(lambda: _forward(adj, "add", **ops))
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            a32, y32 = a.astype(np.float32), y.astype(np.float32)
            mixed = _forward(a32, "add", y32, u=u, v=v)
            cast = _forward(a32.astype(np.float64), "add", y32.astype(np.float64),
                            u=u, v=v.astype(np.float64))
            assert mixed.dtype == np.float64
            np.testing.assert_array_equal(mixed, cast)
        finally:
            install_tracer(None)
        backends = [s.attrs["backend"] for s in t.spans if s.name == "megakernel.forward"]
        assert backends == ["numpy"] * 4 + ["c"] * 2


def _unaligned(x: np.ndarray) -> np.ndarray:
    """``x``'s values one element off ``x``'s own alignment."""
    buf = np.empty(x.size + 1, x.dtype)
    moved = buf[1:].reshape(x.shape)
    moved[...] = x
    assert moved.ctypes.data % 16 != x.ctypes.data % 16
    return moved


@needs_c
class TestBitsDependOnTheOperandsAlone:
    """The serving batched == per-request contract, at its root: a row
    sweeps the same inside any block and from any address."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [K, 19])
    def test_sub_block_and_unaligned_operands(self, dtype, k, rng):
        a = PATTERNS["er"]().astype(dtype)
        h = _operand(rng, a.shape[0], 1, dtype, k)
        y = _operand(rng, a.shape[1], 1, dtype, KP)
        dz = _operand(rng, a.shape[0], 1, dtype, KP)
        u = _operand(rng, a.shape[0], 1, dtype, None)
        v = _operand(rng, a.shape[1], 1, dtype, None)

        def sweep(adj, x_src, x_dst, y, dz, norms, norms_dst, u, v):
            ops = {"dot": dict(x_src=x_src, x_dst=x_dst),
                   "cosine": dict(x_src=x_src, x_dst=x_dst, norms=norms,
                                  norms_dst=norms_dst),
                   "add": dict(u=u, v=v)}  # the score loop on hardware gathers
            return {psi: _chain(adj, psi, y, dz, **kw) for psi, kw in ops.items()}

        norms = _norms(h)
        whole = sweep(a, h, h, y, dz, norms, norms, u, v)
        rows = np.array([5, 17, 18, 150])
        lengths = np.diff(a.indptr)[rows]
        take = np.concatenate([np.arange(a.indptr[r], a.indptr[r + 1]) for r in rows])
        sub = CSRMatrix(np.concatenate([[0], np.cumsum(lengths)]), a.indices[take],
                        a.data[take], (len(rows), a.shape[1]))
        part = sweep(sub, h[rows], h, y, dz[rows], norms[rows], norms, u[rows], v)
        row_side = {"dot": ("dRow",), "cosine": ("dRow", "dNormRow"), "add": ("dU",)}
        for psi in whole:  # every row-side output of those rows
            for key in ("Z", "shift", "denom") + row_side[psi]:
                np.testing.assert_array_equal(
                    part[psi][key], whole[psi][key][rows], err_msg=f"{psi} {key}")
        # The same values one element off their natural alignment, the
        # aggregated operand and the incoming gradient included.
        shifted = _unaligned(h)
        moved = sweep(a, shifted, shifted, _unaligned(y), _unaligned(dz), norms,
                      norms, _unaligned(u), _unaligned(v))
        for psi in whole:
            for key in whole[psi]:
                np.testing.assert_array_equal(
                    moved[psi][key], whole[psi][key], err_msg=f"{psi} {key}")


def _score_operands(psi: str, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> dict:
    """``psi``'s score operands: ``x`` (dot, cosine) or ``u`` / ``v`` (add)."""
    return {"dot": dict(x_src=x), "cosine": dict(x_src=x, norms=_norms(x)),
            "add": dict(u=u, v=v)}[psi]


@needs_c
class TestSpecialisedWidths:
    """The forward instantiates one-head rows with a literal output width
    for the widths the models use; each must equal the run-time-width
    instance, reached here by one zero column more."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("psi", ["dot", "add", "cosine"])
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_a_literal_width_equals_the_run_time_one(self, psi, dtype, width, rng):
        a = PATTERNS["er"]().astype(dtype)
        h = _operand(rng, a.shape[0], 1, dtype)
        ops = _score_operands(psi, h, h[:, 0].copy(), h[:, 1].copy())
        y = _operand(rng, a.shape[1], 1, dtype, width)
        z, stats = attention_forward(a, psi, y, softmax=True, **ops)
        z1, stats1 = attention_forward(
            a, psi, np.pad(y, ((0, 0), (0, 1))), softmax=True, **ops)
        np.testing.assert_array_equal(z1[:, :width], z)
        np.testing.assert_array_equal(stats1.shift, stats.shift)
        np.testing.assert_array_equal(stats1.denom, stats.denom)


def _sweep_every_case() -> dict[str, np.ndarray]:
    """Forward and backward of every kind, head count, dtype and width
    around the lanes and the specialised widths, on fixed operands."""
    rng = np.random.default_rng(7)
    base = PATTERNS["er"]()
    out = {}
    for psi in ("dot", "add", "cosine"):
        for heads in HEADS:
            for dtype in DTYPES:
                a = base.astype(dtype)
                n = a.shape[0]
                for width in (5, 8, 16, 32, 33, 64):
                    ops = _score_operands(
                        psi, _operand(rng, n, heads, dtype, width),
                        _operand(rng, n, heads, dtype, None),
                        _operand(rng, n, heads, dtype, None))
                    y = _operand(rng, n, heads, dtype, width)
                    dz = _operand(rng, n, heads, dtype, width)
                    name = f"{psi}-{heads}-{np.dtype(dtype).name}-{width}"
                    for key, value in _chain(a, psi, y, dz, **ops).items():
                        out[f"{name}-{key}"] = value
    return out


_PORTABLE_SWEEPS = """
import sys
import numpy as np
from repro.tensor import _edge, kernels
_edge._FLAGS = _edge._portable(_edge._FLAGS)
from tests.test_edge_kernels import _sweep_every_case
np.savez(sys.argv[1], **_sweep_every_case())
print(*kernels.backend(), sep="|")
"""


@needs_c
class TestBitsDependOnTheBuild:
    def test_the_portable_build_sweeps_the_host_builds_bits(self, tmp_path):
        """The host-ISA library against one built without ``-march`` /
        ``-mtune`` (a compiler that rejects them gets that one): the lane
        tree and ``-ffp-contract=off`` leave no bit to the ISA."""
        out = tmp_path / "portable.npz"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", _PORTABLE_SWEEPS, str(out)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(SRC), str(SRC.parent)])},
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("|")[0] == "c", proc.stdout
        portable = np.load(out)
        host = _sweep_every_case()
        assert sorted(portable.files) == sorted(host)
        for key, value in host.items():
            np.testing.assert_array_equal(portable[key], value, err_msg=key)


class TestThreads:
    def test_four_threads_equal_the_serial_result(self, rng):
        """Four rank threads meet in the loader and then in the sweep;
        the library holds no state, so each gets the serial bits."""
        a = PATTERNS["er"]().astype(np.float32)
        hs = [_operand(rng, a.shape[0], 1, np.float32) for _ in range(4)]
        y = _operand(rng, a.shape[1], 1, np.float32, KP)
        dz = _operand(rng, a.shape[0], 1, np.float32, KP)

        def work(h):
            return _chain(a, "cosine", y, dz, x_src=h, norms=_norms(h))

        serial = [work(h) for h in hs]
        results: list = [None] * 4
        saved, interval = _edge._state, sys.getswitchinterval()
        _edge._state = None  # every thread arrives at an unresolved loader
        sys.setswitchinterval(1e-5)
        try:
            def run(i):
                for _ in range(20):
                    results[i] = work(hs[i])

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert _edge._state is not None
        finally:
            sys.setswitchinterval(interval)
            _edge._state = saved
        for got, want in zip(results, serial):
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def _run_python(code: str, env: dict) -> subprocess.Popen:
    """A fresh interpreter under ``-W error`` with exactly this environment."""
    return subprocess.Popen(
        [sys.executable, "-W", "error", "-c", code],
        env={"PYTHONPATH": str(SRC), **env},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


_PROBE = """
import numpy as np
from repro.graphs import erdos_renyi, prepare_adjacency
from repro.obs.metrics import metrics
from repro.tensor import kernels
from repro.tensor.megakernel import attention_forward
a = prepare_adjacency(erdos_renyi(50, 200, seed=1))
h = np.random.default_rng(0).normal(size=(50, 8)).astype(np.float32)
z, _ = attention_forward(a, "dot", h, x_src=h, softmax=False)
ref = (a.to_dense() * (h @ h.T)) @ h
assert np.allclose(z, ref, rtol=2e-5, atol=2e-5)
snap = metrics().snapshot()
print(*kernels.backend(), sep="|")
print(snap.get("kernels.fallback", 0), snap.get("kernels.build_s"), sep="|")
"""


class TestColdStarts:
    @pytest.mark.skipif(_compiler() is None, reason="no C compiler on PATH")
    def test_two_processes_racing_a_cold_cache(self, tmp_path):
        env = {"XDG_CACHE_HOME": str(tmp_path), "HOME": str(tmp_path),
               "PATH": os.environ["PATH"]}
        procs = [_run_python(_PROBE, env) for _ in range(2)]
        outs = [p.communicate(timeout=300) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        libs = list((tmp_path / "repro").iterdir())
        assert len(libs) == 1 and libs[0].suffix == ".so", libs  # no temp left
        assert (tmp_path / "repro").stat().st_mode & 0o777 == 0o700
        for out, _ in outs:
            backend, path = out.splitlines()[0].split("|")
            assert (backend, path) == ("c", str(libs[0]))
        # A third start finds the cache warm: nothing is built.
        warm = _run_python(_PROBE, env)
        out, err = warm.communicate(timeout=300)
        assert warm.returncode == 0, err
        assert out.splitlines()[1] == "0|0.0"

    def test_no_compiler_on_path_serves_numpy_and_says_why(self, tmp_path):
        env = {"XDG_CACHE_HOME": str(tmp_path), "HOME": str(tmp_path),
               "PATH": str(tmp_path)}
        proc = _run_python(_PROBE, env)
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err  # -W error: nothing was warned about
        backend, reason = out.splitlines()[0].split("|")
        assert backend == "numpy" and "no C compiler" in reason
        assert out.splitlines()[1] == "1|None"  # counted once, nothing built

    @pytest.mark.skipif(_compiler() is None, reason="no C compiler on PATH")
    def test_each_host_builds_and_loads_its_own_library(self, tmp_path, monkeypatch):
        """One cache directory, two CPUs (the target probe answers for
        either): two libraries, and each host loads its own."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_edge, "_FLAGS", ("-O0", "-shared", "-fPIC"))  # a quick build
        probe = _edge._target

        def start_on(host: bytes) -> tuple[str, str]:
            monkeypatch.setattr(_edge, "_target", lambda cc, flags: probe(cc, flags) + host)
            monkeypatch.setattr(_edge, "_state", None)
            return kernels.backend()

        first, second = start_on(b"cpu a"), start_on(b"cpu b")
        assert first[0] == second[0] == "c" and first[1] != second[1]
        assert sorted(p.name for p in (tmp_path / "repro").iterdir()) == sorted(
            os.path.basename(path) for path in (first[1], second[1]))
        for host, built in ((b"cpu a", first), (b"cpu b", second)):
            assert start_on(host) == built
            assert metrics().gauge("kernels.build_s").value == 0.0  # loaded, not built

    @pytest.mark.skipif(_compiler() is None, reason="no C compiler on PATH")
    def test_a_compiler_that_rejects_the_host_flags_builds_portable(self, tmp_path):
        """Not the NumPy fallback: one more build without the host flags
        (the library the bit-contract test builds, so the cache shares it)."""
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        fake = bin_dir / "cc"
        fake.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do [ "$arg" = -march=native ] && exit 1; done\n'
            f'exec "{_compiler()}" "$@"\n'
        )
        fake.chmod(0o755)
        env = {key: os.environ[key] for key in ("HOME", "XDG_CACHE_HOME")
               if key in os.environ}
        env["PATH"] = os.pathsep.join([str(bin_dir), os.environ["PATH"]])
        proc = _run_python(_PROBE, env)
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        backend, path = out.splitlines()[0].split("|")
        assert backend == "c" and path != kernels.backend()[1], out
        assert out.splitlines()[1].split("|")[0] == "0"  # kernels.fallback


class TestSaysWhichBackendRan:
    def test_backend_and_span_attribute(self, kernels_backend, rng):
        """``backend()`` names the sweep's side and its spans carry it; the
        unfused kernels are NumPy only and carry none."""
        name, detail = kernels.backend()
        assert name == kernels_backend
        assert os.path.isfile(detail) if name == "c" else detail
        a = PATTERNS["er"]().astype(np.float32)
        h = _operand(rng, a.shape[0], 1, np.float32)
        t = Tracer()
        install_tracer(t)
        try:
            dots = kernels.sddmm_dot(a, h, h)
            kernels.sddmm_add(a, h[:, 0].copy(), h[:, 1].copy())
            kernels.sddmm_cosine(a, h)
            soft = kernels.masked_row_softmax(a.with_data(dots))
            kernels.masked_row_softmax_backward(soft.data, dots, a.indptr)
            attention_forward(a, "dot", h, x_src=h)
        finally:
            install_tracer(None)
        spans = [s for s in t.spans if s.depth == 0]
        assert [s.name for s in spans] == [
            "kernel.sddmm_dot", "kernel.sddmm_add", "kernel.sddmm_cosine",
            "kernel.masked_row_softmax", "kernel.masked_row_softmax_backward",
            "megakernel.forward",
        ]
        assert [s.attrs.get("backend") for s in spans] == [None] * 5 + [name]

    @needs_c
    def test_build_time_is_a_gauge(self):
        saved = _edge._state
        _edge._state = None
        try:
            assert kernels.backend()[0] == "c"
            assert metrics().gauge("kernels.build_s").value == 0.0  # warm cache
        finally:
            _edge._state = saved


@needs_c
class TestTheCLeg:
    """What CI's C leg holds a runner to: the library is the sweep, the
    sampler's weighted selection and its hop, every built-in layer —
    single-node, on each of four 1.5D ranks and on each rank of the local
    engine — is one forward and one backward sweep on C, with no unfused
    edge kernel, and sampled training samples its hops on C."""

    KERNELS = ("megakernel.", "kernel.sddmm", "kernel.masked")
    #: One rank's sorted sweep spans for a two-layer forward + backward.
    TWO_LAYERS = [("megakernel.backward", "c")] * 2 + [("megakernel.forward", "c")] * 2

    def test_every_layer_is_one_c_sweep_per_pass(self, monkeypatch):
        assert set(_edge._SIGNATURES) == {
            "attention_forward", "attention_backward", "smallest_per_segment", "sample_hop"}
        a = prepare_adjacency(erdos_renyi(64, 256, seed=0))
        model = build_model("gat", 8, 8, 4, num_layers=2, seed=0)
        t = Tracer()
        install_tracer(t)
        try:
            out = model.forward(a, np.ones((64, 8), np.float32), training=True)
            model.backward(np.ones_like(out))
        finally:
            install_tracer(None)
        spans = [(s.name, s.attrs.get("backend")) for s in t.spans
                 if s.name.startswith(self.KERNELS)]
        assert spans == [("megakernel.forward", "c")] * 2 + [
            ("megakernel.backward", "c")] * 2
        monkeypatch.setenv("REPRO_TRACE", "1")
        h = np.random.default_rng(0).normal(size=(64, 8)).astype(np.float32)
        r = distributed_train("agnn", a, h, np.zeros(64, np.int64), 8, 4,
                              num_layers=2, p=4)
        assert self._rank_sweeps(r.stats) == [self.TWO_LAYERS] * 4

    def test_every_local_engine_rank_is_one_c_sweep_per_pass(self, monkeypatch):
        """The DistDGL baseline runs build_model's layers on each rank's
        own+halo block: the same two sweeps per layer, no unfused kernel."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        a = prepare_adjacency(erdos_renyi(64, 256, seed=0))
        h = np.random.default_rng(0).normal(size=(64, 8)).astype(np.float32)
        _, stats = dist_local_train("gat", a, h, np.zeros(64, np.int64), 8, 4,
                                    num_layers=2, p=3)
        assert self._rank_sweeps(stats) == [self.TWO_LAYERS] * 3

    def test_sampled_steps_choose_neighbours_on_c(self):
        a = prepare_adjacency(erdos_renyi(64, 256, seed=0))
        model = build_model("gat", 8, 8, 4, num_layers=2, seed=0)
        trainer = MinibatchTrainer(model, SoftmaxCrossEntropyLoss(), SGD(0.01),
                                   fanouts=(2, 2), batch_size=32)
        t = Tracer()
        install_tracer(t)
        try:
            trainer.fit(a, np.ones((64, 8), np.float32), np.zeros(64, np.int64),
                        full_eval=False)
        finally:
            install_tracer(None)
        # Two batches of 32 targets, each sampled before its train_step.
        assert [s.attrs.get("backend") for s in t.spans
                if s.name == "minibatch.sample"] == ["c", "c"]

    def _rank_sweeps(self, stats):
        return [sorted((s.name, s.attrs.get("backend")) for s in q.tracer.spans
                       if s.name.startswith(self.KERNELS))
                for q in stats.per_rank]

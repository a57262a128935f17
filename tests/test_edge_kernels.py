"""The compiled edge kernels (``tensor/_edge.c``) against their NumPy oracle.

Both backends run inside one process: the C side is whatever
``_edge`` loaded, the NumPy side is the same public function with the
loader's resolved state patched to "not available" (the switch
``--kernels numpy`` flips for a whole run). A C reduction sums in
another order than ``einsum`` / ``add.reduceat``, so the two agree to
the tolerance written in ``TOL`` — per dtype, for unit-scale operands
of width ``k <= 32`` and rows of degree up to ~4200 — and not bit for
bit. What *is* bit for bit: a score against the same score computed
from a sub-block, from unaligned operands, or from four threads at
once.
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

from repro.graphs import erdos_renyi, prepare_adjacency
from repro.obs.metrics import metrics
from repro.obs.tracer import Tracer, install_tracer
from repro.tensor import _edge, kernels
from repro.tensor.csr import CSRMatrix
from repro.tensor.segment import segment_softmax
from tests.conftest import random_csr

#: C vs NumPy: ``|c - numpy| <= atol + rtol * |numpy|`` per dtype.
TOL = {
    np.float32: dict(rtol=2e-5, atol=2e-5),
    np.float64: dict(rtol=1e-12, atol=1e-13),
}
DTYPES = [np.float32, np.float64]
HEADS = [1, 3]
K = 32
SRC = Path(__file__).parent.parent / "src"

def _compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


@pytest.fixture
def _needs_c(request, kernels_backend):
    """Skip without the compiled library (``--kernels numpy``, or no
    compiler on this box) — but where a compiler exists and the C side
    was asked for, the library must really be there: a failed build may
    not turn these tests into NumPy against NumPy."""
    if request.config.getoption("--kernels") == "c" and _compiler():
        assert kernels_backend == "c", kernels.backend()
    if kernels_backend != "c":
        pytest.skip("needs the compiled edge kernels")


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


def _edge_values(rng, a: CSRMatrix, heads: int, dtype) -> np.ndarray:
    return _operand(rng, a.nnz, heads, dtype, k=None)


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


@needs_c
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("heads", HEADS)
class TestAgainstNumpy:
    def test_sddmm_dot(self, pattern, heads, dtype, rng):
        x = _operand(rng, pattern.shape[0], heads, dtype)
        y = _operand(rng, pattern.shape[1], heads, dtype)
        _close(*_both(lambda: kernels.sddmm_dot(pattern, x, y)), dtype)

    def test_sddmm_dot_odd_width(self, heads, dtype, rng):
        """Widths around the eight accumulator lanes, zero included."""
        a = PATTERNS["block"]()
        for k in (0, 1, 7, 8, 9, 19):
            x = _operand(rng, a.shape[0], heads, dtype, k)
            y = _operand(rng, a.shape[1], heads, dtype, k)
            _close(*_both(lambda: kernels.sddmm_dot(a, x, y)), dtype)

    def test_sddmm_add(self, pattern, heads, dtype, rng):
        u = _operand(rng, pattern.shape[0], heads, dtype, k=None)
        v = _operand(rng, pattern.shape[1], heads, dtype, k=None)
        got, want = _both(lambda: kernels.sddmm_add(pattern, u, v))
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, want)  # one add: no order to differ

    @pytest.mark.parametrize("given_norms", [False, True])
    def test_sddmm_cosine(self, pattern, heads, dtype, rng, given_norms):
        if pattern.shape[0] != pattern.shape[1]:
            pytest.skip("cosine scores one operand against itself")
        h = _operand(rng, pattern.shape[0], heads, dtype)
        norms = np.sqrt(np.einsum("...j,...j->...", h, h)) if given_norms else None
        got, want = _both(lambda: kernels.sddmm_cosine(pattern, h, norms=norms))
        assert len(got) == len(want) == 2
        _close(got[0], want[0], dtype)
        np.testing.assert_array_equal(got[1], want[1])  # the row norms
        if given_norms:
            assert got[1] is norms

    def test_cosine_given_norms_and_eps_clip(self, heads, dtype, rng):
        a = PATTERNS["er"]()
        h = _operand(rng, a.shape[0], heads, dtype)
        h[:5] = 0  # zero rows: the denominator is the eps clip
        norms = np.sqrt(np.einsum("...j,...j->...", h, h))
        got, want = _both(lambda: kernels.sddmm_cosine(
            a, h, norms=norms, eps=1e-6))
        _close(got[0], want[0], dtype)
        touched = (a.expand_rows() < 5) | (a.indices < 5)
        assert touched.any() and not got[0][touched].any()  # 0 / eps
        # Tiny norms: the product is below eps, so the clip is the divisor.
        tiny = (h * dtype(1e-6)).astype(dtype)
        got, want = _both(lambda: kernels.sddmm_cosine(a, tiny, eps=1e-6))
        _close(got[0], want[0], dtype)
        assert np.abs(got[0]).max() < 1e-3

    def test_row_softmax(self, pattern, heads, dtype, rng):
        s = pattern.with_data(_edge_values(rng, pattern, heads, dtype) * 4)
        got, want = _both(lambda: kernels.masked_row_softmax(s).data)
        _close(got, want, dtype)
        raw, _ = _both(lambda: segment_softmax(s.data, s.indptr))
        np.testing.assert_array_equal(raw, got)  # rows= changes nothing

    def test_row_softmax_backward(self, pattern, heads, dtype, rng):
        soft = kernels.masked_row_softmax(
            pattern.with_data(_edge_values(rng, pattern, heads, dtype))).data
        grad = _edge_values(rng, pattern, heads, dtype)
        for rows in (None, pattern.expand_rows()):
            _close(*_both(lambda: kernels.masked_row_softmax_backward(
                soft, grad, pattern.indptr, rows=rows)), dtype)


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
        a = PATTERNS["er"]()
        h = _operand(rng, a.shape[0], 1, dtype)
        h[3, 2], h[10, 0], h[20, 5] = np.nan, np.inf, -np.inf
        h[30] = 0
        self._same_non_finites(
            *_both(lambda: kernels.sddmm_dot(a, h, h)), dtype)
        for g, w in zip(*_both(lambda: kernels.sddmm_cosine(a, h))):
            self._same_non_finites(g, w, dtype)
        u = h[:, 0].copy()
        self._same_non_finites(
            *_both(lambda: kernels.sddmm_add(a, u, u[::-1].copy())), dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("heads", HEADS)
    def test_row_softmax_and_backward(self, dtype, heads, rng):
        a = PATTERNS["er"]()
        values = _edge_values(rng, a, heads, dtype)
        flat = values.reshape(-1)
        for i, bad in zip(rng.choice(flat.size, 12, replace=False),
                          [np.nan, np.inf, -np.inf] * 4):
            flat[i] = bad
        lo, hi = a.indptr[7], a.indptr[8]
        values[lo:hi] = -np.inf  # a row with nothing finite in it
        got, want = _both(lambda: segment_softmax(values, a.indptr))
        self._same_non_finites(got, want, dtype)
        assert np.isnan(got).any() and np.isfinite(got).any()
        grad = _edge_values(rng, a, heads, dtype)
        self._same_non_finites(*_both(
            lambda: kernels.masked_row_softmax_backward(want, grad, a.indptr)
        ), dtype)


class TestValidation:
    """Shape errors are ``ValueError``s naming the kernel and the shape,
    the same on both backends, before any pointer crosses into C."""

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

    @needs_c
    def test_a_decreasing_row_pointer_is_refused_not_read(self):
        bad = np.array([0, 9, 4, 6], np.int64)  # ends at len(values), dips inside
        with pytest.raises(ValueError, match="segment_softmax.*non-decreasing"):
            segment_softmax(np.zeros(6), bad)
        with pytest.raises(ValueError, match="masked_row_softmax_backward.*non-decr"):
            kernels.masked_row_softmax_backward(np.zeros(6), np.zeros(6), bad)


@needs_c
class TestOperandsThatAreNotPlainArrays:
    def test_non_contiguous_operands_are_copied_not_misread(self, rng):
        a = PATTERNS["block"]()
        wide = rng.normal(size=(a.shape[0], 2 * K)).astype(np.float32)
        x = wide[:, ::2]  # strided view
        y = np.asfortranarray(rng.normal(size=(a.shape[1], K)).astype(np.float32))
        assert not x.flags.c_contiguous and not y.flags.c_contiguous
        np.testing.assert_array_equal(
            kernels.sddmm_dot(a, x, y),
            kernels.sddmm_dot(a, x.copy(), np.ascontiguousarray(y)),
        )
        vals = rng.normal(size=(a.nnz, 4))[:, ::2]
        np.testing.assert_array_equal(
            segment_softmax(vals, a.indptr),
            segment_softmax(vals.copy(), a.indptr),
        )

    def test_mixed_and_unsupported_dtypes_take_the_numpy_path(self, rng):
        a = PATTERNS["block"]()
        x = rng.normal(size=(a.shape[0], K)).astype(np.float32)
        y = rng.normal(size=(a.shape[1], K))
        for call in (
            lambda: kernels.sddmm_dot(a, x, y),
            lambda: kernels.sddmm_add(a, x[:, 0], y[:, 0]),
            lambda: kernels.masked_row_softmax_backward(
                np.ones(a.nnz, np.float32), np.ones(a.nnz), a.indptr),
            lambda: segment_softmax(np.ones(a.nnz, np.float16), a.indptr),
            lambda: segment_softmax(np.ones(a.nnz, np.int32), a.indptr),
        ):
            got, want = _both(call)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@needs_c
class TestBitsDependOnTheOperandsAlone:
    """The serving batched == per-request contract, at its root: a row
    scores the same inside any block and from any address."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [K, 19])
    def test_sub_block_and_unaligned_operands(self, dtype, k, rng):
        a = PATTERNS["er"]().astype(dtype)
        h = _operand(rng, a.shape[0], 1, dtype, k)
        whole = kernels.sddmm_dot(a, h, h)
        cos = kernels.sddmm_cosine(a, h)[0]
        soft = segment_softmax(whole, a.indptr)
        rows = np.array([5, 17, 18, 150])
        lengths = np.diff(a.indptr)[rows]
        sub_indptr = np.concatenate([[0], np.cumsum(lengths)])
        take = np.concatenate([np.arange(a.indptr[r], a.indptr[r + 1]) for r in rows])
        sub = CSRMatrix(sub_indptr, a.indices[take], a.data[take],
                        (len(rows), a.shape[1]))
        np.testing.assert_array_equal(
            kernels.sddmm_dot(sub, h[rows], h), whole[take])
        np.testing.assert_array_equal(
            segment_softmax(whole[take], sub_indptr), soft[take])
        # The same values one element off their natural alignment.
        buf = np.empty(h.size + 1, dtype)
        shifted = buf[1:].reshape(h.shape)
        shifted[...] = h
        assert shifted.ctypes.data % 16 != h.ctypes.data % 16
        np.testing.assert_array_equal(kernels.sddmm_dot(a, shifted, shifted), whole)
        np.testing.assert_array_equal(kernels.sddmm_cosine(a, shifted)[0], cos)


class TestThreads:
    def test_four_threads_equal_the_serial_result(self, rng):
        """Four rank threads meet in the loader and then in the kernels;
        the library holds no state, so each gets the serial bits."""
        a = PATTERNS["er"]().astype(np.float32)
        hs = [_operand(rng, a.shape[0], 1, np.float32) for _ in range(4)]

        def work(h):
            cos = kernels.sddmm_cosine(a, h)[0]
            soft = segment_softmax(cos, a.indptr)
            return cos, soft, kernels.masked_row_softmax_backward(
                soft, kernels.sddmm_dot(a, h, h), a.indptr)

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
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


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
a = prepare_adjacency(erdos_renyi(50, 200, seed=1))
h = np.random.default_rng(0).normal(size=(50, 8)).astype(np.float32)
d = kernels.sddmm_dot(a, h, h)
ref = np.einsum("ij,ij->i", h[a.expand_rows()], h[a.indices])
assert np.allclose(d, ref, rtol=2e-5, atol=2e-5)
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


class TestSaysWhichBackendRan:
    def test_backend_and_span_attribute(self, kernels_backend, rng):
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
            kernels.sddmm_dot(a, h, h.astype(np.float64))
        finally:
            install_tracer(None)
        spans = [s for s in t.spans if s.depth == 0]
        assert [s.name for s in spans] == [
            "kernel.sddmm_dot", "kernel.sddmm_add", "kernel.sddmm_cosine",
            "kernel.masked_row_softmax", "kernel.masked_row_softmax_backward",
            "kernel.sddmm_dot",
        ]
        assert [s.attrs["backend"] for s in spans] == [name] * 5 + ["numpy"]

    @needs_c
    def test_build_time_is_a_gauge(self):
        saved = _edge._state
        _edge._state = None
        try:
            assert kernels.backend()[0] == "c"
            assert metrics().gauge("kernels.build_s").value == 0.0  # warm cache
        finally:
            _edge._state = saved

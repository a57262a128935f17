"""The fused attention entries of ``tensor/_edge.c`` against their NumPy side.

``attention_forward`` / ``attention_backward`` dispatch once: the C row
sweep when the library loaded, otherwise the same chain composed from the
unfused NumPy kernels. Both run here in one process
(``tests/test_edge_kernels.py`` has the harness, the per-dtype ``TOL`` and
the library's loader, threads and bit-stability); the two agree to that
tolerance, not bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import erdos_renyi, prepare_adjacency
from repro.graphs.powerlaw import powerlaw_graph
from repro.obs.tracer import Tracer, install_tracer
from repro.tensor import _edge, kernels
from repro.tensor.csr import CSRMatrix
from repro.tensor.megakernel import SweepStats, attention_backward, attention_forward
from repro.tensor.sampling_graph import sample_blocks
from repro.tensor.segment import segment_softmax
from tests.conftest import random_csr
from tests.reference_blocks import square_hop
from tests.test_edge_kernels import TOL, _both, _needs_c, needs_c, numpy_side  # noqa: F401

#: (psi, softmax): the layer formulations, plus VA's dot under a softmax.
CHAINS = [("add", True), ("cosine", True), ("dot", False), ("dot", True)]
HEADS = [1, 8]
#: (adjacency dtype, operand dtype); both backends promote to the wider.
DTYPES = {
    "f32": (np.float32, np.float32),
    "f64": (np.float64, np.float64),
    "f64_over_f32": (np.float64, np.float32),
}
K, KP = 19, 32  # a lane tail and whole lane steps
SLOPE, BETA = 0.3, 0.7


def _hub(n: int = 300) -> CSRMatrix:
    """Row 0 stores every column; the other rows together store fewer."""
    rest = np.arange(3, n, 3)
    lengths = np.zeros(n, np.int64)
    lengths[0], lengths[rest] = n, 2
    indices = np.concatenate([np.arange(n), np.stack([rest - 2, rest], 1).ravel()])
    data = np.random.default_rng(4).normal(1.0, 0.3, indices.size)
    return CSRMatrix(np.concatenate([[0], np.cumsum(lengths)]), indices, data, (n, n))


def _hop_block() -> CSRMatrix:
    """A sampled hop in the square frame of its sources: every
    non-destination row is empty."""
    a = prepare_adjacency(erdos_renyi(200, 1500, seed=2), dtype=np.float64)
    block = sample_blocks(a, np.arange(0, 40, 3), (4,), np.random.default_rng(0))[0]
    square = square_hop(block.matrix, block.dst_positions)
    assert np.count_nonzero(square.row_lengths() == 0) > block.dst_positions.shape[0]
    return square


PATTERNS = {
    "n0": lambda: CSRMatrix(np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0), (0, 0)),
    "nnz0": lambda: CSRMatrix(np.zeros(6, np.int64), np.zeros(0, np.int64), np.zeros(0), (5, 5)),
    "empty_rows": lambda: random_csr(np.random.default_rng(1), 30, 30, 0.15, ensure_empty_row=True),
    "hub": _hub,
    "powerlaw": lambda: prepare_adjacency(powerlaw_graph(96, 700, seed=5), dtype=np.float64),
    "hop_block": _hop_block,
    "rect": lambda: random_csr(np.random.default_rng(3), 40, 90, 0.2),
}


@pytest.fixture(scope="module", params=sorted(PATTERNS))
def pattern(request) -> CSRMatrix:
    return PATTERNS[request.param]()


def _call(rng, a: CSRMatrix, psi: str, heads: int, dtype) -> dict:
    """Keyword operands of one chain over ``a`` (``dz`` included)."""
    n, m = a.shape
    stack = (heads,) if heads > 1 else ()

    def draw(*shape):
        return rng.normal(size=shape).astype(dtype)

    kw = {"y": draw(m, *stack, KP), "dz": draw(n, *stack, KP), "slope": SLOPE, "beta": BETA}
    if psi == "add":
        kw.update(u=draw(n, *stack), v=draw(m, *stack))
    else:
        kw.update(x_src=draw(n, *stack, K), x_dst=draw(m, *stack, K))
        if psi == "cosine":  # each endpoint's own norms, as on an off-diagonal block
            kw["norms"], kw["norms_dst"] = (
                np.sqrt(np.einsum("...j,...j->...", x, x)) for x in (kw["x_src"], kw["x_dst"]))
    return kw


def _chain(a, psi, softmax, kw) -> dict:
    """Forward and backward through the public functions, every output."""
    ops = {key: val for key, val in kw.items() if key not in ("y", "dz")}
    z, stats = attention_forward(a, psi, kw["y"], softmax=softmax, **ops)
    out = attention_backward(a, psi, kw["y"], kw["dz"], stats=stats, softmax=softmax, **ops)
    out["Z"] = z
    if stats is not None:
        out["shift"], out["denom"] = stats.shift, stats.denom
    return out


def _split_row_exits(a, psi, softmax, kw) -> dict:
    """The backward's two other modes: ``dY`` alone, and every exit with
    the softmax's row inner handed in as ``dz . z`` (what a row split
    across blocks is given)."""
    ops = {key: val for key, val in kw.items() if key not in ("y", "dz")}
    z, stats = attention_forward(a, psi, kw["y"], softmax=softmax, **ops)
    out = {"dY alone": attention_backward(
        a, psi, kw["y"], kw["dz"], stats=stats, softmax=softmax, score_grad=False, **ops
    )["dY"]}
    if stats is not None:
        inner = np.einsum("...k,...k->...", kw["dz"], z).reshape(stats.shift.shape)
        given = attention_backward(
            a, psi, kw["y"], kw["dz"], stats=stats, row_inner=inner, softmax=softmax, **ops
        )
        out.update({f"{key} given inner": val for key, val in given.items()})
    return out


def _unfused_forward(a, psi, softmax, kw) -> np.ndarray:
    """The unfused NumPy kernels, one after another."""
    stacked = kw["y"].ndim == 3
    if psi == "add":
        raw = kernels.sddmm_add(a, kw["u"], kw["v"])
        raw = np.where(raw > 0, raw, raw.dtype.type(SLOPE) * raw)
    else:
        raw = kernels.sddmm_dot(a, kw["x_src"], kw["x_dst"])
    masked = raw * (a.data[:, None] if stacked else a.data)
    if softmax:
        masked = segment_softmax(masked, a.indptr)
    return kernels.spmm(a.with_data(masked), kw["y"])


@needs_c
@pytest.mark.parametrize("dtypes", sorted(DTYPES))
@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("psi,softmax", CHAINS)
class TestAgainstNumpy:
    def test_every_output(self, pattern, psi, softmax, heads, dtypes, rng):
        adj_dtype, dtype = DTYPES[dtypes]
        a = pattern.astype(adj_dtype)
        kw = _call(rng, a, psi, heads, dtype)
        got, want = _both(lambda: {**_chain(a, psi, softmax, kw),
                                   **_split_row_exits(a, psi, softmax, kw)})
        wide = np.result_type(adj_dtype, dtype).type
        assert set(got) == set(want)
        for key in want:
            assert got[key].dtype == want[key].dtype == np.dtype(wide), key
            assert got[key].shape == want[key].shape, key
            np.testing.assert_allclose(got[key], want[key], err_msg=key, **TOL[wide])


@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("psi,softmax", CHAINS)
class TestSplitRowModes:
    """On whichever side is loaded: ``dY`` alone is the full backward's
    ``dY`` bit for bit, and a row inner handed in that equals the row's
    own gives the in-row exits to the backend's tolerance."""

    def test_agree_with_the_whole_row(self, kernels_backend, psi, softmax, heads, rng):
        for name in ("empty_rows", "powerlaw", "rect"):
            a = PATTERNS[name]()
            kw = _call(rng, a, psi, heads, np.float64)
            whole, split = _chain(a, psi, softmax, kw), _split_row_exits(a, psi, softmax, kw)
            np.testing.assert_array_equal(split["dY alone"], whole["dY"], err_msg=name)
            for key in (whole.keys() - {"Z", "shift", "denom"}) if softmax else ():
                np.testing.assert_allclose(
                    split[f"{key} given inner"], whole[key], err_msg=f"{name} {key}",
                    **TOL[np.float64],
                )

    def test_row_inner_needs_a_softmax_and_its_shape(self, psi, softmax, heads, rng):
        a = PATTERNS["powerlaw"]()
        kw = _call(rng, a, psi, heads, np.float64)
        y, dz = kw.pop("y"), kw.pop("dz")
        _, stats = attention_forward(a, psi, y, softmax=softmax, **kw)
        for bad in (np.zeros((a.shape[0], heads + 1)), np.zeros(a.shape[0] + 1)):
            with pytest.raises(ValueError, match="^row_inner has shape"):
                attention_backward(a, psi, y, dz, stats=stats, softmax=softmax,
                                   row_inner=bad, **kw)
        if not softmax:
            with pytest.raises(ValueError, match="^row_inner has shape"):
                attention_backward(a, psi, y, dz, softmax=False,
                                   row_inner=np.zeros((a.shape[0], heads)), **kw)


@needs_c
class TestNonFinite:
    """NaN / inf scores and a row with nothing finite in it put non-finites
    where the unfused kernels put them, on both sides, without a crash."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_like_the_unfused_kernels(self, dtype, rng):
        a = PATTERNS["powerlaw"]().astype(dtype)
        kw = _call(rng, a, "add", 1, dtype)
        kw["u"][3], kw["v"][10], kw["v"][20] = np.nan, np.inf, -np.inf
        kw["u"][7] = -np.inf  # every score of row 7 is -inf
        ops = {key: val for key, val in kw.items() if key not in ("y", "dz")}
        with np.errstate(all="ignore"):
            want = _unfused_forward(a, "add", True, kw)
        got, fallback = _both(lambda: attention_forward(a, "add", kw["y"], **ops)[0])
        assert np.isnan(want[[3, 7]]).all() and np.isfinite(want).any()
        for z in (got, fallback):
            np.testing.assert_array_equal(np.isnan(z), np.isnan(want))
            np.testing.assert_array_equal(np.isinf(z), np.isinf(want))
            ok = np.isfinite(want)
            np.testing.assert_allclose(z[ok], want[ok], **TOL[dtype])

    def test_backward_agrees_on_where(self, rng):
        a = PATTERNS["powerlaw"]()
        kw = _call(rng, a, "cosine", 1, np.float64)
        kw["x_src"][5] = 0  # a zero norm: the safe division scores 0
        kw["x_src"][9, 2] = np.inf
        kw["x_dst"], kw["norms_dst"] = kw["x_src"], None  # one vector, both endpoints
        kw["norms"] = np.sqrt(np.einsum("ij,ij->i", kw["x_src"], kw["x_src"]))
        with np.errstate(all="ignore"):
            got, want = _both(lambda: _chain(a, "cosine", True, kw))
        for key in want:
            np.testing.assert_array_equal(np.isnan(got[key]), np.isnan(want[key]), key)
            ok = np.isfinite(want[key])
            np.testing.assert_allclose(got[key][ok], want[key][ok], **TOL[np.float64])
        assert np.isfinite(want["Z"][5]).all()


class TestValidation:
    """A shape that does not fit is one ``ValueError`` naming the operand,
    the same on both backends, before any pointer crosses into C."""

    @pytest.fixture(params=["loaded", "numpy"])
    def side(self, request):
        if request.param == "loaded":
            yield
        else:
            with numpy_side():
                yield

    @pytest.mark.parametrize("psi,operand,shape", [
        ("add", "y", (39, KP)),
        ("add", "y", (90,)),
        ("add", "dz", (41, KP)),
        ("add", "dz", (40, KP + 1)),
        ("add", "u", (90,)),
        ("add", "v", (40,)),
        ("add", "v", (90, 1)),
        ("dot", "x_src", (90, K)),
        ("dot", "x_dst", (40, K)),
        ("dot", "x_dst", (90, K + 1)),
    ])
    def test_wrong_leading_dimension_or_width(self, side, psi, operand, shape, rng):
        a = PATTERNS["rect"]()  # 40 x 90: no side can pass for the other
        kw = _call(rng, a, psi, 1, np.float64)
        kw[operand] = np.zeros(shape)
        y, dz = kw.pop("y"), kw.pop("dz")
        with pytest.raises(ValueError, match=rf"^{operand} has shape"):
            if operand != "dz":
                attention_forward(a, psi, y, **kw)
            attention_backward(a, psi, y, dz, softmax=False, **kw)

    def test_norms_need_their_side_and_a_square_pattern(self, side, rng):
        a = PATTERNS["powerlaw"]()
        kw = _call(rng, a, "cosine", 8, np.float64)
        y, dz = kw.pop("y"), kw.pop("dz")
        for bad in (kw["norms"][:-1], kw["norms"][:, :1], None):
            with pytest.raises(ValueError, match="norms"):
                attention_forward(a, "cosine", y, **{**kw, "norms": bad})
        rect = PATTERNS["rect"]()
        kw = _call(rng, rect, "dot", 1, np.float64)
        with pytest.raises(ValueError, match="^norms has shape"):
            attention_forward(rect, "cosine", kw["y"], x_src=kw["x_src"],
                              x_dst=kw["x_dst"], norms=np.ones(40))

    def test_backward_checks_what_the_forward_checks(self, side, rng):
        a = PATTERNS["powerlaw"]()
        kw = _call(rng, a, "add", 1, np.float64)
        y, dz = kw.pop("y"), kw.pop("dz")
        stacked = a.with_data(np.stack([a.data, a.data], axis=1))
        with pytest.raises(ValueError, match="scalar"):
            attention_backward(stacked, "add", y, dz, softmax=False, **kw)
        with pytest.raises(ValueError, match="needs the forward SweepStats"):
            attention_backward(a, "add", y, dz, **kw)
        n = a.shape[0]
        for shift, denom in (((n,), (n,)), ((n, 2), (n, 2)), ((n, 1), (n - 1, 1))):
            stats = SweepStats(np.zeros(shift), np.ones(denom))
            with pytest.raises(ValueError, match=r"^stats have shapes"):
                attention_backward(a, "add", y, dz, stats=stats, **kw)

    @needs_c
    def test_a_bad_raw_row_pointer_is_refused_not_read(self, rng):
        a = random_csr(np.random.default_rng(2), 3, 8, 0.4)
        assert a.nnz >= 6
        kw = _call(rng, a, "add", 1, np.float64)
        y, dz = kw.pop("y"), kw.pop("dz")
        _, stats = attention_forward(a, "add", y, **kw)
        a.indptr = np.array([0, a.nnz + 3, 4, a.nnz], np.int64)  # dips inside
        with pytest.raises(ValueError, match="attention_forward.*non-decreasing"):
            attention_forward(a, "add", y, **kw)
        with pytest.raises(ValueError, match="attention_backward.*non-decreasing"):
            attention_backward(a, "add", y, dz, stats=stats, **kw)


class TestSaysWhichBackendRan:
    def test_both_spans_carry_the_backend(self, kernels_backend, rng):
        a = PATTERNS["powerlaw"]().astype(np.float32)
        kw = _call(rng, a, "add", 1, np.float32)
        half = {key: val.astype(np.float16) for key, val in kw.items()
                if isinstance(val, np.ndarray)}
        t = Tracer()
        install_tracer(t)
        try:
            _chain(a, "add", True, kw)
            with np.errstate(all="ignore"):
                _chain(a.astype(np.float16), "add", True, {**kw, **half})
        finally:
            install_tracer(None)
        spans = [s for s in t.spans if s.depth == 0]
        assert [s.name for s in spans] == ["megakernel.forward", "megakernel.backward"] * 2
        assert [s.attrs["backend"] for s in spans] == [kernels_backend] * 2 + ["numpy"] * 2
        for span in spans:
            assert {"psi", "heads", "backend"} <= set(span.attrs)
            assert not {"strategy", "blocks"} & set(span.attrs)

    @needs_c
    def test_a_fused_entry_resolves_for_float32(self):
        x = np.zeros(1, np.float32)
        assert _edge.entry("attention_forward", x, x) is not None
        assert _edge.entry("attention_backward", x, x) is not None

"""Fused single-sweep attention megakernel with dynamic strategy selection.

The kernel-at-a-time interpreter (:mod:`repro.fusion.interp`) executes
the attention chain SDDMM → masked softmax → SpMM as separate Table-2
kernels, materialising every ``(nnz,)``- or ``(nnz, heads)``-sized edge
intermediate in between. This module fuses the whole chain into **one
CSR row-block sweep** (the DF-GNN strategy): per block of rows it
computes the raw scores, the numerically-stable masked softmax and the
feature aggregation back to back, so edge values only ever live in
cache-sized block temporaries — never as full edge arrays.

The backward pass is the *same single sweep* with *recomputation*
(the FlashAttention trade): only the O(n·heads) per-row softmax
statistics (max-shift and shifted denominator) are saved by the
forward; the backward re-derives the per-edge scores and ``dPsi``
once inside each block. Row-side gradients reduce over the block rows
(``reduceat``), and the column-side gradients (``Psi^T dZ``, column
sums, column-endpoint feature gradients) need no transpose sweep at
all — a CSR row block is exactly the CSC representation of its own
transpose, so scipy's C CSC kernel scatters them straight into the
full outputs (``bincount`` for the scalar column sums).

Strategy selection is *dynamic* and per ``(pattern, heads, k)``: the
planner reads the pattern's cached :class:`~repro.tensor.structure.
DegreeStats` and picks uniform fixed-height row blocks for near-regular
degree distributions or edge-budget-balanced blocks (a ``searchsorted``
over ``indptr``) for skewed ones, plus a dense-k cache-blocking chunk;
the resulting :class:`SweepPlan` is memoised on the
:class:`~repro.tensor.structure.PatternStructure`, so warm-path
planning cost is one dict lookup (events ``megaplan.computed`` /
``megaplan.hit``).

Three score kinds cover the paper's Psi formulations, single- or
multi-head (stacked operands):

* ``"dot"``    — :math:`s_{rc} = x^{src}_r \\cdot x^{dst}_c` (VA; no
  softmax in the VA layer).
* ``"add"``    — :math:`s_{rc} = \\mathrm{LeakyReLU}(u_r + v_c)` (GAT).
* ``"cosine"`` — :math:`s_{rc} = \\beta\\,(x_r \\cdot x_c) /
  (n_r n_c)` (AGNN), with the interpreter's safe-division semantics.

Every kind multiplies the raw score by the adjacency's stored edge
value (the Hadamard mask of the global formulation) before the softmax.
Flops are charged once per call to the optional
:class:`~repro.util.counters.FlopCounter`, with counts equal to the
summed unfused kernels (``SDDMM`` + ``softmax`` + ``SpMM`` labels), so
ablation accounting is unchanged by fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from repro.obs.metrics import metrics
from repro.obs.tracer import traced, tracer
from repro.tensor.csr import CSRMatrix
from repro.tensor.structure import PatternStructure
from repro.util.counters import FlopCounter, null_counter

__all__ = [
    "PSI_KINDS",
    "SweepPlan",
    "SweepStats",
    "plan_sweep",
    "attention_forward",
    "attention_backward",
]

PSI_KINDS = ("dot", "add", "cosine")

#: Scalar budget per block temporary: block_edges · heads · k_chunk stays
#: under this, keeping the live working set L2-resident (2 MiB at
#: float64). With the per-block SpMM/scatter running in C the sweep's
#: fixed per-block cost amortises over larger blocks, so the budget
#: targets L2 rather than L1.
_BLOCK_SCALAR_BUDGET = 1 << 18

#: Blocks never shrink below this many edges on large patterns — the
#: point where per-block Python overhead would dominate the C kernels.
_MIN_BLOCK_EDGES = 2048

#: Dense-k cache blocking: feature widths beyond this are processed in
#: chunks so the gathered slabs stay resident (IO-aware layering).
_MAX_K_CHUNK = 64

#: Degree coefficient-of-variation above which fixed-height row blocks
#: degrade into hub-dominated stragglers and edge balancing pays off.
_CV_BALANCED_THRESHOLD = 0.5


@dataclass(frozen=True)
class SweepPlan:
    """A memoised execution strategy for one ``(pattern, heads, k)``."""

    strategy: str  #: ``"uniform"`` or ``"balanced"``
    block_starts: np.ndarray  #: row boundaries, ``(n_blocks + 1,)``, frozen
    k_chunk: int
    heads: int
    k: int
    max_block_edges: int

    @property
    def n_blocks(self) -> int:
        return int(self.block_starts.shape[0]) - 1


@dataclass
class SweepStats:
    """Saved per-row softmax statistics (O(n·heads), never O(nnz)).

    ``psi_e = exp(s_e - shift[r]) / denom[r]`` reconstructs the softmax
    values inside the backward sweep; ``None`` fields mean the forward
    ran without a softmax (VA).
    """

    shift: np.ndarray | None
    denom: np.ndarray | None


def plan_sweep(
    structure: PatternStructure, heads: int, k: int
) -> SweepPlan:
    """Choose (and memoise) the sweep strategy for this pattern.

    The plan is cached on the structure keyed by ``(heads, k)``; degree
    statistics come from the pattern's cached
    :meth:`~repro.tensor.structure.PatternStructure.degree_stats`.
    """
    heads = max(1, int(heads))
    k = max(1, int(k))
    cached = structure._sweep_plans.get((heads, k))
    if cached is not None:
        metrics().counter("megaplan.hit").inc()
        return cached
    stats = structure.degree_stats()
    n = structure.shape[0]
    nnz = structure.nnz
    k_chunk = min(k, _MAX_K_CHUNK)
    edge_budget = max(1, _BLOCK_SCALAR_BUDGET // (heads * k_chunk))
    # Structural guarantee: large patterns sweep in at least ~4 blocks,
    # so block temporaries stay strictly sub-nnz even when the
    # cache budget alone would allow a whole-graph block. Small graphs
    # (everything under _MIN_BLOCK_EDGES) keep their single block.
    edge_budget = min(edge_budget, max(nnz // 4, _MIN_BLOCK_EDGES))
    indptr = structure.indptr
    if n == 0 or nnz == 0:
        strategy = "uniform"
        starts = np.array([0, n], dtype=np.int64) if n else np.array(
            [0], dtype=np.int64
        )
    elif stats.cv > _CV_BALANCED_THRESHOLD:
        # Skewed degrees: row boundaries chosen so every block carries
        # roughly edge_budget entries, regardless of hub placement.
        strategy = "balanced"
        n_blocks = max(1, -(-nnz // edge_budget))
        targets = (np.arange(1, n_blocks, dtype=np.int64) * nnz) // n_blocks
        cuts = np.searchsorted(indptr, targets, side="left")
        cuts = np.unique(cuts[(cuts > 0) & (cuts < n)])
        starts = np.concatenate(
            (
                np.zeros(1, dtype=np.int64),
                cuts.astype(np.int64),
                np.full(1, n, dtype=np.int64),
            )
        )
    else:
        # Near-uniform degrees: fixed-height row blocks sized from the
        # mean degree hit the edge budget without a boundary search.
        strategy = "uniform"
        rows_per_block = max(1, int(edge_budget / max(stats.mean, 1.0)))
        starts = np.arange(0, n, rows_per_block, dtype=np.int64)
        starts = np.concatenate((starts, np.full(1, n, dtype=np.int64)))
    starts.flags.writeable = False
    if starts.shape[0] > 1:
        max_edges = int(np.max(np.diff(indptr[starts])))
    else:
        max_edges = 0
    plan = SweepPlan(
        strategy=strategy,
        block_starts=starts,
        k_chunk=k_chunk,
        heads=heads,
        k=k,
        max_block_edges=max_edges,
    )
    structure._sweep_plans[(heads, k)] = plan
    metrics().counter("megaplan.computed").inc()
    return plan


# ----------------------------------------------------------------------
# Shape normalisation: everything runs internally with an explicit
# heads axis — features (n, H, k), vectors (n, H) — and is squeezed
# back iff the caller passed single-head 2-D/1-D operands.
# ----------------------------------------------------------------------
def _norm_feat(name: str, arr, heads: int) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim == 2:
        if heads != 1:
            raise ValueError(
                f"{name} must be (n, {heads}, k) for {heads}-head operands"
            )
        return arr[:, None, :]
    if arr.ndim == 3 and arr.shape[1] == heads:
        return arr
    raise ValueError(f"{name} has shape {arr.shape}; expected 2-D or "
                     f"(n, {heads}, k)")


def _norm_vec(name: str, arr, heads: int) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim == 1:
        if heads != 1:
            raise ValueError(
                f"{name} must be (n, {heads}) for {heads}-head operands"
            )
        return arr[:, None]
    if arr.ndim == 2 and arr.shape[1] == heads:
        return arr
    raise ValueError(f"{name} has shape {arr.shape}; expected 1-D or "
                     f"(n, {heads})")


def _block_reduceat(ufunc, values, local_indptr, identity, out):
    """``ufunc.reduceat`` per block-local segment, empty rows repaired."""
    lengths = np.diff(local_indptr)
    if np.all(lengths > 0):
        ufunc.reduceat(values, local_indptr[:-1], axis=0, out=out)
        return out
    out[...] = identity
    nonempty = lengths > 0
    if np.any(nonempty):
        out[nonempty] = ufunc.reduceat(
            values, local_indptr[:-1][nonempty], axis=0
        )
    return out


def _pair_dot_into(
    s: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    k_chunk: int,
) -> np.ndarray:
    """``s[e] = left[rows[e]] . right[cols[e]]`` with dense-k blocking.

    ``left``/``right`` are (n, H, k); ``s`` is a pre-sized (E, H)
    buffer. The k loop keeps both gathered slabs cache-resident.
    """
    k = left.shape[2]
    s.fill(0.0)
    for k0 in range(0, k, k_chunk):
        k1 = min(k0 + k_chunk, k)
        gl = np.take(left[:, :, k0:k1], rows, axis=0)
        gr = np.take(right[:, :, k0:k1], cols, axis=0)
        if k0 == 0 and k1 == k:
            np.einsum("ehk,ehk->eh", gl, gr, out=s)
        else:
            s += np.einsum("ehk,ehk->eh", gl, gr)
    return s


def _safe_div_into(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """In-place ``num = num / den`` with the interpreter's zero rule:
    entries with a zero denominator become exactly zero."""
    zero = den == 0
    np.divide(num, np.where(zero, 1.0, den), out=num)
    num[zero] = 0.0
    return num


def _head_slices(src: np.ndarray) -> list[np.ndarray]:
    """Per-head contiguous ``(n, k)`` views/copies of a ``(n, H, k)``
    operand, for the C SpMM path.

    Single-head slices alias the input; multi-head slices are copied
    once per *call* (never per block), which the per-block C sweeps
    amortise immediately.
    """
    return [
        np.ascontiguousarray(src[:, h, :]) for h in range(src.shape[1])
    ]


def _aggregate_block(
    out_block: np.ndarray,
    weights: np.ndarray,
    src_heads: list[np.ndarray],
    idx: np.ndarray,
    local_indptr: np.ndarray,
) -> None:
    """``out_block[r] += sum_e weights[e] * src[idx[e]]`` per segment.

    The fused SpMM step: each head (``src_heads`` prepared by
    :func:`_head_slices`) runs scipy's C ``csr_matvecs`` over the
    block's index slices — no gathered edge-feature slab at all.
    """
    rows, heads, kp = out_block.shape
    n_src = src_heads[0].shape[0]
    for h in range(heads):
        w = np.ascontiguousarray(weights[:, h])
        out_h = out_block[:, h, :]
        if out_h.flags.c_contiguous:
            _sparsetools.csr_matvecs(
                rows, n_src, kp, local_indptr, idx, w,
                src_heads[h].reshape(-1), out_h.reshape(-1),
            )
        else:
            zh = np.zeros((rows, kp), out_block.dtype)
            _sparsetools.csr_matvecs(
                rows, n_src, kp, local_indptr, idx, w,
                src_heads[h].reshape(-1), zh.reshape(-1),
            )
            out_h += zh


# ----------------------------------------------------------------------
# Per-edge masked scores for one block (shared by forward and backward)
# ----------------------------------------------------------------------
def _masked_scores_block(
    s: np.ndarray,
    psi: str,
    a_vals: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    ops: dict,
    k_chunk: int,
    aux: np.ndarray | None = None,
    aux2: np.ndarray | None = None,
) -> np.ndarray:
    """Fill ``s`` with the masked per-edge scores of one block.

    For the backward recomputation the caller passes scratch buffers:
    ``aux`` receives the pre-activation ``c`` for ``"add"`` (LeakyReLU
    mask) or the norm-product denominator for ``"cosine"``; ``aux2``
    receives the cosine values (pre-``beta``, pre-mask).
    """
    if psi == "add":
        np.add(
            np.take(ops["u"], rows, axis=0),
            np.take(ops["v"], cols, axis=0),
            out=s,
        )
        if aux is not None:
            aux[...] = s
        np.multiply(s, ops["slope"], out=s, where=s < 0)
        s *= a_vals[:, None]
        return s
    _pair_dot_into(s, ops["x_src"], ops["x_dst"], rows, cols, k_chunk)
    if psi == "cosine":
        norms = ops["norms"]
        den = aux if aux is not None else np.empty_like(s)
        np.take(norms, rows, axis=0, out=den, mode="clip")
        np.multiply(den, np.take(norms, cols, axis=0), out=den)
        _safe_div_into(s, den)
        if aux2 is not None:
            aux2[...] = s
        s *= ops["beta"]
    s *= a_vals[:, None]
    return s


def _psi_from_stats(
    s: np.ndarray,
    shift: np.ndarray,
    denom: np.ndarray,
    row_idx: np.ndarray,
) -> np.ndarray:
    """In-place softmax reconstruction from saved per-row statistics."""
    np.subtract(s, np.take(shift, row_idx, axis=0), out=s)
    np.exp(s, out=s)
    rep = np.take(denom, row_idx, axis=0)
    np.divide(s, np.where(rep == 0, 1.0, rep), out=s)
    return s


def _sddmm_flops(psi: str, nnz: int, heads: int, k: int) -> int:
    """Score flops, equal to the matching unfused ``sddmm_*`` count."""
    if psi == "add":
        return nnz * heads
    if psi == "dot":
        return 2 * nnz * heads * k
    return 2 * nnz * heads * k + 2 * nnz * heads  # cosine: dot + divide


# ----------------------------------------------------------------------
# Forward: one row-block sweep
# ----------------------------------------------------------------------
@traced("megakernel.forward")
def attention_forward(
    a: CSRMatrix,
    psi: str,
    y: np.ndarray,
    *,
    x_src: np.ndarray | None = None,
    x_dst: np.ndarray | None = None,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
    norms: np.ndarray | None = None,
    slope: float = 0.2,
    beta: float = 1.0,
    softmax: bool | None = None,
    plan: SweepPlan | None = None,
    counter: FlopCounter = null_counter(),
) -> tuple[np.ndarray, SweepStats | None]:
    """Fused SDDMM → masked softmax → SpMM in one row-block sweep.

    Parameters mirror the recognised IR chain: ``a`` is the adjacency
    (its stored values are the Hadamard mask), ``y`` the aggregation
    operand (``H W``), and the score operands depend on ``psi`` — see
    the module docstring. ``softmax=None`` defaults to the layer
    formulations (softmax for ``add``/``cosine``, none for ``dot``).

    Returns ``(z, stats)`` where ``z = Psi @ y`` and ``stats`` holds the
    per-row softmax statistics the backward sweep needs (``None``
    without a softmax). No ``(nnz,)``-sized intermediate is written:
    scores and softmax values live in block-bounded temporaries.
    """
    if psi not in PSI_KINDS:
        raise ValueError(f"unknown psi kind {psi!r}; expected {PSI_KINDS}")
    if a.data.ndim != 1:
        raise ValueError("megakernel adjacency values must be scalar (1-D)")
    if softmax is None:
        softmax = psi != "dot"
    y_arr = np.asarray(y)
    flat = y_arr.ndim == 2
    heads = 1 if flat else y_arr.shape[1]
    y3 = _norm_feat("y", y_arr, heads)
    ops = _normalise_ops(
        psi, heads, x_src=x_src, x_dst=x_dst, u=u, v=v, norms=norms,
        slope=slope, beta=beta,
    )
    k_score = ops["x_src"].shape[2] if psi in ("dot", "cosine") else 1
    n = a.shape[0]
    kp = y3.shape[2]
    dtype = np.result_type(a.data, y3, *(
        ops[key] for key in ("x_src", "u", "norms") if ops.get(key) is not None
    ))
    y3 = y3.astype(dtype, copy=False)
    ops = _cast_ops(ops, dtype)
    if plan is None:
        plan = plan_sweep(a.structure, heads, max(k_score, kp))
    tracer().annotate(
        psi=psi, heads=heads, strategy=plan.strategy, blocks=plan.n_blocks
    )
    nnz = a.nnz
    counter.add(_sddmm_flops(psi, nnz, heads, k_score), "SDDMM")
    if softmax:
        counter.add(5 * nnz * heads, "softmax")
    counter.add(2 * nnz * heads * kp, "SpMM")

    z = np.zeros((n, heads, kp), dtype=dtype)
    stats = None
    if softmax:
        stats = SweepStats(
            shift=np.zeros((n, heads), dtype=dtype),
            denom=np.zeros((n, heads), dtype=dtype),
        )
    indptr = a.indptr
    rows_all = a.expand_rows()
    starts = plan.block_starts
    y_heads = _head_slices(y3)
    metrics().counter("megakernel.forward").inc()
    metrics().counter("megakernel.block").inc(plan.n_blocks)
    for b in range(plan.n_blocks):
        r0, r1 = int(starts[b]), int(starts[b + 1])
        e0, e1 = int(indptr[r0]), int(indptr[r1])
        if e0 == e1:
            continue
        rows_b = rows_all[e0:e1]
        cols_b = a.indices[e0:e1]
        lp = indptr[r0 : r1 + 1] - e0
        s = np.empty((e1 - e0, heads), dtype)
        _masked_scores_block(
            s, psi, a.data[e0:e1], rows_b, cols_b, ops, plan.k_chunk
        )
        if softmax:
            _block_reduceat(np.maximum, s, lp, 0.0, stats.shift[r0:r1])
            np.subtract(s, np.take(stats.shift, rows_b, axis=0), out=s)
            np.exp(s, out=s)
            _block_reduceat(np.add, s, lp, 0.0, stats.denom[r0:r1])
            rep = np.take(stats.denom, rows_b, axis=0)
            np.divide(s, np.where(rep == 0, 1.0, rep), out=s)
        _aggregate_block(z[r0:r1], s, y_heads, cols_b, lp)
    return (z[:, 0, :] if flat else z), stats


def _normalise_ops(psi, heads, *, x_src, x_dst, u, v, norms, slope, beta):
    ops: dict = {"slope": float(slope), "beta": float(beta),
                 "x_src": None, "u": None, "norms": None}
    if psi == "add":
        if u is None or v is None:
            raise ValueError("psi 'add' needs u and v operands")
        ops["u"] = _norm_vec("u", u, heads)
        ops["v"] = _norm_vec("v", v, heads)
    else:
        if x_src is None:
            raise ValueError(f"psi {psi!r} needs x_src")
        ops["x_src"] = _norm_feat("x_src", x_src, heads)
        ops["x_dst"] = _norm_feat(
            "x_dst", x_dst if x_dst is not None else x_src, heads
        )
        if psi == "cosine":
            if norms is None:
                raise ValueError("psi 'cosine' needs precomputed norms")
            ops["norms"] = _norm_vec("norms", norms, heads)
    return ops


def _cast_ops(ops: dict, dtype) -> dict:
    """Every array operand in the sweep dtype, so the C kernels see one
    type (a no-op on the model paths, whose operands already agree)."""
    return {
        key: val.astype(dtype, copy=False)
        if isinstance(val, np.ndarray)
        else val
        for key, val in ops.items()
    }


# ----------------------------------------------------------------------
# Backward: one row-block sweep (column-side gradients via C scatter)
# ----------------------------------------------------------------------
@traced("megakernel.backward")
def attention_backward(
    a: CSRMatrix,
    psi: str,
    y: np.ndarray,
    dz: np.ndarray,
    *,
    stats: SweepStats | None = None,
    x_src: np.ndarray | None = None,
    x_dst: np.ndarray | None = None,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
    norms: np.ndarray | None = None,
    slope: float = 0.2,
    beta: float = 1.0,
    softmax: bool | None = None,
    plan: SweepPlan | None = None,
    counter: FlopCounter = null_counter(),
) -> dict[str, np.ndarray]:
    """Fused backward of :func:`attention_forward`, same sweep shape.

    Per-edge quantities (scores, softmax values, ``dPsi``) are
    *recomputed* once per block from the operands plus the saved
    ``stats``; nothing edge-sized is read from memory or written back.
    One sweep over the pattern produces everything: row-side gradients
    reduce over the block rows, column-side ones scatter through the
    block's own CSR arrays reinterpreted as its transpose's CSC form
    (see :func:`_scatter_add_block`).

    Returns a dict whose keys depend on ``psi``:

    * always: ``"dY"`` (:math:`\\Psi^T dZ`, the aggregation-operand
      gradient);
    * ``"dot"``/``"cosine"``: ``"dRow"``/``"dCol"`` — the gradients
      w.r.t. ``x_src``/``x_dst`` through the sampled Gram product;
    * ``"cosine"``: plus ``"dNormRow"``/``"dNormCol"`` — the gradients
      w.r.t. the row-norm vector's two endpoints;
    * ``"add"``: ``"dU"``/``"dV"`` — the logit-vector gradients.
    """
    if psi not in PSI_KINDS:
        raise ValueError(f"unknown psi kind {psi!r}; expected {PSI_KINDS}")
    if softmax is None:
        softmax = psi != "dot"
    if softmax and (stats is None or stats.shift is None):
        raise ValueError("softmax backward needs the forward SweepStats")
    y_arr = np.asarray(y)
    dz_arr = np.asarray(dz)
    flat = y_arr.ndim == 2
    heads = 1 if flat else y_arr.shape[1]
    y3 = _norm_feat("y", y_arr, heads)
    dz3 = _norm_feat("dz", dz_arr, heads)
    ops = _normalise_ops(
        psi, heads, x_src=x_src, x_dst=x_dst, u=u, v=v, norms=norms,
        slope=slope, beta=beta,
    )
    k_score = ops["x_src"].shape[2] if psi in ("dot", "cosine") else 1
    n, m = a.shape
    kp = y3.shape[2]
    nnz = a.nnz
    dtype = np.result_type(a.data, y3, dz3)
    y3 = y3.astype(dtype, copy=False)
    dz3 = dz3.astype(dtype, copy=False)
    ops = _cast_ops(ops, dtype)
    counter.add(2 * nnz * heads * kp, "SDDMM")  # dPsi sampled product
    if softmax:
        counter.add(4 * nnz * heads, "softmax_bwd")
    counter.add(2 * nnz * heads * kp, "SpMM")  # dY
    if psi in ("dot", "cosine"):
        counter.add(2 * (2 * nnz * heads * k_score), "SpMM")  # dRow, dCol
    if psi == "cosine":
        counter.add(2 * (2 * nnz * heads), "SpMM")  # norm-endpoint SpMVs

    if plan is None:
        plan = plan_sweep(a.structure, heads, max(k_score, kp))
    tracer().annotate(
        psi=psi, heads=heads, strategy=plan.strategy, blocks=plan.n_blocks
    )
    out: dict[str, np.ndarray] = {}
    if psi == "add":
        out["dU"] = np.zeros((n, heads), dtype=dtype)
        out["dV"] = np.zeros((m, heads), dtype=dtype)
    else:
        out["dRow"] = np.zeros((n, heads, k_score), dtype=dtype)
    if psi == "cosine":
        out["dNormRow"] = np.zeros((n, heads), dtype=dtype)
        out["dNormCol"] = np.zeros((m, heads), dtype=dtype)
    # Column-side accumulators live head-major so each head's (m, k)
    # plane is contiguous for the C scatter kernel; moved back to
    # (m, heads, k) once at the end.
    dy_hm = np.zeros((heads, m, kp), dtype=dtype)
    dcol_hm = (
        np.zeros((heads, m, k_score), dtype=dtype)
        if psi in ("dot", "cosine")
        else None
    )

    # Contiguous per-head operand slices for the C SpMM path, prepared
    # once per call (see _head_slices).
    dz_heads = _head_slices(dz3)
    if psi in ("dot", "cosine"):
        xsrc_heads = _head_slices(ops["x_src"])
        xdst_heads = _head_slices(ops["x_dst"])

    metrics().counter("megakernel.backward").inc()

    # ---- one sweep over the pattern -----------------------------------
    # Row-side gradients reduce over block rows as in the forward; the
    # column-side ones need no transpose sweep at all: a CSR row block
    # *is* its own transpose's CSC representation, so a C CSC kernel
    # scatters ``Psi^T dZ`` / column feature gradients straight into the
    # full output (``_scatter_add_block``), and the scalar column sums
    # go through ``bincount``.
    indptr = a.indptr
    rows_all = a.expand_rows()
    starts = plan.block_starts
    for b in range(plan.n_blocks):
        r0, r1 = int(starts[b]), int(starts[b + 1])
        e0, e1 = int(indptr[r0]), int(indptr[r1])
        if e0 == e1:
            continue
        rows_b = rows_all[e0:e1]
        cols_b = a.indices[e0:e1]
        lp = indptr[r0 : r1 + 1] - e0
        ds, dden, psi_vals = _edge_grad_block(
            psi, a.data[e0:e1], rows_b, cols_b, ops, plan.k_chunk,
            y3, dz3, stats, softmax, r0=r0, local_indptr=lp,
        )
        _scatter_add_block(dy_hm, psi_vals, cols_b, lp, dz_heads, r0, r1)
        if psi == "add":
            for h in range(heads):
                out["dV"][:, h] += np.bincount(
                    cols_b, weights=ds[:, h], minlength=m
                )
            _block_reduceat(np.add, ds, lp, 0.0, out["dU"][r0:r1])
            continue
        _scatter_add_block(dcol_hm, ds, cols_b, lp, xsrc_heads, r0, r1)
        if psi == "cosine":
            # dNormCol first: the row-side reduction consumes dden.
            gr = np.take(ops["norms"], rows_b, axis=0)
            np.multiply(gr, dden, out=gr)
            for h in range(heads):
                out["dNormCol"][:, h] += np.bincount(
                    cols_b, weights=gr[:, h], minlength=m
                )
        _aggregate_block(out["dRow"][r0:r1], ds, xdst_heads, cols_b, lp)
        if psi == "cosine":
            np.multiply(
                dden, np.take(ops["norms"], cols_b, axis=0), out=dden
            )
            _block_reduceat(np.add, dden, lp, 0.0, out["dNormRow"][r0:r1])

    if flat:
        out = {
            key: (val[:, 0, :] if val.ndim == 3 else val[:, 0])
            for key, val in out.items()
        }
        out["dY"] = dy_hm[0]
        if dcol_hm is not None:
            out["dCol"] = dcol_hm[0]
    else:
        out["dY"] = np.ascontiguousarray(np.moveaxis(dy_hm, 0, 1))
        if dcol_hm is not None:
            out["dCol"] = np.ascontiguousarray(np.moveaxis(dcol_hm, 0, 1))
    return out


def _scatter_add_block(
    out_hm: np.ndarray,
    weights: np.ndarray,
    cols: np.ndarray,
    local_indptr: np.ndarray,
    src_heads: list[np.ndarray],
    r0: int,
    r1: int,
) -> None:
    """``out_hm[h, c] += sum_e weights[e, h] * src[row(e), h]`` — one
    row block's *column-side* aggregation, without a transpose sweep.

    The block's CSR arrays ``(local_indptr, cols, weights)`` are exactly
    the CSC representation of the block's transpose, so each head is one
    C ``csc_matvecs`` scatter straight into the full head-major output
    plane.
    """
    heads, m, kp = out_hm.shape
    for h in range(heads):
        _sparsetools.csc_matvecs(
            m, r1 - r0, kp, local_indptr, cols,
            np.ascontiguousarray(weights[:, h]),
            src_heads[h][r0:r1].reshape(-1), out_hm[h].reshape(-1),
        )


def _edge_grad_block(
    psi: str,
    a_vals: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    ops: dict,
    k_chunk: int,
    y3: np.ndarray,
    dz3: np.ndarray,
    stats: SweepStats | None,
    softmax: bool,
    r0: int,
    local_indptr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Recompute one block's per-edge score gradient ``dS``.

    Returns ``(dS, dDenom, psi_vals)``: ``dS`` is the gradient w.r.t.
    the raw score operand (Gram value for ``dot``/``cosine``,
    pre-activation logit for ``add``), ``dDenom`` the cosine
    norm-product gradient (else ``None``), and ``psi_vals`` the
    reconstructed per-edge softmax values (masked scores without a
    softmax) — the weights of the caller's ``dY`` scatter.
    """
    shape = (rows.shape[0], y3.shape[1])
    s = np.empty(shape, y3.dtype)
    aux = np.empty_like(s)
    aux2 = np.empty_like(s) if psi == "cosine" else None
    _masked_scores_block(
        s, psi, a_vals, rows, cols, ops, k_chunk, aux=aux, aux2=aux2
    )
    if softmax:
        _psi_from_stats(s, stats.shift, stats.denom, rows)
    # dPsi_e = <dZ[r], Y[c]> — the sampled dense-dense product.
    d = np.empty_like(s)
    _pair_dot_into(d, dz3, y3, rows, cols, k_chunk)
    if softmax:
        # Softmax VJP: dMasked = psi * (dPsi - inner_row).
        inner_rows = np.empty(
            (local_indptr.shape[0] - 1, shape[1]), s.dtype
        )
        _block_reduceat(np.add, s * d, local_indptr, 0.0, inner_rows)
        np.subtract(d, np.take(inner_rows, rows - r0, axis=0), out=d)
        np.multiply(d, s, out=d)
    dden = None
    if psi == "add":
        # dC = dMasked ⊙ A ⊙ LeakyReLU'(c); aux holds the pre-activation.
        d *= a_vals[:, None]
        np.multiply(d, ops["slope"], out=d, where=aux < 0)
    elif psi == "dot":
        d *= a_vals[:, None]
    else:  # cosine: aux = norm product, aux2 = cosine values
        d *= a_vals[:, None]
        d *= ops["beta"]
        _safe_div_into(d, aux)  # dGram
        dden = np.multiply(d, aux2)
        np.negative(dden, out=dden)
    return d, dden, s

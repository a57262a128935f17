"""Fused attention: SDDMM → masked row softmax → SpMM as one row sweep.

Every attention layer's edge level: ``AttentionLayer`` (and so
``DagLayer(fused=True)``, over a spec lowered from its layer DAG) calls it
for any spec that declares a score kind, ``DistAttentionLayer`` once per rank
block; the op-DAG interpreter instead runs separate Table-2 kernels with an
``(nnz,)``- or ``(nnz, heads)``-sized edge array between each pair. Here the
chain is one pass over the CSR
rows (``attention_forward`` / ``attention_backward`` in ``_edge.c``, the
row-local strategy of DF-GNN): per row the masked scores, their stable
softmax and ``z[r] += psi_e * y[c]`` run back to back over a scratch of
the row's own length. The backward is the same pass with *recomputation*
(the FlashAttention trade): from the ``(n, heads)`` softmax statistics
the forward saved it re-derives ``psi_e``, takes ``dpsi_e = dz[r] . y[c]``
and produces every gradient exit of the chain — row-side ones reduce
in the row, column-side ones scatter directly, with no transpose sweep.
:func:`attention_scores` is the same Psi *materialised*.

The two sweeps validate, then dispatch once — the library's one backend
choice: the C entry when the library loaded and the promoted operands are
float32 / float64, otherwise the same chain composed from the unfused
NumPy kernels. No argument or variable picks a side; the spans carry
``backend=``. The C side's scratch is :func:`plan_sweep` scalars; the
composition materialises the edge arrays the unfused kernels return, so
"nothing edge-sized" is the C backend's guarantee.

Score kinds, plain or head-stacked: ``"dot"`` (``x_src[r] . x_dst[c]``, VA,
no softmax by default), ``"add"`` (``LeakyReLU(u[r] + v[c])``, GAT) and
``"cosine"`` (``beta * (x_src[r] . x_dst[c]) / (norms[r] * norms_dst[c])``,
AGNN, a zero norm product scoring zero as in the interpreter), each times the
adjacency's stored value (the Hadamard mask) before the softmax. A
column-endpoint operand defaults to its row-endpoint twin (``x_dst`` to
``x_src``, ``norms_dst`` to ``norms``); the two differ on an off-diagonal block
of a distributed adjacency. Flops are charged once per call, equal to the
summed unfused kernels.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.tracer import traced, tracer
from repro.tensor import _edge
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import masked_row_softmax_backward, sddmm_add, sddmm_dot, spmm
from repro.tensor.segment import bincount_sum, expand_segments, segment_max, segment_sum
from repro.tensor.structure import PatternStructure
from repro.util.counters import FlopCounter, null_counter

__all__ = [
    "PSI_KINDS", "SweepStats", "plan_sweep", "attention_scores", "attention_forward",
    "attention_backward",
]

#: The position of a kind is its ``kind`` argument in ``_edge.c``.
PSI_KINDS = ("dot", "add", "cosine")

#: One validated call, operands in the promoted dtype under their ``_edge.c``
#: roles: ``src`` / ``dst`` are ``u`` / ``v`` for ``add``, ``k`` their width
#: (1 for ``add``), ``coef`` the slope or beta, ``mask`` is ``a.data``.
_Call = namedtuple("_Call", "psi heads k softmax coef mask y dz src dst norms norms_dst")


@dataclass
class SweepStats:
    """Per-row softmax statistics, ``(n, heads)`` each: the backward rebuilds
    ``psi_e = exp(s_e - shift[r]) / denom[r]``; an empty row holds ``(0, 1)``."""

    shift: np.ndarray
    denom: np.ndarray


def plan_sweep(structure: PatternStructure, heads: int, k: int) -> int:
    """Scalars in one scratch vector of a sweep over this pattern: its longest
    row (the memoised ``max_row_length()``) times ``heads``. The feature width
    ``k`` does not enter; ``benchmarks/e2e`` still passes it."""
    return structure.max_row_length() * int(heads)


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, exactly zero where ``den`` is (the interpreter's rule)."""
    zero = den == 0
    out = num / np.where(zero, 1, den)
    out[zero] = 0
    return out


def _validate(
    a, psi, y, dz, softmax, slope=0.2, beta=1.0, x_src=None, x_dst=None, u=None, v=None,
    norms=None, norms_dst=None,
) -> _Call:
    """Check every operand against ``a`` — one ``ValueError`` naming the
    operand, before either backend reads it — and promote to one dtype."""
    if psi not in PSI_KINDS:
        raise ValueError(f"unknown psi kind {psi!r}; expected {PSI_KINDS}")
    if a.data.ndim != 1:
        raise ValueError("megakernel adjacency values must be scalar (1-D)")
    n, m = a.shape
    if y is None:  # attention_scores: the score operands carry the head axis
        stack, checks = np.shape(u)[1:] if psi == "add" else np.shape(x_src)[1:-1], []
    else:
        y = np.asarray(y)
        if y.ndim not in (2, 3):
            raise ValueError(f"y has shape {y.shape}; expected (m, k) or (m, heads, k)")
        stack = y.shape[1:-1]  # () plain, (heads,) stacked
        checks = [("y", y, m, y.shape[1:])]
    if dz is not None:
        checks.append(("dz", dz, n, y.shape[1:]))
    if psi == "add":
        names = ("u", "v")
        checks += [("u", u, n, stack), ("v", v, m, stack)]
    else:
        names = ("x_src", "x_dst")
        feat = stack + np.shape(x_src)[-1:]
        x_dst = x_src if x_dst is None else x_dst
        checks += [("x_src", x_src, n, feat), ("x_dst", x_dst, m, feat)]
        if psi == "cosine":  # one vector per endpoint of an edge
            dst_name = "norms" if norms_dst is None else "norms_dst"
            checks += [("norms", norms, n, stack),
                       (dst_name, norms if norms_dst is None else norms_dst, m, stack)]
    found = {}
    for name, arr, rows, trailing in checks:
        if arr is None:
            raise ValueError(f"psi {psi!r} needs {name}")
        found[name] = np.asarray(arr)
        if found[name].shape != (rows,) + trailing:
            raise ValueError(
                f"{name} has shape {found[name].shape}; a {a.shape} adjacency "
                f"with {stack or 'no'} head axis needs {(rows,) + trailing}"
            )
    dtype = np.result_type(a.data, *found.values())
    found = {name: arr.astype(dtype, copy=False) for name, arr in found.items()}
    src = found[names[0]]
    return _Call(
        psi, int(np.prod(stack)), 1 if psi == "add" else src.shape[-1],
        psi != "dot" if softmax is None else bool(softmax),
        float(slope if psi == "add" else beta),
        a.data.astype(dtype, copy=False).reshape((-1,) + (1,) * len(stack)),
        found.get("y"), found.get("dz"), src, found[names[1]], found.get("norms"),
        found.get("norms_dst", found.get("norms")),
    )


def _dispatch(c: _Call, direction: str, a: CSRMatrix, *more):
    """``(C entry or None, the arguments both entries start with)``."""
    arrays = (c.mask, c.y, c.dz, c.src, c.dst, c.norms, c.norms_dst, *more)
    fn = _edge.entry("attention_" + direction, *(x for x in arrays if x is not None))
    tracer().annotate(psi=c.psi, heads=c.heads, backend="numpy" if fn is None else "c")
    metrics().counter("megakernel." + direction).inc()
    return fn, (
        a.shape[0], a.indptr, a.indices, a.nnz, c.mask, PSI_KINDS.index(c.psi),
        int(c.softmax), c.src, c.dst, c.norms, c.norms_dst, c.heads, c.k, c.coef,
    )


def _masked_scores(c: _Call, a: CSRMatrix):
    """``(scores, aux, cos)`` of every stored entry from the unfused kernels:
    the masked score and, for the backward, the pre-activation logit (``add``)
    or norm product (``cosine``) and the unscaled cosine."""
    aux = cos = None
    if c.psi == "add":
        aux = sddmm_add(a, c.src, c.dst)
        s = np.where(aux > 0, aux, c.coef * aux)
    else:
        s = sddmm_dot(a, c.src, c.dst)
        if c.psi == "cosine":
            aux = np.take(c.norms, a.expand_rows(), axis=0)
            aux *= np.take(c.norms_dst, a.indices, axis=0)
            cos = _safe_div(s, aux)
            s = cos * c.coef
    s *= c.mask
    return s, aux, cos


def _psi_values(c: _Call, a: CSRMatrix):
    """``(Psi's stored values, SweepStats or None)``: the masked scores, then
    the row softmax's NumPy steps kept apart so ``shift`` / ``denom`` come out."""
    s, _, _ = _masked_scores(c, a)
    if not c.softmax:
        return s, None
    rows = a.expand_rows()
    shift = segment_max(s, a.indptr, identity=0.0)
    s -= expand_segments(shift, a.indptr, rows)
    np.exp(s, out=s)
    denom = segment_sum(s, a.indptr)
    denom[denom == 0] = 1
    s /= expand_segments(denom, a.indptr, rows)
    shape = (a.shape[0], c.heads)
    return s, SweepStats(shift.reshape(shape), denom.reshape(shape))


def _charge_scores(c: _Call, work: int, counter: FlopCounter) -> None:
    # As the unfused sddmm_* count: one add, a dot, or a dot and its divide.
    counter.add(work if c.psi == "add" else 2 * work * (c.k + (c.psi == "cosine")), "SDDMM")
    if c.softmax:
        counter.add(5 * work, "softmax")


def attention_scores(
    a: CSRMatrix,
    psi: str,
    *,
    softmax: bool | None = None,
    counter: FlopCounter = null_counter(),
    **operands,
) -> CSRMatrix:
    """``Psi`` itself on ``a``'s pattern, values ``(nnz,)`` or ``(nnz, heads)``:
    what :func:`attention_forward` aggregates with (``operands`` are its score
    keywords), *materialised* from the unfused kernels for what the sweep does
    not do — aggregating over another semiring, or inspecting ``S``."""
    c = _validate(a, psi, None, None, softmax, **operands)
    _charge_scores(c, a.nnz * c.heads, counter)
    return a.with_data(_psi_values(c, a)[0])


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
    norms_dst: np.ndarray | None = None,
    slope: float = 0.2,
    beta: float = 1.0,
    softmax: bool | None = None,
    counter: FlopCounter = null_counter(),
) -> tuple[np.ndarray, SweepStats | None]:
    """Fused SDDMM → masked softmax → SpMM over the rows of ``a``.

    ``a`` is the adjacency (its stored values are the Hadamard mask),
    ``y`` the aggregation operand ``H W``, ``(m, k)`` or ``(m, heads, k)``;
    the score operands depend on ``psi`` (module docstring), ``x_dst``
    defaulting to ``x_src`` and ``norms_dst`` to ``norms``. ``softmax=None``
    means the layer formulations: softmax for ``add`` / ``cosine``, none for
    ``dot``.

    Returns ``(z, stats)``: ``z = Psi @ y`` in ``y``'s layout and the
    statistics :func:`attention_backward` needs (``None`` without a softmax).
    """
    c = _validate(a, psi, y, None, softmax, slope, beta, x_src, x_dst, u, v, norms, norms_dst)
    n, work, kp = a.shape[0], a.nnz * c.heads, c.y.shape[-1]
    _charge_scores(c, work, counter)
    counter.add(2 * work * kp, "SpMM")
    fn, args = _dispatch(c, "forward", a)
    if fn is not None:
        stats = SweepStats(*np.empty((2, n, c.heads), c.y.dtype)) if c.softmax else None
        length = plan_sweep(a.structure, c.heads, c.k)
        z = _edge.run(
            fn, (n,) + c.y.shape[1:], c.y.dtype, *args, c.y, kp,
            length // c.heads, np.empty(length, c.y.dtype),
            stats and stats.shift, stats and stats.denom,
        )
        return z, stats
    s, stats = _psi_values(c, a)
    return spmm(a.with_data(s), c.y), stats


@traced("megakernel.backward")
def attention_backward(
    a: CSRMatrix,
    psi: str,
    y: np.ndarray,
    dz: np.ndarray,
    *,
    stats: SweepStats | None = None,
    row_inner: np.ndarray | None = None,
    score_grad: bool = True,
    x_src: np.ndarray | None = None,
    x_dst: np.ndarray | None = None,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
    norms: np.ndarray | None = None,
    norms_dst: np.ndarray | None = None,
    slope: float = 0.2,
    beta: float = 1.0,
    softmax: bool | None = None,
    counter: FlopCounter = null_counter(),
) -> dict[str, np.ndarray]:
    """Every gradient exit of :func:`attention_forward`, in one row pass.

    Scores, softmax values and ``dPsi`` are *recomputed* per row from the
    operands plus the forward's ``stats``. Returns a dict, each array in
    its operand's layout: always ``"dY"`` (:math:`\\Psi^T dZ`); for
    ``dot`` / ``cosine`` ``"dRow"`` / ``"dCol"`` (w.r.t. ``x_src`` /
    ``x_dst`` through the sampled Gram product); for ``cosine`` also
    ``"dNormRow"`` / ``"dNormCol"`` (w.r.t. ``norms`` / ``norms_dst``) and
    ``"dCoef"`` (``(heads,)``, w.r.t. ``beta``: ``dS_e cos_e mask_e`` summed, so
    that it survives ``beta = 0``); for ``add`` ``"dU"`` / ``"dV"``.

    ``score_grad=False`` returns ``"dY"`` alone and skips ``dPsi`` and the
    score gradient (a Psi with nothing to train and no input gradient to pass
    on). ``row_inner`` ``(n, heads)`` is the softmax backward's per-row
    :math:`\\sum_e \\psi_e\\, d\\psi_e`, for a row whose entries span several
    blocks (``stats`` then hold the whole row's statistics); ``None`` sums
    it over the row's entries in ``a``.
    """
    c = _validate(
        a, psi, y, np.asarray(dz), softmax, slope, beta, x_src, x_dst, u, v, norms, norms_dst
    )
    (n, m), work, kp, dtype = a.shape, a.nnz * c.heads, c.y.shape[-1], c.y.dtype
    shift = denom = None
    if c.softmax:
        if stats is None:
            raise ValueError("softmax backward needs the forward SweepStats")
        shift, denom = (np.asarray(x, dtype) for x in (stats.shift, stats.denom))
        if not shift.shape == denom.shape == (n, c.heads):
            raise ValueError(f"stats have shapes {shift.shape} / {denom.shape}, not {(n, c.heads)}")
    if row_inner is not None:
        row_inner = np.asarray(row_inner, dtype)
        if not c.softmax or row_inner.shape != (n, c.heads):
            raise ValueError(
                f"row_inner has shape {row_inner.shape}; it needs a softmax and {(n, c.heads)}"
            )
    if score_grad:
        counter.add(2 * work * kp, "SDDMM")  # dPsi sampled product
        if c.softmax:
            counter.add(4 * work, "softmax_bwd")
    counter.add(2 * work * kp, "SpMM")  # dY
    if score_grad and psi != "add":  # dRow and dCol; cosine: plus the two norm-endpoint SpMVs
        counter.add(4 * work * (c.k + (psi == "cosine")), "SpMM")
    row_key, col_key = ("dU", "dV") if psi == "add" else ("dRow", "dCol")
    fn, args = _dispatch(c, "backward", a, shift, denom, row_inner)
    if fn is not None:
        # Fresh C-contiguous arrays (C gets their addresses); it scatters into the zeros.
        out = {"dY": np.zeros(c.y.shape, dtype)}
        if score_grad:
            out[col_key] = np.zeros(c.dst.shape, dtype)
        if score_grad and psi == "cosine":
            out["dNormRow"] = np.empty(c.norms.shape, dtype)
            out["dNormCol"] = np.zeros(c.norms_dst.shape, dtype)
            out["dCoef"] = np.zeros(c.heads, dtype)
        length = plan_sweep(a.structure, c.heads, c.k)
        row_exit = _edge.run(
            fn, c.src.shape if score_grad else (0,), dtype, *args, c.y, c.dz, kp, shift,
            denom, row_inner, int(score_grad), length // c.heads, np.empty(4 * length, dtype),
            out["dY"], out.get(col_key), out.get("dNormRow"), out.get("dNormCol"),
            out.get("dCoef"),
        )
        if score_grad:
            out[row_key] = row_exit
        return out
    rows, cols = a.expand_rows(), a.indices
    p, aux, cos = _masked_scores(c, a)
    if c.softmax:
        p -= np.take(shift, rows, axis=0).reshape(p.shape)
        np.exp(p, out=p)
        p /= np.take(denom, rows, axis=0).reshape(p.shape)
    out = {"dY": spmm(a.with_data(p).transpose(), c.dz)}
    if not score_grad:
        return out
    g = sddmm_dot(a, c.dz, c.y)
    if row_inner is not None:
        g -= np.take(row_inner, rows, axis=0).reshape(g.shape)
        g *= p
    elif c.softmax:
        g = masked_row_softmax_backward(p, g, a.indptr, rows=rows)
    g *= c.mask
    if psi == "add":
        np.multiply(g, c.coef, out=g, where=~(aux > 0))
        out["dU"] = segment_sum(g, a.indptr)
        out["dV"] = bincount_sum(cols, g, m)
        return out
    if psi == "cosine":
        out["dCoef"] = (g * cos).reshape(a.nnz, c.heads).sum(axis=0)
        g = _safe_div(g * c.coef, aux)
        dden = -(g * cos)
        out["dNormRow"] = segment_sum(dden * np.take(c.norms_dst, cols, axis=0), a.indptr)
        out["dNormCol"] = bincount_sum(cols, dden * np.take(c.norms, rows, axis=0), m)
    out["dRow"] = spmm(a.with_data(g), c.dst)
    out["dCol"] = spmm(a.with_data(g).transpose(), c.src)
    return out

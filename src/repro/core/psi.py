"""Global formulations of the attention operators :math:`\\Psi` (Section 4.1)
and their vector-Jacobian products (Section 5).

Each ``psi_*`` function maps ``(A, H, params)`` to the sparse attention
matrix ``S`` sharing A's pattern, never materialising any virtual
:math:`n \\times n` intermediate; each ``psi_*_vjp`` maps the gradient
w.r.t. S's stored values back to gradients of the inputs, using only
Table-2 kernels (SpMM / SDDMM / segment reductions), which is what makes
the backward pass distributable with the same 1.5D schedule as the
forward pass.

Conventions
-----------
* ``A`` is the (possibly weighted) adjacency CSR; attention models
  normally use a binary pattern with self-loops.
* Gradients w.r.t. sparse matrices are arrays over *stored values* in
  A's row-major edge order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.activations import leaky_relu, leaky_relu_grad
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import (
    masked_row_softmax_backward,
    sddmm_add,
    sddmm_cosine,
    sddmm_dot,
    softmax_rows,
    spmm,
)
from repro.tensor.segment import bincount_sum, segment_softmax, segment_sum
from repro.util.counters import FlopCounter, null_counter

__all__ = [
    "PsiVACache",
    "PsiAGNNCache",
    "PsiGATCache",
    "psi_va",
    "psi_va_vjp",
    "psi_agnn",
    "psi_agnn_vjp",
    "psi_gat",
    "psi_gat_vjp",
]


# ----------------------------------------------------------------------
# Vanilla attention:  Psi_VA = A ⊙ (H H^T)
# ----------------------------------------------------------------------
@dataclass
class PsiVACache:
    """Forward-pass intermediates reused by :func:`psi_va_vjp`."""

    a: CSRMatrix
    h: np.ndarray


def psi_va(
    a: CSRMatrix,
    h: np.ndarray,
    counter: FlopCounter = null_counter(),
) -> tuple[CSRMatrix, PsiVACache]:
    """VA attention scores: sampled dot products (one SDDMM).

    :math:`\\Psi = \\mathcal{A} \\odot (H H^T)` — the dense Gram matrix
    is virtual; only entries on A's pattern are computed.
    """
    dots = sddmm_dot(a, h, h, counter=counter)
    s = a.with_data(a.data * dots)
    return s, PsiVACache(a=a, h=h)


def psi_va_vjp(
    ds_values: np.ndarray,
    cache: PsiVACache,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """Gradient of VA's Psi w.r.t. ``H``.

    With :math:`N = \\mathcal{A} \\odot dS` (the masked score gradient),
    the feature gradient is :math:`N_+ H = (N + N^T) H` — the paper's
    Eq. (11) contribution, computed as two SpMMs.
    """
    a, h = cache.a, cache.h
    n_mat = a.with_data(ds_values * a.data)
    dh = spmm(n_mat, h, counter=counter)
    dh += spmm(n_mat.transpose(), h, counter=counter)
    return dh


# ----------------------------------------------------------------------
# AGNN:  Psi_AGNN = sm( A ⊙ (beta * (H H^T ⊘ n n^T)) )
# ----------------------------------------------------------------------
@dataclass
class PsiAGNNCache:
    """Forward-pass intermediates reused by :func:`psi_agnn_vjp`."""

    a: CSRMatrix
    h: np.ndarray
    cos_values: np.ndarray
    norms: np.ndarray
    denom: np.ndarray
    softmax_values: np.ndarray
    beta: float
    eps: float


def psi_agnn(
    a: CSRMatrix,
    h: np.ndarray,
    beta: float = 1.0,
    eps: float = 1e-12,
    counter: FlopCounter = null_counter(),
) -> tuple[CSRMatrix, PsiAGNNCache]:
    """AGNN attention: graph softmax over masked cosine similarities.

    :math:`\\Psi = \\mathrm{sm}(\\mathcal{A} \\odot (H H^T \\oslash
    n\\,n^T))` where ``n`` holds the row L2 norms of ``H`` (Figure 1).
    ``beta`` is AGNN's propagation temperature; the paper's formulation
    fixes it (:math:`\\partial\\Psi/\\partial W = 0`), but it may be
    trained via the ``dbeta`` output of the VJP.
    """
    cos, norms, denom = sddmm_cosine(
        a, h, eps=eps, counter=counter, with_denom=True
    )
    scaled = beta * cos
    soft = segment_softmax(scaled, a.indptr, rows=softmax_rows(a, scaled))
    counter.add(5 * a.nnz, "softmax")
    s = a.with_data(soft)
    cache = PsiAGNNCache(
        a=a, h=h, cos_values=cos, norms=norms, denom=denom,
        softmax_values=soft, beta=beta, eps=eps,
    )
    return s, cache


def psi_agnn_vjp(
    ds_values: np.ndarray,
    cache: PsiAGNNCache,
    counter: FlopCounter = null_counter(),
) -> tuple[np.ndarray, float]:
    """Gradients of AGNN's Psi w.r.t. ``H`` and ``beta``.

    Chains the softmax Jacobian (Section 4.2's ``sm`` differentiated
    with ``sum``/``rep`` blocks) with the cosine-similarity Jacobian:

    .. math:: \\partial c_{ij}/\\partial h_i = h_j/(n_i n_j)
              - c_{ij} h_i / n_i^2

    accumulated over both endpoint roles of every edge — four SpMM-shaped
    terms, two of which are diagonal row scalings.
    """
    a, h = cache.a, cache.h
    # Softmax backward on stored values.
    dt = masked_row_softmax_backward(
        cache.softmax_values, ds_values, a.indptr,
        rows=softmax_rows(a, cache.softmax_values, ds_values),
        counter=counter,
    )
    dbeta = float(np.dot(dt, cache.cos_values))
    dc = cache.beta * dt

    norms = np.maximum(cache.norms, cache.eps)
    # The forward pass already gathered and clipped the per-edge norm
    # products (sddmm_cosine with_denom=True); divide by that exact
    # quantity instead of re-gathering both norm endpoints.
    d_mat = a.with_data(dc / cache.denom)
    dh = spmm(d_mat, h, counter=counter)
    dh += spmm(d_mat.transpose(), h, counter=counter)

    # Diagonal corrections: - rowsum(dc ⊙ c)/n_i^2 * h_i  (row role)
    #                       - colsum(dc ⊙ c)/n_j^2 * h_j  (column role)
    dcc = dc * cache.cos_values
    row_corr = segment_sum(dcc, a.indptr)
    col_corr = bincount_sum(a.indices, dcc, a.shape[1])
    inv_sq = 1.0 / (norms * norms)
    dh -= ((row_corr + col_corr) * inv_sq)[:, None] * h
    counter.add(6 * a.nnz + 4 * h.size, "agnn_vjp")
    return dh, dbeta


# ----------------------------------------------------------------------
# GAT:  Psi_GAT = sm( A ⊙ LeakyReLU( rep(H W a) + rep^T(H W ā) ) )
# ----------------------------------------------------------------------
@dataclass
class PsiGATCache:
    """Forward-pass intermediates reused by :func:`psi_gat_vjp`."""

    a: CSRMatrix
    hp: np.ndarray
    a_src: np.ndarray
    a_dst: np.ndarray
    raw_values: np.ndarray
    softmax_values: np.ndarray
    slope: float


def psi_gat(
    a: CSRMatrix,
    hp: np.ndarray,
    a_src: np.ndarray,
    a_dst: np.ndarray,
    slope: float = 0.2,
    counter: FlopCounter = null_counter(),
) -> tuple[CSRMatrix, PsiGATCache]:
    """GAT attention from *projected* features ``hp = H W``.

    Figure 2's derivation: the concatenated dot product
    :math:`\\mathbf{a}^T [Wh_i \\| Wh_j]` splits into
    :math:`u_i + v_j` with :math:`u = H W a,\\; v = H W \\bar{a}`; the
    virtual matrix :math:`C = \\mathrm{rep}(u) + \\mathrm{rep}^T(v)` is
    sampled on A's pattern (one additive SDDMM), passed through
    LeakyReLU and the graph softmax.

    Head-batched form: ``hp`` of shape ``(n, heads, d)`` with attention
    vectors stacked as ``(heads, d)`` matrices yields ``(nnz, heads)``
    stacked scores ``S`` — every head's logits, LeakyReLU and softmax
    run in the same kernel sweeps, with flop counts equal to the summed
    per-head loop.
    """
    hp = np.asarray(hp)
    # einsum (not BLAS gemv) in both branches: each row's logit is then
    # bitwise independent of how many other rows share the batch, so a
    # vertex scores identically in any ego-batch that contains it (the
    # serving coalescer's batched == per-request identity contract).
    if hp.ndim == 3:
        u = np.einsum("nhd,hd->nh", hp, a_src)
        v = np.einsum("nhd,hd->nh", hp, a_dst)
    else:
        u = np.einsum("nd,d->n", hp, a_src)
        v = np.einsum("nd,d->n", hp, a_dst)
    counter.add(4 * hp.size, "gat_uv")
    raw = sddmm_add(a, u, v, counter=counter)
    logits = leaky_relu(raw, slope)
    counter.add(raw.size, "leaky_relu")
    soft = segment_softmax(logits, a.indptr, rows=softmax_rows(a, logits))
    counter.add(5 * raw.size, "softmax")
    s = a.with_data(soft)
    return s, PsiGATCache(
        a=a, hp=hp, a_src=np.asarray(a_src), a_dst=np.asarray(a_dst),
        raw_values=raw, softmax_values=soft, slope=slope,
    )


def psi_gat_vjp(
    ds_values: np.ndarray,
    cache: PsiGATCache,
    counter: FlopCounter = null_counter(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of GAT's Psi w.r.t. ``hp``, ``a_src`` and ``a_dst``.

    Returns ``(dhp, da_src, da_dst)``. ``dhp`` carries the
    :math:`\\partial\\Psi/\\partial W` term of the general weight-update
    formulation (Eq. 7): the caller folds it into ``dW = H^T dhp``.
    """
    a, hp = cache.a, cache.hp
    dlogits = masked_row_softmax_backward(
        cache.softmax_values, ds_values, a.indptr,
        rows=softmax_rows(a, cache.softmax_values, ds_values),
        counter=counter,
    )
    draw = dlogits * leaky_relu_grad(cache.raw_values, cache.slope)
    du = segment_sum(draw, a.indptr)
    dv = bincount_sum(a.indices, draw, a.shape[1])
    counter.add(3 * draw.size, "gat_vjp")

    # u = hp @ a_src, v = hp @ a_dst — rank-1 feature gradients (one
    # rank-1 update per head in the batched layout).
    if hp.ndim == 3:
        da_src = np.einsum("nhd,nh->hd", hp, du)
        da_dst = np.einsum("nhd,nh->hd", hp, dv)
        dhp = (
            du[:, :, None] * cache.a_src[None]
            + dv[:, :, None] * cache.a_dst[None]
        )
    else:
        da_src = hp.T @ du
        da_dst = hp.T @ dv
        dhp = np.outer(du, cache.a_src) + np.outer(dv, cache.a_dst)
    counter.add(6 * hp.size, "gat_vjp")
    return dhp, da_src, da_dst

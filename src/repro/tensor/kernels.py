"""Compute kernels of Table 2: SpMM, SDDMM, MM, SpMMM, MSpMM.

These kernels are the complete compute vocabulary of the paper's global
formulations — every forward and backward pass of VA, AGNN and GAT
decomposes into them (Figure 1). Design points:

* **Semiring-generic SpMM** (Section 4.3): the neighbourhood
  aggregation :math:`\\mathcal{A} \\oplus H` runs over the real,
  tropical min/max, or average semiring.
* **SDDMM family**: sampled dense-dense products computing per-edge
  attention logits without materialising the virtual :math:`n \\times n`
  score matrix (Section 6.1).
* **NumPy only, the oracle of the fused sweep**: SDDMM (dot / add /
  cosine) and the row softmax with its backward are the unfused
  kernels the paper composes, written as NumPy gathers and segment
  reductions. The built-in layers run the fused row sweep of
  :mod:`repro.tensor.megakernel` instead, whose compiled side
  (:mod:`repro.tensor._edge`) is the one backend choice in the library:
  :func:`backend` reports it. These kernels are the general route of a
  user ``Psi``, the baselines' and the oracle the sweep is tested
  against. SDDMM edge chunks bound peak scratch —
  the "computed in small parts using a dynamic schedule" strategy.
* **Kernel selection by semiring**: the real-semiring SpMM delegates
  to ``scipy.sparse`` (BLAS-backed), mirroring the paper's delegation
  to cuSPARSE; the pure-NumPy path (:func:`spmm_reference`) is the
  correctness oracle and the only path for exotic semirings.
* **Flop accounting**: every kernel reports textbook flop counts to an
  optional :class:`~repro.util.counters.FlopCounter`, feeding the
  simulated-cluster cost model.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import traced as _traced
from repro.tensor._edge import backend
from repro.tensor.csr import CSRMatrix
from repro.tensor.segment import (
    _check_row_operands,
    expand_segments,
    segment_softmax,
    segment_sum,
)
from repro.tensor.semiring import AVERAGE, REAL, Semiring
from repro.util.counters import FlopCounter, null_counter

__all__ = [
    "mm",
    "spmm",
    "spmm_reference",
    "sddmm_dot",
    "sddmm_add",
    "sddmm_cosine",
    "spmmm",
    "mspmm",
    "masked_row_softmax",
    "masked_row_softmax_backward",
    "backend",
]

#: Default edge-chunk size for SDDMM gathers; bounds peak scratch
#: memory to ``2 * CHUNK * k`` floats regardless of nnz. 32k entries
#: keeps both gather buffers inside the last-level cache at typical
#: feature widths (measured ~2x faster than 1M-entry chunks at k=64).
_SDDMM_CHUNK = 1 << 15


# ----------------------------------------------------------------------
# Dense product
# ----------------------------------------------------------------------
def mm(
    a: np.ndarray,
    b: np.ndarray,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """Dense matrix product ``a @ b`` with flop accounting (2mkn).

    ``a`` may carry leading batch axes (e.g. a head-stacked
    ``(n, heads, k)`` operand against a shared ``(k, k')`` weight); the
    flop count ``2 · a.size · k'`` then equals the summed per-head
    counts exactly.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    counter.add(2 * a.size * b.shape[-1], "MM")
    if a.ndim == 2 and a.shape[0] == 1 and b.ndim == 2:
        # One row would take BLAS's matrix-vector path, which sums in
        # another order than the matrix product of any other row count:
        # a hop's rows must not depend on how many it has.
        return (np.concatenate((a, a)) @ b)[:1]
    return a @ b


# ----------------------------------------------------------------------
# SpMM — semiring-generic sparse-dense product
# ----------------------------------------------------------------------
@_traced("kernel.spmm")
def spmm(
    a: CSRMatrix,
    h: np.ndarray,
    semiring: Semiring = REAL,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """Sparse-dense product :math:`\\mathcal{A} \\oplus H` over a semiring.

    The real semiring multiplies through the pattern's cached scipy
    view (one BLAS-backed C sweep, one per head for stacked values);
    every other semiring runs the gather + segment-reduce path that
    :func:`spmm_reference` exposes for all of them.

    Parameters
    ----------
    a:
        Sparse ``n x m`` matrix. For tropical semirings its values must
        already be lifted via
        :func:`~repro.tensor.semiring.adjacency_values`.
    h:
        Dense ``m x k`` matrix (a 1-D vector is treated as ``m x 1``).
        When ``a`` carries stacked per-head values ``(nnz, heads)``,
        ``h`` must be head-batched too: ``(m, heads, k)`` or the flat
        equivalent ``(m, heads * k)``; the result mirrors the operand
        layout (``(n, heads, k)`` or ``(n, heads * k)``).
    semiring:
        Aggregation semiring; defaults to the real semiring (sum
        aggregation).

    Returns
    -------
    Dense ``n x k`` array. Rows with no stored entries receive the
    semiring's additive identity (0 for real/average, ±inf for the
    tropical semirings). Flop counts are ``2·nnz·k`` per head, so a
    stacked call counts exactly the summed per-head calls.
    """
    h, out_shape = _spmm_operand(a, h)
    counter.add(2 * a.nnz * int(np.prod(h.shape[1:])), "SpMM")
    if semiring is REAL and a.data.ndim == 1:
        out = a.to_scipy() @ h
    elif semiring is REAL:
        # One scipy product per head: the same per-row sums, in the same
        # order, as one product over the whole stack.
        out = np.stack([
            a.with_data(np.ascontiguousarray(a.data[:, i])).to_scipy() @ h[:, i]
            for i in range(h.shape[1])
        ], axis=1)
    else:
        out = _spmm_semiring(a, h, semiring)
    return out.reshape(out_shape)


def spmm_reference(
    a: CSRMatrix, h: np.ndarray, semiring: Semiring = REAL
) -> np.ndarray:
    """:func:`spmm` in pure NumPy for every semiring, the real one too.

    One gather and one segment reduction over the ``(nnz, k)`` — or
    ``(nnz, heads, k)`` — stack: the path :func:`spmm` takes for every
    semiring but the real one, and the oracle the scipy path is tested
    against. Same operand layouts and result as :func:`spmm`.
    """
    h, out_shape = _spmm_operand(a, h)
    return _spmm_semiring(a, h, semiring).reshape(out_shape)


def _spmm_operand(
    a: CSRMatrix, h: np.ndarray
) -> tuple[np.ndarray, tuple[int, ...]]:
    """``h`` as ``(m, k)`` — ``(m, heads, k)`` against stacked values —
    and the result's shape in the caller's layout."""
    h = np.asarray(h)
    out_shape = (a.shape[0],) + h.shape[1:]
    if a.data.ndim == 2:
        heads = a.data.shape[1]
        if h.ndim == 2:
            if h.shape[1] % heads:
                raise ValueError(
                    f"flat operand width {h.shape[1]} is not a multiple of "
                    f"heads={heads}"
                )
            h = h.reshape(h.shape[0], heads, -1)
        if h.ndim != 3 or h.shape[1] != heads:
            raise ValueError(
                f"batched SpMM needs a (m, {heads}, k) or (m, {heads}*k) "
                f"operand, got shape {np.shape(h)}"
            )
    elif h.ndim == 1:
        h = h[:, None]
    if a.shape[1] != h.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {h.shape}")
    return h, out_shape


def _spmm_semiring(
    a: CSRMatrix, h: np.ndarray, semiring: Semiring
) -> np.ndarray:
    """Gather + segment-reduce SpMM over any semiring, either layout.

    The AVERAGE semiring of Section 4.3 runs in unpacked form: the
    running pair ``(value, weight)`` is carried as separate
    numerator/denominator arrays, which is exactly the tuple trick the
    paper describes ("keeping track of partial sums and of their
    contributions") vectorised over all rows (and heads).
    """
    if semiring is AVERAGE or semiring.pair_valued:
        num = _spmm_gather_reduce(a, h, REAL)
        den = segment_sum(a.data, a.indptr)
        safe = np.where(den == 0, 1, den).astype(h.dtype)
        out = num / safe[..., None]
        out[den == 0] = 0
        return out
    return _spmm_gather_reduce(a, h, semiring)


def _spmm_gather_reduce(
    a: CSRMatrix, h: np.ndarray, semiring: Semiring
) -> np.ndarray:
    """One gather, one combine, one segment reduction (scalar semiring).

    ``h`` may be ``(m, heads, k)`` against stacked ``(nnz, heads)``
    edge values — the single gather and the single segment reduction
    then serve all heads at once.
    """
    n = a.shape[0]
    feat = h.shape[1:]
    result = np.empty((n,) + feat, dtype=h.dtype)
    if a.nnz == 0:
        result.fill(semiring.zero)
        return result
    cdtype = np.result_type(a.data, h)
    gathered = np.take(h, a.indices, axis=0)
    if cdtype == h.dtype:
        combined = gathered
    else:
        combined = np.empty((a.nnz,) + feat, cdtype)
    edge_vals = a.data[:, None] if a.data.ndim == 1 else a.data[:, :, None]
    semiring.mul(edge_vals, gathered, out=combined)
    lengths = a.row_lengths()
    # Reduce over non-empty rows only (see segment._reduceat for the
    # reduceat quirks this avoids); empty rows get the additive identity.
    if n and not np.any(lengths == 0):
        if cdtype == result.dtype:
            semiring.add.reduceat(combined, a.indptr[:-1], axis=0, out=result)
        else:
            red = semiring.add.reduceat(combined, a.indptr[:-1], axis=0)
            # "unsafe" matches the old trailing astype(h.dtype) exactly.
            np.copyto(result, red, casting="unsafe")
        return result
    result.fill(semiring.zero)
    nonempty = lengths > 0
    if np.any(nonempty):
        result[nonempty] = semiring.add.reduceat(
            combined, a.indptr[:-1][nonempty], axis=0
        )
    return result


# ----------------------------------------------------------------------
# SDDMM family — sampled dense-dense products on the edge set
# ----------------------------------------------------------------------
def _check_sddmm_dot(pattern: CSRMatrix, x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim not in (2, 3) or x.ndim != y.ndim:
        raise ValueError("sddmm_dot operands must both be 2-D or both 3-D")
    if x.shape[1:] != y.shape[1:]:
        raise ValueError("feature dimensions differ in sddmm_dot")
    if x.shape[0] != pattern.shape[0] or y.shape[0] != pattern.shape[1]:
        raise ValueError("operand row counts do not match pattern shape")


@_traced("kernel.sddmm_dot")
def sddmm_dot(
    pattern: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """Per-edge dot products: ``e_rc = x[r] . y[c]`` for stored ``(r, c)``.

    This is the fused kernel behind the VA formulation
    :math:`\\mathcal{A} \\odot (H H^T)` — the dense ``H H^T`` is virtual
    and only its sampled entries are ever computed, in bounded-memory
    edge chunks of ``_SDDMM_CHUNK`` edges, with the COO row vector from
    the pattern's structure cache and two chunk-sized gather temporaries.

    Head-batched operands ``(n, heads, k)`` produce ``(nnz, heads)``
    per-edge values — one pattern sweep computes every head's dot
    product, with flops equal to the summed per-head counts.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    _check_sddmm_dot(pattern, x, y)
    nnz = pattern.nnz
    feat = x.shape[1:]
    counter.add(2 * nnz * int(np.prod(feat)), "SDDMM")
    chunk = _SDDMM_CHUNK
    if x.ndim == 3:
        # The chunk budget counts edges at single-head width; stacked
        # operands gather ``heads`` times more scalars per edge, so shrink
        # the edge chunk to keep the scratch buffers cache-sized (measured
        # ~2x on 8-head float64 SDDMMs versus head-oblivious chunking).
        chunk = max(1, chunk // feat[0])
    rows = pattern.expand_rows()
    cols = pattern.indices
    out = np.empty((nnz,) + feat[:-1], dtype=np.result_type(x, y))
    csize = min(chunk, nnz)
    gx = np.empty((csize,) + feat, x.dtype)
    gy = np.empty((csize,) + feat, y.dtype)
    spec = "ij,ij->i" if x.ndim == 2 else "ihj,ihj->ih"
    for start in range(0, nnz, chunk):
        stop = min(start + chunk, nnz)
        bx = gx[: stop - start]
        by = gy[: stop - start]
        np.take(x, rows[start:stop], axis=0, out=bx, mode="clip")
        np.take(y, cols[start:stop], axis=0, out=by, mode="clip")
        np.einsum(spec, bx, by, out=out[start:stop])
    return out


@_traced("kernel.sddmm_add")
def sddmm_add(
    pattern: CSRMatrix,
    u: np.ndarray,
    v: np.ndarray,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """Per-edge sums: ``e_rc = u[r] + v[c]`` for stored ``(r, c)``.

    The GAT logit kernel: the virtual matrix
    :math:`C = \\mathrm{rep}(u) + \\mathrm{rep}^T(v)` of Figure 2 is
    sampled directly on the adjacency pattern. Head-stacked operands
    ``(n, heads)`` yield stacked ``(nnz, heads)`` logits in the same
    two gathers.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if (
        u.ndim not in (1, 2)
        or u.ndim != v.ndim
        or u.shape[1:] != v.shape[1:]
        or u.shape[0] != pattern.shape[0]
        or v.shape[0] != pattern.shape[1]
    ):
        raise ValueError(
            "u/v must be matching vectors or (n, heads) stacks matching "
            "the pattern shape"
        )
    counter.add(pattern.nnz * int(np.prod(u.shape[1:])), "SDDMM")
    out = np.take(u, pattern.expand_rows(), axis=0)
    out = out.astype(np.result_type(u, v), copy=False)
    out += np.take(v, pattern.indices, axis=0)
    return out


@_traced("kernel.sddmm_cosine")
def sddmm_cosine(
    pattern: CSRMatrix,
    h: np.ndarray,
    norms: np.ndarray | None = None,
    eps: float = 1e-12,
    counter: FlopCounter = null_counter(),
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge cosine similarities (the AGNN :math:`\\Psi` kernel).

    Computes ``e_rc = (h[r] . h[c]) / (n_r * n_c)`` on the stored
    entries, where ``n`` holds the row L2 norms — the global
    formulation's Hadamard division by the virtual outer product
    :math:`n n^T`, sampled on the pattern. The row vector is read once
    from the pattern's structure cache (shared with the inner
    :func:`sddmm_dot`), and the division runs in place over the dot
    values.

    Returns
    -------
    (values, norms):
        Edge cosine values, each dot divided by ``max(n_r * n_c, eps)``,
        and the (possibly freshly computed) row norms.
    """
    h = np.asarray(h)
    _check_sddmm_dot(pattern, h, h)
    if norms is None:
        norms = np.sqrt(np.einsum("...j,...j->...", h, h))
        counter.add(2 * h.size, "norms")
    norms = np.asarray(norms)
    if norms.shape != h.shape[:-1]:
        raise ValueError(
            f"sddmm_cosine: norms of shape {norms.shape} do not match "
            f"operand rows {h.shape[:-1]}"
        )
    heads = int(np.prod(h.shape[1:-1]))
    values = sddmm_dot(pattern, h, h, counter=counter)
    counter.add(2 * pattern.nnz * heads, "SDDMM")
    denom = np.take(norms, pattern.expand_rows(), axis=0)
    np.multiply(denom, np.take(norms, pattern.indices, axis=0), out=denom)
    np.maximum(denom, eps, out=denom)
    np.divide(values, denom, out=values)
    return values, norms


# ----------------------------------------------------------------------
# Composite kernels identified by the paper
# ----------------------------------------------------------------------
@_traced("kernel.spmmm")
def spmmm(
    a: CSRMatrix,
    b: np.ndarray,
    c: np.ndarray,
    semiring: Semiring = REAL,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """SpMMM: sparse × dense × dense, :math:`\\mathcal{A} B C`.

    The forward-pass pattern :math:`\\Psi H W` (Table 2, new kernel).
    The association order is chosen by flop count: ``(A B) C`` costs
    ``2 nnz k + 2 n k k'`` while ``A (B C)`` costs ``2 m k k' + 2 nnz k'``;
    for tall-skinny ``B`` and small ``C`` the difference is the
    :math:`\\Phi \\circ \\oplus` composition-order choice of Section 4.4.

    When ``a`` carries stacked per-head values ``(nnz, heads)``, ``b``
    must be head-batched ``(m, heads, k)`` and ``c`` stays a shared
    ``(k, k')`` weight; both association orders then cost ``heads``
    times their per-head figure, so the order choice matches the
    per-head loop exactly.
    """
    b = np.asarray(b)
    c = np.asarray(c)
    heads = a.data.shape[1] if a.data.ndim == 2 else 1
    if heads > 1 and (b.ndim != 3 or b.shape[1] != heads):
        raise ValueError(
            f"batched SpMMM needs a (m, {heads}, k) middle operand, got "
            f"shape {b.shape}"
        )
    k, kp = b.shape[-1], c.shape[1]
    cost_left = heads * (2 * a.nnz * k + 2 * a.shape[0] * k * kp)
    cost_right = heads * (2 * b.shape[0] * k * kp + 2 * a.nnz * kp)
    if cost_left <= cost_right:
        return mm(
            spmm(a, b, semiring=semiring, counter=counter), c, counter=counter
        )
    return spmm(
        a, mm(b, c, counter=counter), semiring=semiring, counter=counter
    )


@_traced("kernel.mspmm")
def mspmm(
    d: np.ndarray,
    a: CSRMatrix,
    e: np.ndarray,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """MSpMM: dense × sparse × dense, :math:`D \\mathcal{A} E`.

    The backward-pass pattern (Table 2, new kernel), e.g. the weight
    gradient :math:`H^T \\Psi^T G`. Evaluated as ``D (A E)`` when that
    is cheaper, otherwise as ``((A^T D^T))^T E`` — both reuse the SpMM
    kernel, since a dense-times-sparse product is the transpose of a
    sparse-times-dense one. ``a`` holds one value per edge.
    """
    d = np.asarray(d)
    e = np.asarray(e)
    if a.data.ndim != 1:
        raise ValueError("mspmm takes one value per edge, not stacked heads")
    kd, ke = d.shape[0], e.shape[1]
    cost_right = 2 * a.nnz * ke + 2 * d.shape[0] * a.shape[0] * ke
    cost_left = 2 * a.nnz * kd + 2 * kd * a.shape[1] * ke
    if cost_right <= cost_left:
        return mm(d, spmm(a, e, counter=counter), counter=counter)
    da = spmm(a.transpose(), d.T, counter=counter).T
    return mm(da, e, counter=counter)


# ----------------------------------------------------------------------
# Graph softmax (Section 4.2) on a sparse pattern
# ----------------------------------------------------------------------
@_traced("kernel.masked_row_softmax")
def masked_row_softmax(
    s: CSRMatrix,
    counter: FlopCounter = null_counter(),
) -> CSRMatrix:
    """Row-wise softmax over the stored entries of ``s``.

    The global formulation
    :math:`\\mathrm{sm}(\\mathcal{X}) = \\exp(\\mathcal{X}) \\oslash
    \\mathrm{rs}_n(\\exp(\\mathcal{X}))` evaluated without materialising
    the replicated :math:`n \\times n` denominator (Section 6.1). Both
    replications are single gathers through the pattern's cached COO
    row vector. Stacked ``(nnz, heads)`` values are normalised per head
    in the same sweep.
    """
    counter.add(5 * s.data.size, "softmax")
    return s.with_data(segment_softmax(s.data, s.indptr, rows=s.expand_rows()))


@_traced("kernel.masked_row_softmax_backward")
def masked_row_softmax_backward(
    softmax_values: np.ndarray,
    grad_values: np.ndarray,
    indptr: np.ndarray,
    rows: np.ndarray | None = None,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """Gradient of :func:`masked_row_softmax` w.r.t. its pre-softmax input.

    For row-wise softmax ``S = sm(E)``:

    .. math:: dE = S \\odot (dS - \\mathrm{rs}(\\mathrm{sum}(S \\odot dS)))

    i.e. each row subtracts the row-scalar :math:`\\langle S, dS\\rangle`
    before rescaling — the Jacobian-vector product expressed with the
    Table-2 building blocks ``sum`` and ``rep`` only. ``rows`` (the
    pattern's cached COO row vector) makes the replication one gather
    instead of a ``repeat`` of the row lengths.
    """
    softmax_values = np.asarray(softmax_values)
    grad_values = np.asarray(grad_values)
    _check_row_operands(
        "masked_row_softmax_backward", np.asarray(indptr), rows,
        softmax_values, grad_values,
    )
    counter.add(4 * softmax_values.size, "softmax_bwd")
    inner = segment_sum(softmax_values * grad_values, indptr)
    out = expand_segments(inner, indptr, rows=rows)
    np.subtract(grad_values, out, out=out)
    np.multiply(softmax_values, out, out=out)
    return out

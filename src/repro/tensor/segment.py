"""Segment reductions over CSR row boundaries.

All per-neighbourhood operations of the paper — row summation
(``sum(X) = X 1`` from Table 2), the graph softmax of Section 4.2, and
min/max/average aggregations — reduce, on a CSR layout, to *segment
reductions*: a reduction of ``values[indptr[i]:indptr[i+1]]`` per row
``i``. NumPy's ``ufunc.reduceat`` implements this in C, with one quirk:
an empty segment does not produce the identity element but copies the
next value. Every helper here repairs empty segments explicitly, so
isolated vertices are handled correctly throughout the library.

The graph softmax here is plain NumPy, the oracle of the fused sweep
in :mod:`repro.tensor.megakernel`: :func:`segment_softmax` (and
``kernels.masked_row_softmax_backward`` through the same helper)
validates its operands before any step reads them.

The scatter-style counterpart — summing per-entry values into their
*column* — is :func:`bincount_sum`, a single C pass via
``np.bincount`` replacing the notoriously slow ``np.add.at``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segment_sum",
    "segment_max",
    "segment_softmax",
    "expand_segments",
    "ragged_ranges",
    "bincount_sum",
]


def _reduceat(ufunc: np.ufunc, values: np.ndarray, indptr: np.ndarray,
              identity: float) -> np.ndarray:
    """Apply ``ufunc.reduceat`` per segment, repairing empty segments.

    ``values`` may be 1-D (per-edge scalars) or 2-D (per-edge feature
    rows); reduction is along axis 0 within each segment.
    """
    n_seg = indptr.shape[0] - 1
    if n_seg == 0:
        shape = (0,) if values.ndim == 1 else (0, values.shape[1])
        return np.empty(shape, dtype=values.dtype)
    lengths = np.diff(indptr)
    shape = (n_seg,) if values.ndim == 1 else (n_seg, values.shape[1])
    if values.shape[0] == 0:
        return np.full(shape, identity, dtype=values.dtype)
    # Reduce over non-empty segments only: their starts are strictly
    # increasing and < len(values), and consecutive non-empty starts
    # span exactly the elements of the earlier segment (empty segments
    # contribute none). This sidesteps both reduceat quirks at once —
    # repeated indices and out-of-range trailing starts.
    nonempty = lengths > 0
    out = np.full(shape, identity, dtype=values.dtype)
    if np.any(nonempty):
        out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty], axis=0)
    return out


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sum; empty segments yield 0."""
    return _reduceat(np.add, np.asarray(values), np.asarray(indptr), 0)


def segment_max(values: np.ndarray, indptr: np.ndarray,
                identity: float = -np.inf) -> np.ndarray:
    """Per-segment maximum; empty segments yield ``identity``."""
    return _reduceat(np.maximum, np.asarray(values), np.asarray(indptr), identity)


def bincount_sum(
    indices: np.ndarray, weights: np.ndarray, minlength: int
) -> np.ndarray:
    """Scatter-add ``weights`` into bins: ``out[indices[e]] += weights[e]``.

    A dtype-preserving wrapper around ``np.bincount``: accumulation
    happens in float64 (bincount's native precision) and the result is
    cast back to ``weights``' dtype. Replaces ``np.add.at``, which
    dispatches per element, on all column-scatter paths (column sums,
    GAT/AGNN column gradients).

    ``weights`` may be 2-D (``(nnz, heads)`` stacked per-head values);
    the scatter then runs as one C pass over offset bins
    ``indices[e] * heads + h`` and returns ``(minlength, heads)``.
    """
    weights = np.asarray(weights)
    indices = np.asarray(indices)
    if weights.ndim == 2:
        heads = weights.shape[1]
        keys = indices[:, None] * np.int64(heads) + np.arange(
            heads, dtype=np.int64
        )
        out = np.bincount(
            keys.reshape(-1),
            weights=np.ascontiguousarray(weights).reshape(-1),
            minlength=minlength * heads,
        )
        return out.reshape(minlength, heads).astype(weights.dtype, copy=False)
    out = np.bincount(indices, weights=weights, minlength=minlength)
    return out.astype(weights.dtype, copy=False)


def expand_segments(
    per_segment: np.ndarray,
    indptr: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Replicate one value per segment back to per-entry length.

    This is the replication step ``rep_n(x) = x 1^T`` of Table 2,
    restricted to the sparsity pattern — the virtual n×n replication is
    never materialised (Section 6.1), only its sampled entries.

    When ``rows`` (the cached COO row vector of the pattern) is given,
    the replication is a single ``np.take`` — no ``repeat`` of the
    segment lengths.
    """
    if rows is not None:
        return np.take(per_segment, rows, axis=0)
    return np.repeat(per_segment, np.diff(indptr), axis=0)


def ragged_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + l)`` for each (start, length) pair.

    The vectorised ragged gather of the tensor layer:
    ``repeat(starts - exclusive_cumsum(lengths), lengths) + arange(total)``.
    """
    out = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    out += np.arange(out.shape[0], dtype=np.int64)
    return out


def _check_row_operands(
    name: str, indptr: np.ndarray, rows: np.ndarray | None, *values: np.ndarray
) -> None:
    """Check a row kernel's operands.

    ``values`` must share one ``(nnz,)`` / ``(nnz, heads)`` shape that
    ``indptr`` ends at (``rows``, when given, is its COO vector): a
    ``ValueError`` naming the kernel otherwise, as is a row pointer that
    leaves ``[0, nnz]`` or decreases.
    """
    shape = values[0].shape
    if (
        len(shape) not in (1, 2)
        or any(v.shape != shape for v in values)
        or indptr.ndim != 1
        or indptr.size == 0
        or indptr[-1] != shape[0]
        or (rows is not None and np.shape(rows) != shape[:1])
    ):
        raise ValueError(
            f"{name}: values of shape {[v.shape for v in values]} (rows of "
            f"shape {np.shape(rows)}) need a row pointer ending at "
            f"{shape[:1]}, got {indptr[-1:]} of shape {indptr.shape}"
        )
    if indptr[0] < 0 or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError(
            f"{name}: row pointer is not non-decreasing within the stored entries"
        )


def segment_softmax(
    values: np.ndarray,
    indptr: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Numerically-stable softmax within each segment.

    Implements the global graph-softmax formulation of Section 4.2,

    .. math:: \\mathrm{sm}(\\mathcal{X}) = \\exp(\\mathcal{X}) \\oslash
              \\mathrm{rs}_n(\\exp(\\mathcal{X}))

    on the stored entries only: ``exp`` per edge, row sums via
    multiplication by a column of ones (step 2), replication (step 3)
    and element-wise division (step 4). A per-segment max-shift is
    applied first for stability, which leaves the softmax unchanged.

    ``rows`` (the pattern's cached COO row vector) turns both
    replications into single gathers; without it they ``repeat`` the
    segment lengths. The values are the same either way.
    """
    values = np.asarray(values)
    indptr = np.asarray(indptr)
    if not np.issubdtype(values.dtype, np.inexact):
        values = values.astype(np.float64)
    _check_row_operands("segment_softmax", indptr, rows, values)
    if values.shape[0] == 0:
        return values.copy()
    result = expand_segments(
        segment_max(values, indptr, identity=0.0), indptr, rows
    )
    np.subtract(values, result, out=result)
    np.exp(result, out=result)
    denom = segment_sum(result, indptr)
    # Rows with no entries never index into denom; guard regardless.
    denom = np.where(denom == 0, 1, denom)
    np.divide(result, expand_segments(denom, indptr, rows), out=result)
    return result

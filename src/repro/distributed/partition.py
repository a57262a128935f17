"""Block partitioning of adjacency and feature matrices.

The square grid uses one global row partition into ``P`` near-equal
blocks (the paper's :math:`n/\\sqrt{p}` slices); the adjacency block
``(i, j)`` pairs row block ``i`` with column block ``j``. Block
extraction happens rank-locally from the full matrix — modelling the
artifact's setup phase, where the graph is generated/loaded directly
into its distributed layout and is not part of the measured runtime.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.grid import ProcessGrid
from repro.tensor.csr import CSRMatrix

__all__ = [
    "block_range",
    "block_ranges",
    "check_inputs",
    "split_by_owner",
    "distribute_adjacency",
    "distribute_features",
    "collect_feature_blocks",
]


def check_inputs(
    a: CSRMatrix,
    features: np.ndarray,
    labels: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    out_dim: int | None = None,
) -> None:
    """Refuse a run that would fail inside a rank thread, naming the
    argument: a square adjacency, one feature row per vertex, ``labels``
    / ``mask`` of length ``n``, and, given ``labels`` and ``out_dim``,
    integer classes in ``[0, out_dim)`` wherever the mask reads one.
    Every partitioned entry point (1.5D and DistDGL-style) checks this
    before any rank starts."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"a has shape {a.shape}; the adjacency must be square")
    if np.ndim(features) != 2 or len(features) != n:
        raise ValueError(
            f"features has shape {np.shape(features)}; a {a.shape} adjacency needs ({n}, in_dim)")
    for name, value in (("labels", labels), ("mask", mask)):
        if value is not None and len(value) != n:
            raise ValueError(f"{name} has length {len(value)}; the graph has {n} vertices")
    if labels is not None and out_dim is not None:
        read = np.asarray(labels) if mask is None else np.asarray(labels)[np.asarray(mask, bool)]
        if read.ndim != 1 or not np.issubdtype(read.dtype, np.integer) or (
            read.size and (read.min() < 0 or read.max() >= out_dim)
        ):
            raise ValueError(f"labels must be integer classes in [0, {out_dim})")


def block_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ``parts`` contiguous near-equal ranges.

    The first ``n % parts`` ranges get the extra element, so any two
    ranges differ in size by at most one — keeping the 2D blocks
    balanced without requiring ``parts | n``.
    """
    if parts < 1:
        raise ValueError("parts must be positive")
    base, extra = divmod(n, parts)
    ranges = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def split_by_owner(ids: np.ndarray, n: int, parts: int) -> list[np.ndarray]:
    """Sorted vertex ids split by the range of :func:`block_ranges`
    that owns them, in rank order."""
    starts = [start for start, _ in block_ranges(n, parts)[1:]]
    return np.split(ids, np.searchsorted(ids, starts))


def block_range(n: int, parts: int, index: int) -> tuple[int, int]:
    """The ``index``-th range of :func:`block_ranges` (O(1))."""
    base, extra = divmod(n, parts)
    if not 0 <= index < parts:
        raise ValueError("block index out of range")
    start = index * base + min(index, extra)
    return start, start + base + (1 if index < extra else 0)


def distribute_adjacency(
    a: CSRMatrix, grid: ProcessGrid
) -> CSRMatrix:
    """Extract this rank's adjacency block ``A[i, j]``.

    Uses the same ``P``-way partition for rows and columns (square
    grid), so the input and output feature blockings coincide — the
    property the Section-7 analysis relies on.
    """
    if grid.px != grid.py:
        raise ValueError("the 1.5D schedule requires a square grid")
    n = a.shape[0]
    r0, r1 = block_range(n, grid.px, grid.row)
    c0, c1 = block_range(n, grid.py, grid.col)
    return a.extract_block(r0, r1, c0, c1)


def distribute_features(
    h: np.ndarray, grid: ProcessGrid
) -> np.ndarray:
    """This rank's input feature block ``H_j`` (column-replicated).

    Every rank in grid column ``j`` holds an identical copy of block
    ``j`` — "distributed in :math:`P_y` blocks, each replicated
    :math:`P_x` times".
    """
    c0, c1 = block_range(h.shape[0], grid.py, grid.col)
    return np.ascontiguousarray(h[c0:c1])


def collect_feature_blocks(
    grid: ProcessGrid, local_block: np.ndarray
) -> np.ndarray | None:
    """Gather the column-replicated blocks into the full matrix at rank 0.

    Only grid row 0 contributes (the other rows hold replicas); used by
    tests and the API layer to compare distributed against single-node
    results. Returns the assembled matrix on world rank 0, ``None``
    elsewhere.
    """
    payload = local_block if grid.row == 0 else None
    gathered = grid.comm.gather(payload, root=0)
    if grid.comm.rank != 0:
        return None
    blocks = [None] * grid.py
    for rank, block in enumerate(gathered):
        if block is not None:
            row, col = divmod(rank, grid.py)
            if row == 0:
                blocks[col] = block
    return np.concatenate(blocks, axis=0)

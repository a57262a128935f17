"""Shared communication patterns of the 1.5D GNN schedule.

Four patterns cover every distributed operation of the forward and
backward passes (Figure 1's compute DAGs):

1. **Diagonal row broadcast** — the SDDMM kernels pair *row-side*
   features :math:`H_i` with *column-side* features :math:`H_j`; the
   column-replicated layout already provides :math:`H_j` locally, and
   :math:`H_i` is broadcast along grid row ``i`` from the diagonal
   rank ``(i, i)`` (which owns it as its column block).
2. **Row-wise reductions** — a graph softmax over a row split across
   the grid row needs the row's maximum score: one ``max`` allreduce
   along the grid row, ``(b, heads)`` words. Its normalising sums ride
   pattern 3, and the backward's one cross-block quantity rides the
   diagonal's row broadcast of the output gradient.
3. **Reduce + redistribute** — the layer output exists as ``P``
   partial sums per row block; a ring reduce-scatter along the grid
   row sums them leaving each rank one chunk, and a chunk exchange
   reassembles column-replicated input blocks for the next layer.
   Per-rank volume: :math:`2nk/\\sqrt{p}` — the Section-7 bound.
4. **Transpose exchange** — backward passes produce some terms grouped
   by *row* block while the output layout needs *column* blocks; ranks
   ``(i, j)`` and ``(j, i)`` swap their blocks pairwise.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.partition import block_ranges
from repro.runtime.grid import ProcessGrid
from repro.tensor.csr import CSRMatrix

__all__ = [
    "irow_bcast_from_diagonal", "reduce_and_redistribute", "itranspose_exchange",
    "distributed_semiring_aggregate", "OpSequencer", "ReadyResult",
]


class ReadyResult:
    """A completion handle whose value is already there, so local no-op
    "transfers" (a diagonal rank's transpose, the synchronous
    redistribute) are waited like real ones."""

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        self._value = value

    def wait(self):
        return self._value


class OpSequencer:
    """Per-rank counter issuing matching tags for point-to-point phases.

    SPMD code advances it identically on every rank, so tag ``n`` on
    the sender matches tag ``n`` on the receiver without negotiation.
    """

    def __init__(self) -> None:
        self._next = 0

    def next(self) -> int:
        self._next += 1
        return self._next


def irow_bcast_from_diagonal(grid: ProcessGrid, block: np.ndarray | None):
    """Start broadcasting the diagonal rank's block along its grid row.

    Rank ``(i, i)`` contributes its column block (which equals row
    block ``i`` on a square grid); waiting on the returned
    :class:`~repro.runtime.communicator.CollectiveHandle` gives every
    rank ``(i, j)`` :math:`H_i`. The diagonal rank's sends go out
    immediately, so local compute issued before ``wait()`` runs while
    :math:`H_i` is in flight. Volume :math:`O(nk/\\sqrt{p})` per rank
    over :math:`O(\\log p)` steps, as in Section 7.1.
    """
    root = grid.row  # local rank within row_comm whose col == row.
    return grid.row_comm.ibcast(block, root=root)


def _normalised(block: np.ndarray, heads: int) -> np.ndarray:
    """Divide each head's columns of ``block`` by its softmax denominator,
    one of the last ``heads`` columns (a row with none divides by 1), in
    place; the denominators stay."""
    if heads:
        den = block[:, -heads:]
        den[den == 0] = 1
        # A view: it splits the contiguous trailing axis.
        num = block[:, :-heads].reshape(block.shape[0], heads, -1)
        num /= den[:, :, None]
    return block


def reduce_and_redistribute(
    grid: ProcessGrid, partial: np.ndarray, sequencer: OpSequencer, op: str = "sum",
    denominators: int = 0,
) -> np.ndarray:
    """Reduce row-wise partial outputs and form next-layer input blocks.

    ``partial`` is this rank's :math:`\\Psi_{ij} H'_j` share of output row
    block ``i``. A ring reduce-scatter along the grid row with ``op``
    leaves rank ``(i, j)`` the reduced ``j``-th chunk of row block ``i``;
    the chunk exchange sends it to every rank of grid *column* ``i``
    (next-layer input block ``i``) and gathers block ``j``'s chunks from
    grid row ``j``. Returns the column-replicated next input block
    :math:`H_j`; on a 1x1 grid, ``partial``.

    ``denominators > 0``: the last that many columns are a split softmax's
    denominators, one per equal-width head group of the columns before
    them; each reduced chunk is divided by its sums before the exchange,
    which carries them along as the block's last columns.
    """
    p = grid.px
    tag = ("redistribute", sequencer.next())
    if p == 1:
        return _normalised(partial, denominators)
    chunks = [
        np.ascontiguousarray(partial[start:stop])
        for start, stop in block_ranges(partial.shape[0], p)
    ]
    mine = _normalised(grid.row_comm.reduce_scatter(chunks, op=op), denominators)
    comm = grid.comm
    # Send my chunk (rows of block `grid.row`) to every rank in grid
    # column `grid.row`; receive block `grid.col`'s chunks from grid
    # row `grid.col`.
    for t in range(p):
        dst = t * p + grid.row
        comm.send(mine, dst, tag=(tag, grid.col))
    received = [comm.recv(grid.col * p + t, tag=(tag, t)) for t in range(p)]
    return np.concatenate(received, axis=0)


def itranspose_exchange(grid: ProcessGrid, block: np.ndarray, sequencer: OpSequencer):
    """Start swapping blocks between ranks ``(i, j)`` and ``(j, i)``.

    Converts a quantity indexed by *row* block into the rank's *column*
    block index (diagonal ranks are a no-op). One message of block size
    each way: the outgoing block is posted immediately (sends are
    buffered); the returned handle's ``wait()`` collects the partner's
    block, keeping any outstanding collectives progressing meanwhile.
    """
    # Advance the sequencer on EVERY rank — including diagonal ones that
    # send nothing — so tag streams stay aligned across the grid.
    tag = ("transpose", sequencer.next())
    if grid.row == grid.col:
        return ReadyResult(block)
    partner = grid.col * grid.py + grid.row
    grid.comm.isend(block, partner, tag=tag)
    return grid.comm.irecv(partner, tag=tag)


def distributed_semiring_aggregate(
    grid: ProcessGrid, a_block: CSRMatrix, h_block: np.ndarray, semiring, sequencer: OpSequencer,
) -> np.ndarray:
    """Semiring aggregation :math:`\\mathcal{A} \\oplus H` on the 1.5D grid.

    The generalisation of Section 4.3 to the distributed schedule: the
    local blocks run the semiring SpMM, and the cross-rank combination
    reuses the reduce+redistribute pipeline with the semiring's *own*
    additive monoid (min/max ride the communicator's ``min``/``max``
    reduce ops; the commutative-monoid laws are exactly what makes the
    ring reduce-scatter valid for them).

    Supports the real and tropical semirings; the pair-valued AVERAGE
    semiring would need a two-channel reduce and is left to the
    single-node path.
    """
    from repro.tensor.kernels import spmm_reference

    if semiring.pair_valued:
        raise NotImplementedError("pair-valued semirings are not distributed")
    op = {"add": "sum", "minimum": "min", "maximum": "max"}.get(semiring.add.__name__)
    if op is None:
        raise ValueError(f"no collective reduce op for {semiring.name}")
    partial = spmm_reference(a_block, h_block, semiring=semiring)
    return reduce_and_redistribute(grid, partial, sequencer, op=op)

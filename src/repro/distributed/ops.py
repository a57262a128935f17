"""Shared communication patterns of the 1.5D GNN schedule.

Four patterns cover every distributed operation of the forward and
backward passes (Figure 1's compute DAGs):

1. **Diagonal row broadcast** — the SDDMM kernels pair *row-side*
   features :math:`H_i` with *column-side* features :math:`H_j`; the
   column-replicated layout already provides :math:`H_j` locally, and
   :math:`H_i` is broadcast along grid row ``i`` from the diagonal
   rank ``(i, i)`` (which owns it as its column block).
2. **Row-wise reductions** — the graph softmax needs per-row maxima
   and sums over the *full* row of the distributed score matrix:
   ``allreduce`` along the grid row with ``max``/``sum``.
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
from repro.tensor.segment import expand_segments, segment_max, segment_sum

__all__ = [
    "irow_bcast_from_diagonal",
    "reduce_and_redistribute",
    "itranspose_exchange",
    "distributed_row_softmax",
    "distributed_row_softmax_backward",
    "distributed_semiring_aggregate",
    "OpSequencer",
    "ReadyResult",
]


class ReadyResult:
    """Handle-shaped wrapper around an already-available value.

    Lets schedule code treat local no-op "transfers" (diagonal ranks in
    a transpose, 1x1 grids) uniformly with real completion handles.
    """

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        self._value = value

    @property
    def done(self) -> bool:
        return True

    def test(self) -> bool:
        return True

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


def reduce_and_redistribute(
    grid: ProcessGrid,
    partial: np.ndarray,
    sequencer: OpSequencer,
    op: str = "sum",
) -> np.ndarray:
    """Reduce row-wise partial outputs and form next-layer input blocks.

    ``partial`` is this rank's :math:`\\Psi_{ij} H'_j` contribution to
    output row block ``i``. Steps:

    * ring reduce-scatter along the grid row with ``op``: rank
      ``(i, j)`` ends with the fully-reduced ``j``-th chunk of row
      block ``i``;
    * chunk exchange: the chunk's rows belong to next-layer input
      block ``i``, needed by every rank of grid *column* ``i`` — send
      it there, and receive the chunks of block ``j`` from the ranks of
      grid row ``j``.

    Returns the complete, column-replicated next input block
    :math:`H_j`. On a 1x1 grid this is the identity.
    """
    p = grid.px
    tag = ("redistribute", sequencer.next())
    if p == 1:
        return partial
    chunks = [
        np.ascontiguousarray(partial[start:stop])
        for start, stop in block_ranges(partial.shape[0], p)
    ]
    mine = grid.row_comm.reduce_scatter(chunks, op=op)
    comm = grid.comm
    # Send my chunk (rows of block `grid.row`) to every rank in grid
    # column `grid.row`; receive block `grid.col`'s chunks from grid
    # row `grid.col`.
    for t in range(p):
        dst = t * p + grid.row
        comm.send(mine, dst, tag=(tag, grid.col))
    received = [comm.recv(grid.col * p + t, tag=(tag, t)) for t in range(p)]
    return np.concatenate(received, axis=0)


def itranspose_exchange(
    grid: ProcessGrid,
    block: np.ndarray,
    sequencer: OpSequencer,
):
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
    grid: ProcessGrid,
    a_block: CSRMatrix,
    h_block: np.ndarray,
    semiring,
    sequencer: OpSequencer,
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
        raise NotImplementedError(
            "pair-valued semirings are not distributed"
        )
    op = {"add": "sum", "minimum": "min", "maximum": "max"}.get(
        semiring.add.__name__
    )
    if op is None:
        raise ValueError(f"no collective reduce op for {semiring.name}")
    partial = spmm_reference(a_block, h_block, semiring=semiring)
    return reduce_and_redistribute(grid, partial, sequencer, op=op)


def distributed_row_softmax(
    grid: ProcessGrid,
    a_block: CSRMatrix,
    values: np.ndarray,
) -> np.ndarray:
    """Graph softmax over rows that span the whole grid row.

    The local block holds only a slice of each vertex's neighbourhood,
    so the stabilising max and the normalising sum are reduced along
    the grid row (``allreduce`` of one scalar per local row —
    :math:`O(n/\\sqrt{p})` words, feature-free). The exp/divide steps
    stay local, exactly as the global formulation's virtual replicated
    denominator prescribes (Section 4.2).
    """
    indptr = a_block.indptr
    local_max = segment_max(values, indptr, identity=-np.inf)
    row_max = grid.row_comm.allreduce(local_max, op="max")
    # Rows empty across the entire grid row keep -inf; make the shift
    # benign (their exp contributes nothing anyway).
    shift = np.where(np.isfinite(row_max), row_max, 0.0)
    exp = np.exp(values - expand_segments(shift, indptr))
    local_sum = segment_sum(exp, indptr)
    row_sum = grid.row_comm.allreduce(local_sum)
    denom = np.where(row_sum == 0, 1.0, row_sum)
    return exp / expand_segments(denom, indptr)


def distributed_row_softmax_backward(
    grid: ProcessGrid,
    a_block: CSRMatrix,
    softmax_values: np.ndarray,
    grad_values: np.ndarray,
) -> np.ndarray:
    """Jacobian-vector product of :func:`distributed_row_softmax`.

    ``dE = S ⊙ (dS - rs(<S, dS>))`` with the per-row inner product
    reduced along the grid row.
    """
    indptr = a_block.indptr
    local_inner = segment_sum(softmax_values * grad_values, indptr)
    inner = grid.row_comm.allreduce(local_inner)
    return softmax_values * (grad_values - expand_segments(inner, indptr))

"""Vertex reordering and partition load-balance diagnostics.

The 2D block distribution's balance depends entirely on vertex order:
R-MAT/Kronecker generators cluster hubs at low ids, putting most
nonzeros into block (0,0) and serialising the whole grid behind one
rank. Graph500 therefore mandates vertex scrambling, and systems like
CAGNET randomly permute inputs. This module provides the orderings and
a quantitative balance report, so the effect is measurable rather than
folkloric (see ``benchmarks/test_ablation_load_balance.py`` — the
difference is ~3x in weak-scaling efficiency on Kronecker graphs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.partition import block_range
from repro.tensor.coo import COOMatrix
from repro.tensor.csr import CSRMatrix
from repro.util.rng import make_rng

__all__ = [
    "permute",
    "random_order",
    "degree_sort_order",
    "load_balance_report",
    "LoadBalanceReport",
]


def permute(
    graph: COOMatrix | CSRMatrix, order: np.ndarray
) -> COOMatrix | CSRMatrix:
    """Relabel vertices: new id of vertex ``v`` is ``order[v]``.

    ``order`` must be a permutation of ``range(n)``. Returns the same
    format as the input.
    """
    order = np.asarray(order, dtype=np.int64)
    n = graph.shape[0]
    if graph.shape[0] != graph.shape[1]:
        raise ValueError("permute expects a square adjacency")
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("order must be a permutation of range(n)")
    if isinstance(graph, CSRMatrix):
        return CSRMatrix.from_entries(
            order[graph.expand_rows()], order[graph.indices], graph.data, graph.shape
        )
    return COOMatrix(
        order[graph.rows], order[graph.cols], graph.data.copy(), shape=graph.shape
    )


def random_order(n: int, seed: int | np.random.Generator | None = 0
                 ) -> np.ndarray:
    """A uniformly random permutation (the Graph500 scramble)."""
    return make_rng(seed).permutation(n)


def degree_sort_order(graph: COOMatrix | CSRMatrix,
                      descending: bool = True) -> np.ndarray:
    """Order vertices by degree — the *adversarial* layout for 2D blocks.

    Sorting hubs together maximises the densest block's nonzero count;
    useful as the worst-case endpoint in load-balance studies.
    """
    if isinstance(graph, CSRMatrix):
        degrees = graph.row_lengths()
    else:
        degrees = graph.row_degrees() + graph.col_degrees()
    ranks = np.argsort(-degrees if descending else degrees, kind="stable")
    order = np.empty_like(ranks)
    order[ranks] = np.arange(len(ranks))
    return order


@dataclass(frozen=True)
class LoadBalanceReport:
    """Nonzero distribution across the ``P x P`` grid blocks."""

    p: int
    total_nnz: int
    max_block_nnz: int
    mean_block_nnz: float
    imbalance: float  # max / mean; 1.0 is perfect

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"P={self.p}: nnz={self.total_nnz}, max block="
            f"{self.max_block_nnz}, imbalance={self.imbalance:.2f}x"
        )


def load_balance_report(a: CSRMatrix, p: int) -> LoadBalanceReport:
    """Compute block-nonzero balance for a square ``sqrt(p)``-grid.

    ``imbalance`` is the ratio the critical path pays: the slowest
    rank's edge work over the average. ``p`` must be a perfect square.
    """
    grid_dim = int(np.sqrt(p))
    if grid_dim * grid_dim != p:
        raise ValueError("p must be a perfect square")
    n = a.shape[0]
    counts = []
    for i in range(grid_dim):
        r0, r1 = block_range(n, grid_dim, i)
        for j in range(grid_dim):
            c0, c1 = block_range(n, grid_dim, j)
            counts.append(a.extract_block(r0, r1, c0, c1).nnz)
    counts_arr = np.asarray(counts)
    mean = float(counts_arr.mean()) if counts_arr.size else 0.0
    return LoadBalanceReport(
        p=p,
        total_nnz=a.nnz,
        max_block_nnz=int(counts_arr.max()) if counts_arr.size else 0,
        mean_block_nnz=mean,
        imbalance=float(counts_arr.max() / mean) if mean else 1.0,
    )

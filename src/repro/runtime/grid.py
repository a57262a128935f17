"""2D cartesian process grids (Section 6.3).

The 1.5D A-stationary distribution places the adjacency matrix on a
``Px x Py`` grid: rank ``r`` holds grid position ``(row, col) =
(r // Py, r % Py)`` and the adjacency block ``A[row, col]``. Row and
column sub-communicators carry the broadcast/reduce traffic of the
distributed SpMM and attention kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.communicator import Communicator

__all__ = ["ProcessGrid", "square_grid"]


@dataclass
class ProcessGrid:
    """One rank's view of a ``px x py`` cartesian grid.

    Attributes
    ----------
    comm:
        The full (world or parent) communicator.
    row, col:
        This rank's grid coordinates.
    row_comm:
        Sub-communicator of the ranks sharing ``row`` (local rank =
        ``col``); carries broadcasts along a grid row.
    col_comm:
        Sub-communicator of the ranks sharing ``col`` (local rank =
        ``row``); carries broadcasts/reductions along a grid column.
    """

    comm: Communicator
    px: int
    py: int
    row: int
    col: int
    row_comm: Communicator
    col_comm: Communicator


def square_grid(comm: Communicator, px: int | None = None,
                py: int | None = None) -> ProcessGrid:
    """Build a process grid from ``comm``.

    Without explicit dimensions the grid is the squarest factorisation
    of ``p`` (exactly ``sqrt(p) x sqrt(p)`` for perfect squares, the
    shape the Section-7 analysis assumes).
    """
    p = comm.size
    if px is None or py is None:
        px = int(np.sqrt(p))
        while p % px:
            px -= 1
        py = p // px
    if px * py != p:
        raise ValueError(f"grid {px}x{py} does not match {p} ranks")
    row, col = divmod(comm.rank, py)
    row_comm = comm.split(color=row, key=col)
    col_comm = comm.split(color=col, key=row)
    return ProcessGrid(
        comm=comm, px=px, py=py, row=row, col=col,
        row_comm=row_comm, col_comm=col_comm,
    )

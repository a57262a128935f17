"""Graph500-style Kronecker (R-MAT) graph generator.

A vectorised reimplementation of the Graph500 Kronecker module the
artifact ships as a C shared library: each edge descends ``scale``
levels of a 2x2 probability matrix, choosing a quadrant per level. The
default initiator ``(A, B, C) = (0.57, 0.19, 0.19)`` is the Graph500
standard and produces the heavy-tail, badly load-balanced degree
distributions the paper's strong-scaling experiments rely on.

The artifact notes two post-processing steps, both applied here:
duplicate edges are removed, and every vertex is connected to at least
one other vertex. As in the artifact, the vertex count is rounded down
to a power of two.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.prep import _graph_from_keys
from repro.tensor.coo import COOMatrix
from repro.util.rng import make_rng

__all__ = ["kronecker"]

#: Graph500 initiator probabilities.
INITIATOR = (0.57, 0.19, 0.19)


def kronecker(
    n: int,
    m: int,
    seed: int | np.random.Generator | None = 0,
    initiator: tuple[float, float, float] = INITIATOR,
    symmetrize: bool = True,
    ensure_connected: bool = True,
    scramble: bool = True,
) -> COOMatrix:
    """Generate a Kronecker graph with ~``m`` distinct edges.

    Parameters
    ----------
    n:
        Requested vertex count; rounded down to the nearest power of
        two (the generator recursion requires it, as in the artifact).
    m:
        Number of edge samples drawn. After deduplication the distinct
        edge count is somewhat smaller — the same semantics as the
        artifact's ``--edges`` flag.
    seed:
        RNG seed.
    initiator:
        The (A, B, C) quadrant probabilities; D = 1 - A - B - C.
    symmetrize:
        Mirror edges to model an undirected graph (GNN datasets are
        predominantly undirected, Section 5.2).
    ensure_connected:
        Attach every isolated vertex to a random neighbour.
    scramble:
        Apply the Graph500-mandated random vertex permutation. The
        R-MAT recursion clusters hubs at low vertex ids; scrambling
        removes the id-locality while preserving the heavy-tail degree
        distribution, exactly as the Graph500 Kronecker module does.

    Returns
    -------
    A canonical :class:`~repro.tensor.coo.COOMatrix` adjacency pattern
    (binary values, no self loops).
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if m < 1:
        raise ValueError("need at least one edge sample")
    rng = make_rng(seed)
    scale = int(np.floor(np.log2(n)))
    n = 1 << scale
    a, b, c = initiator
    if 1.0 - a - b - c < 0:
        raise ValueError("initiator probabilities exceed 1")
    if min(a, b, c) < 0:
        raise ValueError("initiator probabilities must be non-negative")
    return _graph_from_keys(
        _rmat_keys(rng, m, scale, initiator, scramble), n, rng,
        symmetrize=symmetrize, ensure_connected=ensure_connected,
    )


def _rmat_keys(
    rng: np.random.Generator,
    m: int,
    scale: int,
    initiator: tuple[float, float, float],
    scramble: bool,
) -> np.ndarray:
    """``m`` sampled edge keys ``row * 2**scale + col``."""
    a, b, c = initiator
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    r = np.empty(m)
    over = np.empty(m, dtype=bool)
    # Descend the recursion level by level, fully vectorised over edges.
    # The quadrants split [0, 1) at a <= a + b <= a + b + c into A, B
    # (col bit), C (row bit) and D (both), so the row bit is
    # [r >= a + b] and the col bit [r >= a] - [r >= a + b] + [r >= a + b + c].
    for _level in range(scale):
        rng.random(out=r)
        rows <<= 1
        cols <<= 1
        np.greater_equal(r, a, out=over)
        cols += over
        np.greater_equal(r, a + b, out=over)
        rows += over
        cols -= over
        np.greater_equal(r, a + b + c, out=over)
        cols += over
    del r, over

    if scramble:
        permutation = rng.permutation(1 << scale)
        np.take(permutation, rows, out=rows)
        np.take(permutation, cols, out=cols)
    rows <<= scale
    rows += cols
    return rows

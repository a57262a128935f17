"""Graph preprocessing: the shared build finish, repairs, statistics,
model-ready adjacency.

Every generator hands its sampled edges to :func:`_graph_from_keys` as
int64 keys ``row * n + col``. Sorting keys sorts entries row-major, so
the artifact's post-generation pipeline — self loops dropped, edges
mirrored, duplicates removed, every vertex connected to at least one
other — is a few passes over one key vector sorted in place, with no
argsort permutation and no per-step row/column copies;
:func:`prepare_adjacency` turns sorted keys straight into CSR. Also the
statistics that the theory predictors of Section 7 consume (maximum
degree ``d``, density ``rho = m / n^2``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.coo import COOMatrix
from repro.tensor.csr import CSRMatrix
from repro.util.rng import make_rng

__all__ = [
    "ensure_min_degree",
    "prepare_adjacency",
    "density",
    "graph_stats",
    "GraphStats",
]


def _graph_from_keys(
    key: np.ndarray,
    n: int,
    rng: np.random.Generator,
    symmetrize: bool = True,
    ensure_connected: bool = True,
) -> COOMatrix:
    """Finish a sampled graph given as edge keys ``row * n + col``.

    ``key`` may hold repeats and self loops in any order, and is
    consumed: pass an array nothing else refers to, so it is freed at
    the first step. Self loops are dropped, edges mirrored when
    ``symmetrize``, repeats merged, and with ``ensure_connected`` every
    isolated vertex is attached as :func:`ensure_min_degree` does, with
    the same draw from ``rng``. Returns the canonical binary pattern.
    """
    # row == col exactly when the key is a multiple of n + 1.
    key = key[key % (n + 1) != 0]
    if symmetrize:
        key = _mirrored(key, n)
    key = COOMatrix.unique_keys(key)
    if ensure_connected:
        key = _attach_isolated(key, n, rng, symmetrize)
    return COOMatrix.from_sorted_keys(key, (n, n))


def _mirrored(key: np.ndarray, n: int) -> np.ndarray:
    """``key`` followed by its transposed keys; overwrites ``key``."""
    k = key.shape[0]
    out = np.empty(2 * k, dtype=np.int64)
    out[:k] = key
    back = out[k:]
    np.remainder(key, n, out=back)
    back *= n
    key //= n
    back += key
    return out


def _union(key: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Sorted union of the sorted unique ``key`` and ``extra``."""
    pos = np.searchsorted(key, extra)
    found = np.zeros(extra.shape[0], dtype=bool)
    inside = pos < key.shape[0]
    found[inside] = key[pos[inside]] == extra[inside]
    if found.all():
        return key
    return np.insert(key, pos[~found], extra[~found])


def _attach_isolated(
    key: np.ndarray, n: int, rng: np.random.Generator, symmetric: bool
) -> np.ndarray:
    """Sorted unique ``key`` plus one edge per isolated vertex.

    A vertex is isolated when it has neither out- nor in-edges; its
    repair edge goes to a random other vertex and is mirrored when
    ``symmetric``. Returns ``key`` itself when no vertex is isolated.
    """
    if n < 2:
        return key
    degree = np.bincount(key // n, minlength=n)
    degree += np.bincount(key % n, minlength=n)
    isolated = np.flatnonzero(degree == 0)
    if isolated.size == 0:
        return key
    partners = rng.integers(0, n - 1, isolated.size, dtype=np.int64)
    # Shift partners at-or-after the isolated vertex by one to skip it.
    partners += partners >= isolated
    extra = [isolated * n + partners]
    if symmetric:
        extra.append(partners * n + isolated)
    return _union(key, np.unique(np.concatenate(extra)))


def ensure_min_degree(
    coo: COOMatrix,
    rng: int | np.random.Generator | None = 0,
    symmetric: bool = True,
) -> COOMatrix:
    """Attach every isolated vertex to a random other vertex.

    The artifact: the generated graph "is further processed ... by
    ensuring that each vertex is connected to at least one other
    vertex". A vertex is isolated when it has neither out- nor
    in-edges; the repair edge avoids self loops and is mirrored when
    ``symmetric``. Returns ``coo`` itself when nothing is isolated.
    """
    rng = make_rng(rng)
    n = coo.shape[0]
    if coo.shape[1] != n:
        raise ValueError("ensure_min_degree requires a square matrix")
    key = coo.sorted_keys()
    repaired = _attach_isolated(key, n, rng, symmetric)
    if repaired is key:
        return coo
    return COOMatrix.from_sorted_keys(repaired, coo.shape, coo.dtype)


def prepare_adjacency(
    coo: COOMatrix,
    self_loops: bool = True,
    dtype: np.dtype | type = np.float32,
) -> CSRMatrix:
    """Produce the attention-ready adjacency CSR.

    A-GNNs attend over :math:`\\widehat{N}(v) = N(v) \\cup \\{v\\}`, so
    the pattern gets the full diagonal by default; values are binary.
    The CSR is built from sorted edge keys: a canonical ``coo`` is not
    sorted again, and the diagonal is merged in by position.
    """
    n_rows, n_cols = coo.shape
    if self_loops and n_rows != n_cols:
        raise ValueError("add_self_loops requires a square matrix")
    key = coo.sorted_keys()
    if self_loops:
        key = _union(key, np.arange(n_rows, dtype=np.int64) * (n_rows + 1))
    indptr = np.searchsorted(key, np.arange(n_rows + 1, dtype=np.int64) * n_cols)
    np.remainder(key, n_cols, out=key)
    return CSRMatrix(indptr, key, np.ones(key.shape[0], dtype=dtype), coo.shape)


def density(coo_or_csr) -> float:
    """Adjacency density :math:`\\rho = m / n^2` (the paper's sweep knob)."""
    n_r, n_c = coo_or_csr.shape
    if n_r == 0 or n_c == 0:
        return 0.0
    return coo_or_csr.nnz / (n_r * n_c)


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics consumed by the Section-7 volume predictors."""

    n: int
    m: int
    density: float
    max_degree: int
    mean_degree: float
    isolated: int


def graph_stats(csr: CSRMatrix) -> GraphStats:
    """Compute :class:`GraphStats` for a (square) adjacency matrix."""
    deg = csr.row_lengths()
    return GraphStats(
        n=csr.shape[0],
        m=csr.nnz,
        density=density(csr),
        max_degree=int(deg.max()) if deg.size else 0,
        mean_degree=float(deg.mean()) if deg.size else 0.0,
        isolated=int(np.sum(deg == 0)),
    )

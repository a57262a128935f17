"""Erdős–Rényi (random uniform degree distribution) graphs.

These are the artifact's B2 datasets, used in the paper to verify the
communication-volume analysis of Section 7.3: every edge exists with a
constant probability ``q``, independently, giving excellent load
balance. The generator samples edge endpoints directly (O(m) memory,
never O(n^2)), so densities of 1%/0.1%/0.01% at the evaluation sizes
are all cheap to produce.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.prep import _graph_from_keys
from repro.tensor.coo import COOMatrix
from repro.util.rng import make_rng

__all__ = ["erdos_renyi"]


def erdos_renyi(
    n: int,
    m: int | None = None,
    q: float | None = None,
    seed: int | np.random.Generator | None = 0,
    symmetrize: bool = True,
    ensure_connected: bool = True,
    max_rounds: int = 64,
) -> COOMatrix:
    """Generate a G(n, q)-style graph with ~``m`` distinct edges.

    Exactly one of ``m`` (target edge count) or ``q`` (edge
    probability, with ``m = q * n^2``) must be given — the artifact's
    ``--edges`` flag corresponds to ``m``. Endpoints are drawn
    uniformly, deduplicated, and topped up over a few rounds so the
    final distinct count is close to the target.
    """
    if (m is None) == (q is None):
        raise ValueError("give exactly one of m or q")
    if q is not None:
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        m = int(round(q * n * n))
    if m < 1:
        raise ValueError("target edge count must be positive")
    if m > n * (n - 1):
        raise ValueError("more edges requested than loop-free pairs exist")
    rng = make_rng(seed)

    return _graph_from_keys(
        _uniform_keys(rng, n, m, max_rounds), n, rng,
        symmetrize=symmetrize, ensure_connected=ensure_connected,
    )


def _uniform_keys(
    rng: np.random.Generator, n: int, target: int, max_rounds: int
) -> np.ndarray:
    """Up to ``target`` distinct loop-free edge keys ``row * n + col``."""
    key = np.empty(0, dtype=np.int64)
    # Top-up loop: duplicates and self loops shrink each draw, so draw
    # slightly more than missing and repeat until close to target.
    for _round in range(max_rounds):
        missing = target - key.shape[0]
        if missing <= 0:
            break
        draw = int(missing * 1.1) + 16
        rows = rng.integers(0, n, draw, dtype=np.int64)
        cols = rng.integers(0, n, draw, dtype=np.int64)
        keep = rows != cols
        rows *= n
        rows += cols
        # Deduplicate across rounds.
        key = COOMatrix.unique_keys(np.concatenate([key, rows[keep]]))
    # An overshoot keeps the smallest keys.
    return key[:target]

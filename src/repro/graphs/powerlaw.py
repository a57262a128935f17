"""Power-law (Chung–Lu) graphs — the MAKG substitute.

The paper's large-real-world experiments run on the Microsoft Academic
Knowledge Graph (111M vertices, 3.2B edges), which is not available
offline. Per DESIGN.md, we substitute a Chung–Lu random graph with a
power-law expected-degree sequence: what the MAKG experiments probe is
scaling behaviour under a heavy-tail degree distribution at a given
density, and Chung–Lu reproduces exactly that skew with a controllable
exponent.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.prep import _graph_from_keys
from repro.tensor.coo import COOMatrix
from repro.util.rng import make_rng

__all__ = ["powerlaw_graph"]


def powerlaw_graph(
    n: int,
    m: int,
    exponent: float = 2.2,
    seed: int | np.random.Generator | None = 0,
    symmetrize: bool = True,
    ensure_connected: bool = True,
) -> COOMatrix:
    """Chung–Lu graph with ~``m`` edge samples and power-law degrees.

    Expected degrees follow ``w_i ∝ (i + i0)^(-1/(exponent-1))``; both
    endpoints of every edge are drawn proportionally to ``w``, which
    realises expected degree ``w_i * (2m / sum w)`` per vertex — the
    standard Chung–Lu construction.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    if exponent <= 1.0:
        raise ValueError("power-law exponent must exceed 1")
    rng = make_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    prob = weights / weights.sum()
    return _graph_from_keys(
        _chung_lu_keys(rng, n, m, prob), n, rng,
        symmetrize=symmetrize, ensure_connected=ensure_connected,
    )


def _chung_lu_keys(
    rng: np.random.Generator, n: int, m: int, prob: np.ndarray
) -> np.ndarray:
    """``m`` sampled edge keys ``row * n + col``, both endpoints ~ ``prob``."""
    key = rng.choice(n, size=m, p=prob).astype(np.int64, copy=False)
    key *= n
    key += rng.choice(n, size=m, p=prob)
    return key



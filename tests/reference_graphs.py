"""Test oracle: the four generators as they were built on ``COOMatrix``.

Each generator used to finish its sampled edges with the ``COOMatrix``
chain — construct (``argsort`` canonicalize, duplicates merged),
``remove_self_loops``, ``symmetrize``, the isolated-vertex repair — and
``prepare_adjacency`` used ``add_self_loops().to_csr()`` plus a
``with_data`` of ones. The production code now does all of it on
sorted int64 edge keys (``repro.graphs.prep``); this module keeps the
old construction, with the same random draws in the same order, as the
identity oracle. It shares no code with ``repro.graphs``.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.coo import COOMatrix


def ensure_min_degree(coo, rng, symmetric=True):
    """The repair as a ``COOMatrix`` concatenation (same draw)."""
    n = coo.shape[0]
    if n < 2:
        return coo
    deg = coo.row_degrees() + coo.col_degrees()
    isolated = np.flatnonzero(deg == 0)
    if isolated.size == 0:
        return coo
    partners = rng.integers(0, n - 1, isolated.size, dtype=np.int64)
    partners += (partners >= isolated).astype(np.int64)
    rows = [coo.rows, isolated]
    cols = [coo.cols, partners]
    if symmetric:
        rows.append(partners)
        cols.append(isolated)
    out = COOMatrix(np.concatenate(rows), np.concatenate(cols), None,
                    shape=coo.shape, dtype=coo.dtype)
    out.data[:] = 1
    return out


def _finish(coo, rng, symmetrize, ensure_connected):
    coo.data[:] = 1
    if symmetrize:
        coo = coo.symmetrize()
    if ensure_connected:
        coo = ensure_min_degree(coo, rng, symmetric=symmetrize)
    return coo


def prepare_adjacency(coo, self_loops=True, dtype=np.float32):
    if self_loops:
        coo = coo.add_self_loops()
    csr = coo.to_csr()
    return csr.with_data(np.ones(csr.nnz, dtype=dtype))


def kronecker(n, m, seed=0, initiator=(0.57, 0.19, 0.19), symmetrize=True,
              ensure_connected=True, scramble=True):
    rng = np.random.default_rng(seed)
    scale = int(np.floor(np.log2(n)))
    n = 1 << scale
    a, b, c = initiator
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    for _level in range(scale):
        r = rng.random(m)
        right = (r >= a) & (r < a + b)
        lower = (r >= a + b) & (r < a + b + c)
        both = r >= a + b + c
        rows <<= 1
        cols <<= 1
        rows += (lower | both).astype(np.int64)
        cols += (right | both).astype(np.int64)
    if scramble:
        permutation = rng.permutation(n)
        rows = permutation[rows]
        cols = permutation[cols]
    coo = COOMatrix(rows, cols, None, shape=(n, n)).remove_self_loops()
    return _finish(coo, rng, symmetrize, ensure_connected)


def powerlaw_graph(n, m, exponent=2.2, seed=0, symmetrize=True,
                   ensure_connected=True):
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    prob = weights / weights.sum()
    rows = rng.choice(n, size=m, p=prob).astype(np.int64)
    cols = rng.choice(n, size=m, p=prob).astype(np.int64)
    keep = rows != cols
    coo = COOMatrix(rows[keep], cols[keep], None, shape=(n, n))
    return _finish(coo, rng, symmetrize, ensure_connected)


def erdos_renyi(n, m, seed=0, symmetrize=True, ensure_connected=True,
                max_rounds=64):
    rng = np.random.default_rng(seed)
    rows = np.empty(0, dtype=np.int64)
    cols = np.empty(0, dtype=np.int64)
    for _round in range(max_rounds):
        missing = m - rows.shape[0]
        if missing <= 0:
            break
        draw = int(missing * 1.1) + 16
        r = rng.integers(0, n, draw, dtype=np.int64)
        c = rng.integers(0, n, draw, dtype=np.int64)
        keep = r != c
        rows = np.concatenate([rows, r[keep]])
        cols = np.concatenate([cols, c[keep]])
        _, unique_index = np.unique(rows * np.int64(n) + cols,
                                    return_index=True)
        rows = rows[unique_index]
        cols = cols[unique_index]
    coo = COOMatrix(rows[:m], cols[:m], None, shape=(n, n))
    return _finish(coo, rng, symmetrize, ensure_connected)


def synthetic_classification(n=512, num_classes=4, feature_dim=16,
                             mean_degree=8.0, homophily=0.8, noise=1.0,
                             seed=0):
    """The SBM dataset's adjacency and features (the draws after the
    repair show it consumed the same randomness)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, n, dtype=np.int64)
    m = int(n * mean_degree)
    src = rng.integers(0, n, m, dtype=np.int64)
    same_class = rng.random(m) < homophily
    dst = np.empty(m, dtype=np.int64)
    for c in range(num_classes):
        members = np.flatnonzero(labels == c)
        take = same_class & (labels[src] == c)
        if members.size and take.any():
            dst[take] = members[rng.integers(0, members.size, int(take.sum()))]
    rest = ~same_class
    dst[rest] = rng.integers(0, n, int(rest.sum()), dtype=np.int64)
    unfilled = same_class & (dst == 0) & (labels[src] != labels[0])
    dst[unfilled] = rng.integers(0, n, int(unfilled.sum()), dtype=np.int64)
    coo = COOMatrix(src, dst, None, shape=(n, n)).remove_self_loops()
    coo = _finish(coo, rng, symmetrize=True, ensure_connected=True)
    adjacency = prepare_adjacency(coo)
    prototypes = rng.normal(0, 1, (num_classes, feature_dim))
    features = (
        prototypes[labels] + noise * rng.normal(0, 1, (n, feature_dim))
    ).astype(np.float32)
    return adjacency, features

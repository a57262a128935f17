"""One-live-version LRU cache of per-node hidden activations.

The serving engine's second lever (after coalescing): a node's
layer-ℓ activation is a pure function of its ℓ-hop neighbourhood, the
input features and the model parameters, so hot nodes — power-law hubs
appear in almost every union ego-batch — can be computed once and
reused. Entries are keyed ``(level, node)`` and all belong to the one
*live version*:

* ``level`` ∈ ``1..L`` — ``level ℓ`` holds :math:`H^ℓ`, the
  post-activation output of layer ``ℓ-1`` (``level L`` is the model
  output, so repeat queries for a hot node skip compute entirely).
  Level 0 is the input feature matrix itself and is never cached.
* ``node`` — global vertex id; entries are whole rows.
* The live version is the engine snapshot version the cache was last
  advanced to (0 at construction), covering model parameters *and*
  graph/feature state. :meth:`advance` deletes the rows a mutation
  staled and moves the live version on; survivors stay where they
  are, so a mutation costs the rows it drops, not the rows that
  exist. :meth:`get_rows` at any other version misses and
  :meth:`put_rows` at any other version stores nothing: a row is only
  readable under the version it was computed against, so a serve that
  a mutation overtakes reads nothing more and leaves nothing behind.

The depth-truncation payoff: a cached level-ℓ row terminates sampling
below level ℓ for that node — the serving engine treats cached rows as
the frontier, so hops beneath them are never sampled and never
computed (DGL's ``frame_cache`` is the exemplar).

All operations take one internal lock; the cache is shared by every
server worker thread. Hits/misses/evictions are observable as the
``serving.cache.{hit,miss,evict}`` counters in
:func:`repro.obs.metrics.metrics` and on :attr:`hits` / :attr:`misses`;
rows dropped by :meth:`advance` as ``serving.cache.invalidated``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.obs.metrics import metrics

__all__ = ["ActivationCache"]

_NO_ROWS = np.zeros(0, dtype=bool)  # presence mask of a level never stored


class ActivationCache:
    """Bounded LRU of ``(level, node)`` → activation row, one version."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self._rows: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        #: ``level`` → mask over node ids, true exactly where a row is
        #: stored: :meth:`advance` intersects with it, not with the store.
        self._present: dict[int, np.ndarray] = {}
        self._version = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction (NaN before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else float("nan")

    # ------------------------------------------------------------------
    def get_rows(
        self, level: int, nodes: np.ndarray, version: int
    ) -> tuple[list[np.ndarray | None], np.ndarray]:
        """Look up ``nodes`` at ``level``/``version``.

        Returns ``(rows, hit_mask)``: ``rows[i]`` is the cached row for
        ``nodes[i]`` (``None`` on miss) and ``hit_mask`` the boolean
        hit vector. Returned rows are the stored arrays — treat them
        as read-only. Hits are refreshed in LRU order. Every lookup at
        a ``version`` other than the live one misses.
        """
        rows: list[np.ndarray | None] = [None] * len(nodes)
        hit_mask = np.zeros(len(nodes), dtype=bool)
        n_hit = 0
        with self._lock:
            if version == self._version:
                store = self._rows
                for i, node in enumerate(np.asarray(nodes).tolist()):
                    key = (level, node)
                    row = store.get(key)
                    if row is not None:
                        store.move_to_end(key)
                        hit_mask[i] = True
                        n_hit += 1
                        rows[i] = row
            self.hits += n_hit
            self.misses += len(nodes) - n_hit
        registry = metrics()
        registry.counter("serving.cache.hit").inc(n_hit)
        registry.counter("serving.cache.miss").inc(len(nodes) - n_hit)
        return rows, hit_mask

    # ------------------------------------------------------------------
    def put_rows(
        self,
        level: int,
        nodes: np.ndarray,
        values: np.ndarray,
        version: int,
    ) -> None:
        """Store ``values[i]`` as the ``level`` activation of ``nodes[i]``.

        Rows are stored by reference (callers hand over freshly
        computed arrays); oldest entries are evicted past capacity.
        Rows computed against a ``version`` other than the live one
        could never be read, so they are not stored.
        """
        if len(nodes) != len(values):
            raise ValueError("one value row per node required")
        nodes = np.asarray(nodes)
        evicted = 0
        with self._lock:
            if version != self._version or not nodes.size:
                return
            store = self._rows
            for node, row in zip(nodes.tolist(), values):
                key = (level, node)
                store[key] = row
                store.move_to_end(key)
            mask = self._present.get(level, _NO_ROWS)
            top = int(nodes.max()) + 1
            if mask.size < top:
                grown = np.zeros(max(top, 2 * mask.size), dtype=bool)
                grown[: mask.size] = mask
                self._present[level] = mask = grown
            mask[nodes] = True
            while len(store) > self.capacity:
                (old_level, node), _ = store.popitem(last=False)
                self._present[old_level][node] = False
                evicted += 1
            self.evictions += evicted
        if evicted:
            metrics().counter("serving.cache.evict").inc(evicted)

    # ------------------------------------------------------------------
    def advance(
        self,
        old_version: int,
        new_version: int,
        dropped: dict[int, np.ndarray] | None = None,
    ) -> int:
        """Move the live version on, deleting the rows a mutation staled.

        ``dropped`` maps ``level`` → node ids whose activations the
        mutation touched (see the engine's dependency expansion);
        those entries — and, when ``dropped`` is ``None``, *all*
        entries — are deleted. Everything else stays in place, in LRU
        order, readable under ``new_version``; the cost is the ids
        named plus the rows deleted, never the rows stored. Returns
        the number of rows that survive. ``old_version`` must be the
        live version (``ValueError`` otherwise, nothing changed).
        """
        if new_version == old_version:
            raise ValueError("advance requires a new version")
        with self._lock:
            if old_version != self._version:
                raise ValueError(
                    f"cache is at version {self._version}, cannot "
                    f"advance from {old_version}"
                )
            store = self._rows
            before = len(store)
            if dropped is None:
                store.clear()
                self._present.clear()
            else:
                for level, nodes in dropped.items():
                    mask = self._present.get(level, _NO_ROWS)
                    nodes = np.asarray(nodes).ravel()
                    nodes = nodes[nodes < mask.size]
                    stale = nodes[mask[nodes]]
                    mask[stale] = False
                    for node in stale.tolist():
                        store.pop((level, node), None)
            self._version = new_version
            survived = len(store)
        metrics().counter("serving.cache.invalidated").inc(before - survived)
        return survived

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (counters and the live version are kept)."""
        with self._lock:
            self._rows.clear()
            self._present.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ActivationCache(n={len(self._rows)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )

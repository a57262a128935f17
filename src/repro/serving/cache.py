"""One-live-version exact-LRU cache of per-node hidden activations.

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
* ``node`` — global vertex id (non-negative); entries are whole rows.
* The live version is the engine snapshot version the cache was last
  advanced to (0 at construction), covering model parameters *and*
  graph/feature state. :meth:`advance` deletes the rows a mutation
  staled and moves the live version on; survivors stay where they
  are, so a mutation costs the rows it drops, not the rows that
  exist. :meth:`get_rows` at any other version misses and
  :meth:`put_rows` at any other version stores nothing: a row is only
  readable under the version it was computed against, so a serve that
  a mutation overtakes reads nothing more and leaves nothing behind.

Storage is arrays, each step a few whole-array operations: ``capacity``
slots shared by all levels (level, node, last-use tick each), a
``[level, node]`` → slot map and per level a ``(capacity, width)`` slab
rows are *copied* into. Eviction is exact LRU: each use queues a
``(tick, slot)`` record, live while its slot still carries that tick.

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

import numpy as np

from repro.obs.metrics import metrics
from repro.serving.queue import _positive_int

__all__ = ["ActivationCache"]


class ActivationCache:
    """Bounded exact-LRU of ``(level, node)`` → activation row, one version."""

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = _positive_int("cache capacity", capacity)
        self._version = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._reset()

    def _reset(self) -> None:
        """Free every slot and forget every level."""
        self._size = self._head = self._tail = self._clock = 0
        self._level = np.zeros(self.capacity, dtype=np.int64)  # per slot
        self._node = np.zeros(self.capacity, dtype=np.int64)
        self._tick = np.full(self.capacity, -1, dtype=np.int64)  # -1: free
        self._free = np.arange(self.capacity)  # a stack of free slots
        self._n_free = self.capacity
        self._slot_of = np.full((1, 1), -1, dtype=np.int64)  # [level, node]
        self._slab: dict[int, np.ndarray] = {}  # level → (capacity, width)
        self._queue = np.empty((2, 2 * self.capacity), dtype=np.int64)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Slot bookkeeping (the lock is held)
    # ------------------------------------------------------------------
    def _find(self, level: int, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, hits)`` at a stored ``level``; an id off the map misses."""
        slots = self._slot_of[level].take(nodes, mode="clip")
        return slots, (slots >= 0) & (self._node[slots] == nodes)

    def _touch(self, slots: np.ndarray) -> None:
        """Make ``slots`` the newest entries, in order (a repeat at its last)."""
        ticks = np.arange(self._clock, self._clock + slots.size)
        self._clock += slots.size
        np.maximum.at(self._tick, slots, ticks)  # older records of them die
        if slots.size > self.capacity:  # repeats: keep the live records
            live = self._tick[slots] == ticks
            ticks, slots = ticks[live], slots[live]
        if self._tail + slots.size > self._queue.shape[1]:
            records = self._queue[:, self._head:self._tail]
            records = records[:, self._tick[records[1]] == records[0]]
            self._head, self._tail = 0, records.shape[1]
            self._queue[:, : self._tail] = records
        self._queue[0, self._tail:self._tail + slots.size] = ticks
        self._queue[1, self._tail:self._tail + slots.size] = slots
        self._tail += slots.size

    def _release(self, slots: np.ndarray) -> None:
        """Delete the entries in the distinct, occupied ``slots``; free them."""
        self._slot_of[self._level[slots], self._node[slots]] = -1
        self._tick[slots] = -1
        self._size -= slots.size
        self._free[self._n_free:self._n_free + slots.size] = slots
        self._n_free += slots.size

    def _evict_oldest(self, count: int) -> int:
        """Release the ``count`` least recently used entries; ``count``."""
        left = count
        while left:
            stop = min(self._tail, self._head + 4 * left + 1024)
            ticks, slots = self._queue[:, self._head:stop]
            live = np.flatnonzero(self._tick[slots] == ticks)[:left]
            self._head = self._head + int(live[-1]) + 1 if live.size == left else stop
            self._release(slots[live])
            left -= live.size
        return count

    # ------------------------------------------------------------------
    def get_rows(
        self, level: int, nodes: np.ndarray, version: int
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """``(rows, hit_mask)`` of ``nodes`` at ``level``/``version``: the
        hit rows stacked in ``nodes`` order (a fresh array; ``None`` when
        nothing can hit — another version, a level never stored) and the
        boolean hit vector. Hits are refreshed in LRU order; negative ids
        and ids past anything stored miss."""
        nodes = np.asarray(nodes, dtype=np.int64)
        rows, hits = None, np.zeros(nodes.size, dtype=bool)
        with self._lock:
            if version == self._version and level in self._slab:
                slots, hits = self._find(level, nodes)
                slots = slots[hits]
                rows = self._slab[level][slots]
                self._touch(slots)
            n_hit = int(np.count_nonzero(hits))
            self.hits += n_hit
            self.misses += nodes.size - n_hit
        registry = metrics()
        registry.counter("serving.cache.hit").inc(n_hit)
        registry.counter("serving.cache.miss").inc(nodes.size - n_hit)
        return rows, hits

    # ------------------------------------------------------------------
    def put_rows(
        self, level: int, nodes: np.ndarray, values: np.ndarray, version: int
    ) -> None:
        """Store ``values[i]`` as the ``level`` activation of ``nodes[i]``.

        Rows are copied in; a repeated id keeps its last row; the oldest
        entries are evicted past capacity, as storing rows one by one
        would. Rows of a ``version`` other than the live one could never
        be read, so are not stored. A negative id, or a row shape or
        dtype other than its level's, raises ``ValueError``."""
        if len(nodes) != len(values):
            raise ValueError("one value row per node required")
        ids = nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values)
        if nodes.size > 1 and not (nodes[1:] > nodes[:-1]).all():
            ids, first = np.unique(nodes[::-1], return_index=True)  # sorted
            last = np.sort(nodes.size - 1 - first)  # each id's last row
            nodes, values = nodes[last], values[last]
        if not nodes.size:
            return
        if ids[0] < 0:
            raise ValueError(f"node ids must be non-negative, got {ids[0]}")
        evicted = 0
        with self._lock:
            if version != self._version:
                return
            slab = self._slab.get(level)
            if slab is None:
                shape = (self.capacity,) + values.shape[1:]
                slab = self._slab[level] = np.empty(shape, dtype=values.dtype)
            if (slab.shape[1:], slab.dtype) != (values.shape[1:], values.dtype):
                raise ValueError(f"level {level} holds {slab.dtype} {slab.shape[1:]} rows")
            rows, cols = self._slot_of.shape
            if level >= rows or ids[-1] >= cols:
                grown = np.full((max(level + 1, rows), max(int(ids[-1]) + 1, 2 * cols)), -1)
                grown[:rows, :cols] = self._slot_of
                self._slot_of = grown
            table = self._slot_of[level]
            excess = nodes.size - self.capacity
            if excess > 0:
                # Rows this put's own newest would evict: gone, counted once.
                slots, hits = self._find(level, nodes[:excess])
                self._release(slots[hits])
                nodes, values, evicted = nodes[excess:], values[excess:], excess
            slots = table[nodes]
            new = slots < 0
            self._tick[slots[~new]] = -1  # refreshed below: never evicted
            added = nodes[new]
            if added.size > self._n_free:
                evicted += self._evict_oldest(added.size - self._n_free)
            self._n_free -= added.size
            slots[new] = fresh = self._free[self._n_free:self._n_free + added.size]
            table[added] = fresh
            self._level[fresh], self._node[fresh] = level, added
            self._size += added.size
            slab[slots] = values
            self._touch(slots)
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
        named (any never stored, negative ones too, are passed over)
        plus the rows deleted, never the rows stored. Returns the number
        of rows that survive. ``old_version`` must be the live version
        (``ValueError`` otherwise, nothing changed).
        """
        if new_version == old_version:
            raise ValueError("advance requires a new version")
        with self._lock:
            if old_version != self._version:
                raise ValueError(
                    f"cache is at version {self._version}, cannot "
                    f"advance from {old_version}"
                )
            before = self._size
            if dropped is None:
                self._reset()
            else:
                for level, nodes in dropped.items():
                    if level in self._slab:
                        nodes = np.asarray(nodes, dtype=np.int64).ravel()
                        slots, hits = self._find(level, nodes)
                        self._release(np.unique(slots[hits]))
            self._version = new_version
            survived = self._size
        metrics().counter("serving.cache.invalidated").inc(before - survived)
        return survived

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n, hits, misses = f"{self._size}/{self.capacity}", self.hits, self.misses
        return f"ActivationCache(n={n}, hits={hits}, misses={misses})"

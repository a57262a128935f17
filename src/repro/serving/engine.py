"""The serving engine: consistent snapshots, deltas, reloads, workers.

:class:`ServingEngine` owns everything a flush needs — model, graph,
features, fan-outs, the activation cache — and exposes exactly two
kinds of operation:

* **Reads** (:meth:`serve` / :meth:`serve_unique`) are re-entrant: a
  serve captures one immutable :class:`_Snapshot` (graph, features,
  sampling weights, version) in a single attribute read and never
  looks at mutable engine state again. Any number of worker threads
  serve concurrently under a *shared* read lock; layer forwards are
  stateless (``training=False`` retains nothing on the model) and the
  compiled DAG programs are shared read-only (see
  :func:`repro.fusion.layer.compiled_layer_program`).
* **Mutations** (:meth:`reload`, :meth:`apply_feature_delta`,
  :meth:`apply_graph_delta`) serialise on one lock and are
  copy-on-write: they build the next snapshot, advance the cache to
  its version — deleting the rows the mutation staled, leaving the
  rest in place — and publish it with one assignment. An in-flight
  serve keeps its old snapshot; the cache answers one live version,
  so the overtaken serve's later lookups miss and its later writes
  are dropped: it finishes its one flush uncached, exactly on the old
  snapshot. Staleness is therefore structural: a row is only readable
  under the version it was computed against. The one piece of shared
  *mutable* state a serve does read is the model's
  parameter arrays (:meth:`reload` copies into them in place), so
  reload alone takes the read lock's exclusive side: it waits out
  in-flight serves and blocks new ones for the duration of the copy,
  ensuring no forward ever computes with torn (half-swapped) weights.

Delta invalidation is the standard dependency expansion: a change to
level-ℓ state of node set ``S`` dirties, at level ``ℓ+1``, the set
``S ∪ {i : in-neighbours(i) ∩ S ≠ ∅}`` (each hop propagates one level
up), so a feature delta invalidates the L-hop forward cone of the
touched rows and nothing else. That hop is one boolean SpMV over the
transposed pattern — the rows of ``Aᵀ`` that ``S`` names, read from the
pattern-only transpose the adjacency's structure caches (built by a
graph's first mutation; a read-only deployment never pays for it) — so
a delta costs the out-edges of its cone plus the rows it drops, not
the edges and rows that exist. A model reload or an un-annotated graph
swap invalidates everything. Every mutation is one ``serve.delta`` span
and one ``serving.delta_ms`` observation.

:class:`ServingServer` is the thin thread-pool shell: an
:class:`~repro.serving.queue.AdmissionQueue` in front, worker threads
draining it through :func:`~repro.serving.batcher.flush_batch`.
"""

from __future__ import annotations

import itertools
import numbers
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from concurrent.futures import Future

import numpy as np

from repro.models.base import GnnModel
from repro.models.serialize import load_state_dict
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.serving.batcher import compute_union_rows, flush_batch
from repro.serving.cache import ActivationCache
from repro.serving.queue import AdmissionQueue, _positive_int
from repro.tensor.csr import CSRMatrix
from repro.tensor.sampling_graph import check_fanouts, hub_bias_weights, vertex_ids
from repro.tensor.segment import ragged_ranges

__all__ = ["ServingEngine", "ServingServer"]


@dataclass(frozen=True)
class _Snapshot:
    """One immutable (graph, features, weights, version) world-state."""

    a: CSRMatrix
    features: np.ndarray
    weights: np.ndarray | None
    version: int


class _ReadWriteLock:
    """Many concurrent readers (serves) or one writer (reload).

    Writer-preferring enough for serving: an arriving writer only has
    to wait out serves already in flight because it blocks behind the
    reader count, and reloads are rare, so reader starvation of the
    writer is not a practical concern at flush cadence.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    def acquire_read(self) -> None:
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True

    def release_write(self) -> None:
        with self._cond:
            self._writing = False
            self._cond.notify_all()


def _expand_dirty(
    dirty: np.ndarray, mats: tuple[CSRMatrix, ...]
) -> np.ndarray:
    """One level of dependency expansion: ``dirty ∪ forward-cone hop``.

    Returns the sorted union of ``dirty`` with every vertex that has an
    in-edge from ``dirty`` in any of ``mats`` (old and new adjacency
    for graph deltas — membership in either makes a row stale): the
    rows of each cached transposed pattern that ``dirty`` names, so
    the work is the out-edges of ``dirty``.
    """
    stale = np.zeros(mats[0].shape[0], dtype=bool)
    stale[dirty] = True
    for pattern in {a.structure.transpose() for a in mats}:
        starts = pattern.indptr[dirty]
        lengths = pattern.indptr[dirty + 1] - starts
        stale[pattern.indices[ragged_ranges(starts, lengths)]] = True
    return np.flatnonzero(stale)


def _vertex_ids(ids, n: int, name: str) -> np.ndarray:
    """``ids`` as sorted unique int64 vertex ids, or ``ValueError`` naming
    ``name``: an id NumPy would wrap (negative) or truncate (fractional)
    writes one row and invalidates the cone of another, silently."""
    return np.unique(vertex_ids(np.atleast_1d(ids), n, name))


class ServingEngine:
    """Re-entrant online-inference engine over one loaded model."""

    def __init__(
        self,
        model: GnnModel,
        a: CSRMatrix,
        features: np.ndarray,
        fanouts: tuple[int | None, ...] | None = None,
        cache: ActivationCache | int | None = 65536,
        weights: np.ndarray | str | None = None,
        seed: int = 0,
    ) -> None:
        """``fanouts=None`` serves exact (full fan-out) ego graphs.

        ``cache`` accepts a ready :class:`ActivationCache`, a capacity
        (a positive integer of entries; a bool is neither), or ``None`` to
        disable caching. ``weights="hub"``
        turns on degree-biased importance sampling
        (:func:`~repro.tensor.sampling_graph.hub_bias_weights`) so
        limited fan-outs keep the most cacheable vertices; it is
        recomputed on graph swaps. Explicit per-edge arrays pass
        through unchanged (and must be re-supplied with a new graph).
        """
        if features.shape[0] != a.shape[0]:
            raise ValueError(
                "feature rows must cover every vertex of the adjacency"
            )
        # Ego-graph serving samples one hop per layer.
        model.require_one_hop("serving requires one-hop layers")
        self.model = model
        self.fanouts: tuple[int | None, ...] = (
            tuple(fanouts)
            if fanouts is not None
            else (None,) * model.num_layers
        )
        check_fanouts(self.fanouts, model.num_layers)
        if cache is not None and not isinstance(cache, ActivationCache):
            cache = ActivationCache(capacity=cache)
        self.cache = cache
        self._weights_mode = weights if isinstance(weights, str) else None
        if self._weights_mode is not None and self._weights_mode != "hub":
            raise ValueError(
                f"unknown weights mode {weights!r}; use 'hub', an "
                "explicit per-edge array, or None"
            )
        resolved = (
            hub_bias_weights(a)
            if self._weights_mode == "hub"
            else (None if weights is None else np.asarray(weights))
        )
        self._snapshot = _Snapshot(
            a=a,
            features=np.asarray(features),
            weights=resolved,
            version=0,
        )
        self._mutate = threading.Lock()
        self._params = _ReadWriteLock()
        self._seed = int(seed)
        self._ticket = itertools.count()

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self._snapshot.a.shape[0])

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def serve(self, nodes) -> np.ndarray:
        """Output rows for ``nodes`` (any order, duplicates allowed); an id
        that is not an integer in ``[0, num_nodes)`` raises ``ValueError``."""
        ids = vertex_ids(np.atleast_1d(nodes), self.num_nodes, "nodes")
        seeds, inverse = np.unique(ids, return_inverse=True)
        return self.serve_unique(seeds)[inverse]

    def serve_unique(self, seeds: np.ndarray) -> np.ndarray:
        """Output rows for unique sorted ``seeds`` as one union batch."""
        # Each serve draws a private spawned stream so concurrent
        # flushes cannot interleave on a shared generator (full
        # fan-out never consults it at all).
        rng = np.random.default_rng([self._seed, next(self._ticket)])
        # Shared side of the parameter lock: any number of serves run
        # concurrently, but none overlaps a reload's in-place copy.
        self._params.acquire_read()
        try:
            # One atomic read, *inside* the read lock so the version
            # seen here cannot pre-date a parameter copy that finished
            # before we acquired (cached old-version rows must never
            # mix with freshly reloaded weights).
            snapshot = self._snapshot

            with tracer().span(
                "serve.batch", seeds=int(seeds.size),
                version=snapshot.version,
            ):
                return compute_union_rows(
                    self.model,
                    snapshot.a,
                    snapshot.features,
                    seeds,
                    self.fanouts,
                    rng,
                    cache=self.cache,
                    version=snapshot.version,
                    weights=snapshot.weights,
                )
        finally:
            self._params.release_read()

    # ------------------------------------------------------------------
    # Mutations (copy-on-write snapshot swap)
    # ------------------------------------------------------------------
    @contextmanager
    def _mutation(self, kind: str):
        """Serialise one mutation under a ``serve.delta`` span and time
        it, lock wait included, into ``serving.delta_ms``."""
        t0 = time.perf_counter()
        with self._mutate, tracer().span("serve.delta", kind=kind) as span:
            yield span
        metrics().histogram("serving.delta_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )

    def _publish(
        self, span, dirty: np.ndarray | None = None, level: int = 0,
        mats: tuple[CSRMatrix, ...] = (), **changed,
    ) -> int:
        """Publish the live snapshot with ``changed`` under the next version.

        ``dirty`` names the ids stale at ``level``; each level above it
        adds one hop of the forward cone through ``mats``, and the cache
        drops those rows — every row when ``dirty`` is ``None``.
        """
        old = self._snapshot
        if self.cache is not None:
            cone = sizes = None
            if dirty is not None:
                cone = {level: dirty}
                for level in range(level + 1, self.model.num_layers + 1):
                    cone[level] = dirty = _expand_dirty(dirty, mats)
                sizes = {level: ids.size for level, ids in cone.items()}
            cached = len(self.cache)
            kept = self.cache.advance(old.version, old.version + 1, cone)
            span.annotate(cone=sizes, dropped=cached - kept)
        self._snapshot = replace(old, version=old.version + 1, **changed)
        return self._snapshot.version

    def reload(self, state: dict[str, np.ndarray]) -> int:
        """Hot-swap model parameters from a ``state_dict`` snapshot.

        Parameters are copied in place under the exclusive side of the
        parameter lock, so the copy waits out every in-flight serve
        and blocks new ones until the bumped snapshot is published —
        each request computes entirely before or entirely after the
        swap. The whole cache is invalidated (its rows embed the old
        weights) and the new version starts clean. Returns the
        new version. A ``state`` that does not fit the model raises
        before anything is written: parameters, version and cache stay
        as they were and the engine keeps serving them.
        """
        with self._mutation("reload") as span:
            # Exclusive side of the parameter lock: wait out in-flight
            # serves, copy, publish the bumped snapshot, then let new
            # serves in — no forward ever sees half-swapped weights.
            self._params.acquire_write()
            try:
                load_state_dict(self.model, state)
                return self._publish(span)
            finally:
                self._params.release_write()

    def apply_feature_delta(
        self, nodes: np.ndarray, rows: np.ndarray
    ) -> int:
        """Replace the feature rows of ``nodes``; invalidate their cone.

        Copy-on-write: readers of the old snapshot keep the old
        feature matrix. Cache rows inside the touched nodes' L-hop
        forward cone are deleted, the rest stay readable under the new
        version. Returns it. ``rows`` holds one finite row per *unique*
        id, in sorted-id order; bad ids, a mis-shaped or a non-finite
        ``rows`` raise ``ValueError`` before anything changes.
        """
        nodes = _vertex_ids(nodes, self.num_nodes, "nodes")
        rows = np.asarray(rows)
        expected = (nodes.size,) + self._snapshot.features.shape[1:]
        if rows.shape != expected:
            raise ValueError(
                f"rows must have shape {expected} (one row per unique "
                f"node), got {rows.shape}"
            )
        if not np.isfinite(rows).all():
            # One NaN feature row makes every served row of its cone NaN.
            raise ValueError("rows must be finite (no NaN or infinity)")
        with self._mutation("feature") as span:
            old = self._snapshot
            features = np.array(old.features, copy=True)
            features[nodes] = rows
            # Level 0 is the features themselves (never cached).
            return self._publish(
                span, nodes, 0, (old.a,), features=features
            )

    def apply_graph_delta(
        self, a: CSRMatrix, touched_dst: np.ndarray | None = None
    ) -> int:
        """Swap in a new adjacency; invalidate affected activations.

        ``touched_dst`` names the vertices whose in-edge lists (or
        edge values) differ between the two adjacencies; their forward
        cone — expanded through *both* graphs — is invalidated and the
        rest stays. Without it the whole cache is dropped (safe for
        arbitrary rewires). Hub-bias sampling weights are recomputed.
        Returns the new version; a bad ``touched_dst`` id raises
        ``ValueError`` before anything changes.
        """
        if a.shape[0] != self._snapshot.features.shape[0]:
            raise ValueError(
                "new adjacency must keep the vertex set (feature rows)"
            )
        if touched_dst is not None:
            touched_dst = _vertex_ids(touched_dst, a.shape[0], "touched_dst")
        with self._mutation("graph") as span:
            old = self._snapshot
            if self._weights_mode == "hub":
                weights = hub_bias_weights(a)
            elif old.weights is not None:
                raise ValueError(
                    "explicit sampling weights cannot survive a graph "
                    "swap; re-create the engine or use weights='hub'"
                )
            else:
                weights = None
            # Level-1 activations of the touched destinations are
            # stale; each further level adds one hop of the forward
            # cone under either adjacency.
            return self._publish(
                span, touched_dst, 1, (old.a, a), a=a, weights=weights
            )


class ServingServer:
    """Admission queue + worker threads around one engine.

    ``workers`` sizes the flush pool; with one worker, flushes are
    strictly ordered (the latency-harness configuration), more workers
    overlap independent union batches on the re-entrant engine.
    Usable as a context manager; :meth:`close` drains and joins.
    """

    def __init__(
        self,
        engine: ServingEngine,
        max_batch: int = 64,
        workers: int = 1,
    ) -> None:
        workers = _positive_int("workers", workers)
        self.engine = engine
        self.queue = AdmissionQueue(max_batch=max_batch)
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def _worker_loop(self) -> None:
        while True:
            batch = self.queue.next_batch()
            if batch is None:
                return
            flush_batch(self.engine, batch)

    # ------------------------------------------------------------------
    def submit(self, node: int) -> Future:
        """Enqueue one request; resolves to that vertex's output row."""
        return self.submit_many([node])[0]

    def submit_many(self, nodes) -> list[Future]:
        """Enqueue a burst of requests (one future per node, in order).

        An id that is not an integer in ``[0, engine.num_nodes)`` (a
        bool included) fails on its own future with ``ValueError`` and
        is never enqueued, so it cannot fail the requests it would have
        been batched with.
        The valid ones enter the queue together: an idle worker sees the
        whole burst and drains it in ``max_batch``-wide flushes.
        """
        n = self.engine.num_nodes
        # dtype=object: each id keeps its own type, so a fractional id
        # in a list cannot turn its integer neighbours into floats.
        nodes = np.atleast_1d(np.asarray(nodes, dtype=object)).tolist()
        valid = [isinstance(v, numbers.Integral) and not isinstance(v, bool)
                 and 0 <= v < n for v in nodes]
        admitted = iter(self.queue.submit_many(
            [node for node, ok in zip(nodes, valid) if ok]
        ))
        futures = []
        for node, ok in zip(nodes, valid):
            if ok:
                futures.append(next(admitted))
                continue
            refused: Future = Future()
            refused.set_exception(ValueError(
                f"node must be an integer vertex id in [0, {n}); got {node!r}"
            ))
            futures.append(refused)
        return futures

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admissions, drain pending flushes, join the workers."""
        self.queue.close()
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "ServingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

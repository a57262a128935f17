"""Online serving: coalescing, caching, invalidation, re-entrancy.

The load-bearing guarantees:

* **Batched == per-request** — with full fan-out, the union ego-batch
  of N seeds is *bit-identical* to serving each seed alone, with and
  without the activation cache (every layer is row-wise over its
  source frame and the compaction map is monotone).
* **Never stale** — a hypothesis interleaving of feature deltas, graph
  deltas, model reloads and queries always answers every query exactly
  as a fresh full-batch forward over the current state would (the
  cache answers one live version, so staleness is structural, not
  best-effort), and a delta that lands *inside* a flush leaves that
  flush exactly on its old snapshot.
* **Queue policy** — work-conserving: an idle worker takes what is
  pending at once (up to ``max_batch``, FIFO), a burst drains in
  ``max_batch``-wide flushes, close drains, engine failures reach
  every future of a flush, a malformed request fails alone and a
  cancelled one neither is served nor kills the worker (a hypothesis
  state machine over the queue holds these under any interleaving).
  No test may leave a serving worker thread alive.
* **Nothing retained between flushes** — after 100 mixed-size union
  batches the allocator holds what it held after the first 20.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.fusion import DagLayer
from repro.graphs import erdos_renyi
from repro.graphs.prep import prepare_adjacency
from repro.models import GnnModel, build_model, state_dict
from repro.obs.metrics import metrics
from repro.obs.tracer import Tracer, install_tracer
from repro.serving import (
    ActivationCache,
    AdmissionQueue,
    ServingEngine,
    ServingServer,
    coalesce,
)
from repro.serving.queue import InferenceRequest
from repro.tensor.csr import CSRMatrix

N = 40
FEAT = 8


def _adjacency(seed: int = 7, n: int = N) -> CSRMatrix:
    """An ER adjacency (self loops added) where every vertex also has a
    non-self neighbour, so no ego frame degenerates to a single row."""
    a = prepare_adjacency(erdos_renyi(n, 8 * n, seed=seed), dtype=np.float64)
    dense = a.to_dense()
    for i in range(n):
        if np.count_nonzero(dense[i]) - (dense[i, i] != 0.0) == 0:
            dense[i, (i + 1) % n] = 1.0
    return CSRMatrix.from_dense(dense)


@pytest.fixture(scope="module")
def adjacency() -> CSRMatrix:
    return _adjacency()


@pytest.fixture(scope="module")
def features() -> np.ndarray:
    return np.random.default_rng(3).standard_normal((N, FEAT))


def _model(name: str = "va", seed: int = 0):
    return build_model(name, FEAT, 12, 6, num_layers=2, seed=seed)


def _serve_workers() -> set[threading.Thread]:
    return {
        t for t in threading.enumerate() if t.name.startswith("serve-worker")
    }


@pytest.fixture(autouse=True)
def no_leaked_serve_worker():
    """Fail a test that leaves a serving worker thread alive — an
    unclosed server or a hung flush — here, within seconds, instead of
    as a stuck run much later."""
    before = _serve_workers()
    yield
    leaked = _serve_workers() - before
    for thread in leaked:
        thread.join(timeout=5.0)
    alive = sorted(t.name for t in leaked if t.is_alive())
    assert not alive, f"serving workers still alive after the test: {alive}"


# ----------------------------------------------------------------------
# Activation cache
# ----------------------------------------------------------------------
class _LoopCache:
    """The cache as a per-entry loop over one ordered dict: the oracle
    for the slot-array bookkeeping in :class:`ActivationCache`."""

    def __init__(self, capacity: int) -> None:
        self.capacity, self.version, self.evictions = capacity, 0, 0
        self.rows: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()

    def get(self, level, nodes, version) -> tuple[list[bool], list]:
        hits, rows = [], []
        for node in nodes:
            key = (level, int(node))
            hits.append(version == self.version and key in self.rows)
            if hits[-1]:
                self.rows.move_to_end(key)
                rows.append(self.rows[key])
        return hits, rows

    def put(self, level, nodes, values, version) -> None:
        if version != self.version:
            return
        for node, row in zip(nodes, values):
            self.rows[(level, int(node))] = row.copy()
            self.rows.move_to_end((level, int(node)))
        while len(self.rows) > self.capacity:
            self.rows.popitem(last=False)
            self.evictions += 1

    def advance(self, dropped) -> None:
        for level, node in list(self.rows):
            if dropped is None or node in dropped.get(level, ()):
                del self.rows[(level, node)]
        self.version += 1


class TestActivationCache:
    @pytest.mark.parametrize("capacity", [3, 40, 4096])
    def test_matches_the_per_entry_loop_under_random_traffic(self, capacity):
        """Hits (so LRU order and evictions), the rows returned, size
        and version gating equal the loop oracle's over puts (some
        wider than the cache), gets (both sometimes repeating ids),
        targeted and total advances, and accesses at a version that is
        not the live one."""
        rng = np.random.default_rng(capacity)
        cache, oracle = ActivationCache(capacity), _LoopCache(capacity)
        for _ in range(400):
            op = rng.integers(8)
            level = int(rng.integers(1, 4))
            nodes = np.unique(rng.integers(0, 60, rng.integers(1, 12)))
            version = oracle.version - int(rng.random() < 0.15)
            if op < 3 and rng.random() < 0.2:  # wider than a small cache
                nodes = rng.permutation(60)[: int(rng.integers(4, 60))]
            if op < 7 and rng.random() < 0.3:  # repeated ids: the last use counts
                nodes = rng.choice(nodes, 2 * nodes.size)
            if op < 3:
                rows = rng.standard_normal((nodes.size, 2))
                cache.put_rows(level, nodes, rows, version)
                oracle.put(level, nodes, rows, version)
            elif op < 7:
                rows, hits = cache.get_rows(level, nodes, version)
                want_hits, want_rows = oracle.get(level, nodes, version)
                assert list(hits) == want_hits
                if want_rows:
                    assert np.array_equal(rows, np.stack(want_rows))
                else:
                    assert rows is None or rows.shape[0] == 0
            else:
                dropped = None if rng.random() < 0.2 else {
                    lvl: np.unique(rng.integers(0, 90, rng.integers(0, 30)))
                    for lvl in rng.choice(4, rng.integers(0, 3), replace=False)
                }
                oracle.advance(dropped)
                kept = cache.advance(
                    oracle.version - 1, oracle.version, dropped
                )
                assert kept == len(oracle.rows)
            assert len(cache) == len(oracle.rows)
            assert cache.evictions == oracle.evictions

    def test_put_get_roundtrip(self):
        cache = ActivationCache(capacity=8)
        nodes = np.array([2, 5, 9])
        rows = np.arange(9.0).reshape(3, 3)
        cache.put_rows(1, nodes, rows, version=0)
        got, hits = cache.get_rows(1, np.array([5, 7, 9]), version=0)
        assert list(hits) == [True, False, True]
        assert np.array_equal(got, rows[[1, 2]])  # hit rows, stacked
        rows[:] = -1.0  # rows were copied in, not kept by reference
        again, _ = cache.get_rows(1, np.array([2]), version=0)
        assert np.array_equal(again, [[0.0, 1.0, 2.0]])
        assert cache.hits == 3 and cache.misses == 1
        none, hits = cache.get_rows(2, nodes, version=0)
        assert none is None and not hits.any()  # a level never stored

    def test_negative_ids_never_touch_stored_rows(self):
        """NumPy would wrap ``-1`` onto the highest stored node: a put
        refuses it, an advance and a get pass over it."""
        cache = ActivationCache(capacity=8)
        cache.put_rows(1, np.array([2, 5]), np.ones((2, 2)), version=0)
        with pytest.raises(ValueError, match="non-negative"):
            cache.put_rows(1, np.array([3, -1]), np.ones((2, 2)), version=0)
        assert len(cache) == 2
        assert cache.advance(0, 1, {1: np.array([-1])}) == 2
        _, hits = cache.get_rows(1, np.array([-1, 2, 5]), version=1)
        assert list(hits) == [False, True, True]
        assert cache.advance(1, 2, {1: np.array([5])}) == 1
        _, hits = cache.get_rows(1, np.array([5]), version=2)
        assert not hits.any()

    def test_level_and_version_partition_the_keyspace(self):
        cache = ActivationCache(capacity=8)
        nodes = np.array([1])
        cache.put_rows(1, nodes, np.ones((1, 2)), version=0)
        for level, version in ((2, 0), (1, 1)):
            _, hits = cache.get_rows(level, nodes, version)
            assert not hits.any()

    def test_lru_eviction_order(self):
        cache = ActivationCache(capacity=2)
        one = np.ones((1, 2))
        cache.put_rows(1, np.array([10]), one, 0)
        cache.put_rows(1, np.array([11]), one, 0)
        cache.get_rows(1, np.array([10]), 0)  # refresh 10
        cache.put_rows(1, np.array([12]), one, 0)  # evicts 11
        _, h10 = cache.get_rows(1, np.array([10]), 0)
        _, h11 = cache.get_rows(1, np.array([11]), 0)
        _, h12 = cache.get_rows(1, np.array([12]), 0)
        assert h10.all() and h12.all() and not h11.any()
        assert cache.evictions == 1

    def test_advance_migrates_untouched_and_drops_dirty(self):
        cache = ActivationCache(capacity=8)
        rows = np.arange(4.0).reshape(2, 2)
        cache.put_rows(1, np.array([0, 1]), rows, version=0)
        cache.put_rows(2, np.array([0]), rows[:1], version=0)
        migrated = cache.advance(0, 1, {1: np.array([1]), 2: np.array([0])})
        assert migrated == 1  # only (level 1, node 0) survives
        _, hit = cache.get_rows(1, np.array([0]), 1)
        assert hit.all()
        for level, node in ((1, 1), (2, 0)):
            _, hit = cache.get_rows(level, np.array([node]), 1)
            assert not hit.any()
        # Nothing is readable under the dead version either.
        _, hit = cache.get_rows(1, np.array([0]), 0)
        assert not hit.any()

    def test_advance_none_drops_everything(self):
        cache = ActivationCache(capacity=8)
        cache.put_rows(1, np.array([0]), np.ones((1, 2)), 0)
        assert cache.advance(0, 1, None) == 0
        assert len(cache) == 0

    def test_writes_under_a_dead_version_are_unreachable(self):
        # An in-flight request may put rows computed against an old
        # snapshot *after* a mutation advanced the cache: those writes
        # must never satisfy reads at the live version.
        cache = ActivationCache(capacity=8)
        cache.advance(0, 1, {})
        cache.put_rows(1, np.array([4]), np.ones((1, 2)), version=0)
        _, hit = cache.get_rows(1, np.array([4]), version=1)
        assert not hit.any()

    def test_advance_from_a_version_that_is_not_live_raises(self):
        cache = ActivationCache(capacity=8)
        cache.put_rows(1, np.array([3, 4]), np.ones((2, 2)), version=0)
        cache.advance(0, 1, {1: np.array([4])})
        for dropped in (None, {1: np.array([3])}):
            with pytest.raises(ValueError, match="version 1"):
                cache.advance(0, 2, dropped)
        assert len(cache) == 1
        _, hit = cache.get_rows(1, np.array([3]), version=1)
        assert hit.all()

    def test_advance_drops_only_rows_it_names_at_any_id(self):
        # Ids past anything ever stored, levels never stored, repeats:
        # none of it may touch a row that was not named.
        cache = ActivationCache(capacity=8)
        cache.put_rows(2, np.array([1, 6]), np.ones((2, 2)), version=0)
        kept = cache.advance(
            0, 1, {0: np.array([1]), 1: np.array([6]),
                   2: np.array([6, 6, 900])},
        )
        assert kept == len(cache) == 1
        _, hit = cache.get_rows(2, np.array([1, 6]), version=1)
        assert list(hit) == [True, False]

    def test_evicted_rows_are_not_counted_as_invalidated(self):
        cache = ActivationCache(capacity=2)
        cache.put_rows(1, np.array([0, 1, 2]), np.ones((3, 2)), version=0)
        assert cache.evictions == 1 and len(cache) == 2
        before = metrics().counter("serving.cache.invalidated").value
        assert cache.advance(0, 1, {1: np.array([0, 1])}) == 1
        after = metrics().counter("serving.cache.invalidated").value
        assert after - before == 1  # node 0 was evicted, not invalidated

    def test_threads_sharing_a_full_cache_read_only_their_rows(self):
        """Four threads storing and reading one evicting cache, a thread
        switch every microsecond: every hit is the row stored for its id
        (each row holds its id), and no lookup or entry is lost."""
        cache, lookups, wrong = ActivationCache(capacity=16), [], []

        def worker(index: int) -> None:
            rng = np.random.default_rng(index)
            for _ in range(300):
                nodes = np.unique(rng.integers(0, 40, rng.integers(1, 10)))
                cache.put_rows(1, nodes, np.repeat(nodes[:, None], 3, 1) * 1.0, 0)
                rows, hits = cache.get_rows(1, nodes, 0)
                if rows is not None and not np.array_equal(rows[:, 0], nodes[hits]):
                    wrong.append(index)
                lookups.append(nodes.size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong and len(lookups) == 4 * 300
        assert cache.hits + cache.misses == sum(lookups)
        assert len(cache) == 16 and cache.evictions > 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ActivationCache(capacity=0)

    @pytest.mark.parametrize("capacity", [2.7, True, 0])
    def test_capacity_is_never_truncated(self, capacity):
        """A fraction or a bool is refused, by the cache and the engine alike."""
        with pytest.raises(ValueError, match="capacity"):
            ActivationCache(capacity=capacity)
        a = prepare_adjacency(erdos_renyi(16, 40, seed=0))
        model = build_model("gcn", 4, 4, 2, seed=0)
        with pytest.raises(ValueError, match="capacity"):
            ServingEngine(model, a, np.zeros((16, 4)), cache=capacity)


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_flush_on_max_batch(self):
        queue = AdmissionQueue(max_batch=3)
        futures = [queue.submit_many([i])[0] for i in range(5)]
        batch = queue.next_batch()
        assert [r.node for r in batch] == [0, 1, 2]
        assert [r.future for r in batch] == futures[:3]
        assert len(queue._pending) == 2

    def test_lone_request_is_returned_at_once(self):
        """Work-conserving: one pending request is a batch; nothing
        waits for company (there is no timer to wait out)."""
        queue = AdmissionQueue(max_batch=64)
        future = queue.submit_many([42])[0]
        t0 = time.perf_counter()
        batch = queue.next_batch()
        assert time.perf_counter() - t0 < 0.5
        assert [r.node for r in batch] == [42]
        assert batch[0].future is future and future.running()
        assert len(queue._pending) == 0

    def test_submit_wakes_a_blocked_worker(self):
        queue = AdmissionQueue()
        got = []
        worker = threading.Thread(
            target=lambda: got.append(queue.next_batch()), daemon=True
        )
        worker.start()
        worker.join(timeout=0.05)
        assert worker.is_alive()  # blocked: the queue is empty and open
        queue.submit_many([7])
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert [r.node for r in got[0]] == [7]

    def test_burst_drains_in_max_batch_wide_flushes(self):
        queue = AdmissionQueue(max_batch=64)
        futures = queue.submit_many(range(130))
        batches = [queue.next_batch() for _ in range(3)]
        assert [len(b) for b in batches] == [64, 64, 2]
        drained = [r for b in batches for r in b]
        assert [r.node for r in drained] == list(range(130))
        assert [r.future for r in drained] == futures

    def test_close_drains_then_signals_exit(self):
        queue = AdmissionQueue(max_batch=2)
        queue.submit_many([7])
        queue.close()
        assert [r.node for r in queue.next_batch()] == [7]
        assert queue.next_batch() is None

    def test_submit_after_close_raises(self):
        queue = AdmissionQueue(max_batch=2)
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit_many([0])
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit_many([0, 1])

    def test_defaults(self):
        queue = AdmissionQueue()
        assert queue.max_batch == 64

    @pytest.mark.parametrize("name,bad", [
        ("max_batch", 0),
        ("max_batch", 2.7),
        ("max_batch", True),
        ("max_batch", float("nan")),
    ])
    def test_bad_policy_rejected_naming_the_argument(self, name, bad):
        with pytest.raises(ValueError, match=name):
            AdmissionQueue(**{name: bad})

    def test_coalesce_dedupes_and_inverts(self):
        requests = [InferenceRequest(node=n) for n in (5, 2, 5, 9, 2)]
        seeds, inverse = coalesce(requests)
        assert list(seeds) == [2, 5, 9]
        assert np.array_equal(seeds[inverse], [5, 2, 5, 9, 2])


class AdmissionMachine(RuleBasedStateMachine):
    """Any interleaving of submits, bursts, cancels, drains and a close:
    the survivors drain FIFO in batches of at most ``max_batch``, no
    cancelled request is ever drained, a drained one can no longer be
    cancelled, and a closed queue drains and then returns ``None``."""

    @initialize(max_batch=st.integers(1, 5))
    def make_queue(self, max_batch):
        self.queue = AdmissionQueue(max_batch=max_batch)
        self.pending: list = []  # (node, future) not cancelled, not drained
        self.cancelled: set[int] = set()
        self.drained: list[int] = []
        self.next_node = 0
        self.closed = False

    def _nodes(self, count: int) -> list[int]:
        nodes = list(range(self.next_node, self.next_node + count))
        self.next_node += count
        return nodes

    def _admit(self, nodes, enqueue) -> None:
        if self.closed:
            with pytest.raises(RuntimeError, match="closed"):
                enqueue()
            return
        self.pending += zip(nodes, enqueue())

    @rule()
    def submit(self):
        (node,) = self._nodes(1)
        self._admit([node], lambda: self.queue.submit_many([node]))

    @rule(count=st.integers(0, 9))
    def submit_many(self, count):
        nodes = self._nodes(count)
        self._admit(nodes, lambda: self.queue.submit_many(nodes))

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def cancel(self, data):
        index = data.draw(st.integers(0, len(self.pending) - 1))
        node, future = self.pending.pop(index)
        assert future.cancel()
        self.cancelled.add(node)

    # With nothing live pending, an open queue's next_batch blocks.
    @precondition(lambda self: self.pending or self.closed)
    @rule()
    def next_batch(self):
        batch = self.queue.next_batch()
        if not self.pending:
            assert batch is None
            return
        expected = self.pending[: self.queue.max_batch]
        assert [(r.node, r.future) for r in batch] == expected
        for request in batch:
            assert request.future.running()
            assert not request.future.cancel()
        del self.pending[: len(batch)]
        self.drained += [r.node for r in batch]

    @rule()
    def close(self):
        self.queue.close()
        self.closed = True

    @invariant()
    def nothing_cancelled_is_drained(self):
        assert self.cancelled.isdisjoint(self.drained)
        assert self.drained == sorted(self.drained)  # FIFO


TestAdmissionMachine = AdmissionMachine.TestCase


# ----------------------------------------------------------------------
# Batched == per-request identity
# ----------------------------------------------------------------------
class TestBatchedIdentity:
    @pytest.mark.parametrize("name", ["va", "agnn", "gat", "gcn", "gin"])
    @pytest.mark.parametrize("cached", [False, True])
    def test_union_batch_matches_per_request(
        self, adjacency, features, name, cached
    ):
        model = _model(name)
        seeds = np.unique(np.random.default_rng(1).integers(0, N, 12))
        batch_engine = ServingEngine(
            model, adjacency, features,
            cache=4096 if cached else None, seed=5,
        )
        batched = batch_engine.serve_unique(seeds)
        per_engine = ServingEngine(
            model, adjacency, features,
            cache=4096 if cached else None, seed=5,
        )
        per = np.vstack([per_engine.serve([int(s)]) for s in seeds])
        assert np.array_equal(batched, per)  # bit-identical

    @pytest.mark.parametrize("name", ["va", "agnn", "gat"])
    def test_derived_spec_batch_matches_per_request(self, adjacency, features, name):
        """Layers over the spec lowered from a layer DAG serve batched rows
        bit-identical to per-request ones."""
        model = GnnModel([
            DagLayer(name, FEAT, 12, fused=True, seed=0, dtype=np.float32),
            DagLayer(name, 12, 6, "identity", fused=True, seed=1, dtype=np.float32),
        ])
        seeds = np.unique(np.random.default_rng(2).integers(0, N, 12))
        batched = ServingEngine(model, adjacency, features, seed=5).serve_unique(seeds)
        per_engine = ServingEngine(model, adjacency, features, seed=5)
        per = np.vstack([per_engine.serve([int(s)]) for s in seeds])
        assert np.array_equal(batched, per)

    def test_batch_matches_full_forward(self, adjacency, features):
        model = _model("gat")
        engine = ServingEngine(model, adjacency, features, cache=256, seed=5)
        reference = model.forward(adjacency, features, training=False)
        seeds = np.arange(0, N, 3, dtype=np.int64)
        assert np.array_equal(engine.serve_unique(seeds), reference[seeds])
        # Second serve answers from the cache — still identical.
        assert np.array_equal(engine.serve_unique(seeds), reference[seeds])
        assert engine.cache.hits > 0

    def test_duplicates_and_order_preserved(self, adjacency, features):
        engine = ServingEngine(_model(), adjacency, features, seed=5)
        nodes = np.array([9, 3, 9, 0, 3])
        rows = engine.serve(nodes)
        unique_rows = engine.serve_unique(np.array([0, 3, 9]))
        assert np.array_equal(rows[0], unique_rows[2])
        assert np.array_equal(rows[1], unique_rows[1])
        assert np.array_equal(rows[2], unique_rows[2])
        assert np.array_equal(rows[3], unique_rows[0])

    @pytest.mark.parametrize(
        "bad", [[2.7], [True], np.array([True, False]), [0, N], [-1]]
    )
    def test_serve_refuses_ids_it_would_truncate_or_read_from_bools(
        self, adjacency, features, bad
    ):
        """``[2.7]`` would serve node 2 and ``[True]`` node 1 through an
        int64 cast: both raise, as an id out of range does."""
        engine = ServingEngine(_model(), adjacency, features, seed=5)
        with pytest.raises(ValueError, match="integer vertex ids"):
            engine.serve(bad)
        assert engine.cache.hits + engine.cache.misses == 0

    def test_fully_cached_serve_skips_sampling(self, adjacency, features):
        engine = ServingEngine(_model(), adjacency, features,
                               cache=4096, seed=5)
        seeds = np.array([1, 4, 6], dtype=np.int64)
        engine.serve_unique(seeds)
        hops_before = metrics().counter("sample.hop").value
        engine.serve_unique(seeds)
        assert metrics().counter("sample.hop").value == hops_before

    @pytest.mark.parametrize("name", ["va", "gat"])
    def test_walk_from_a_fully_cached_level_matches_full_forward(
        self, adjacency, features, name
    ):
        """Serving every vertex but ``u`` caches every level-1 row, so
        ``u``'s descent samples one hop and stops: the walk starts at
        layer 1, from cached rows, and still serves the full forward's
        row bit for bit."""
        model = _model(name)
        engine = ServingEngine(model, adjacency, features, cache=4096, seed=5)
        u = 17
        engine.serve_unique(np.delete(np.arange(N), u))
        hops_before = metrics().counter("sample.hop").value
        served = engine.serve_unique(np.array([u]))
        assert metrics().counter("sample.hop").value == hops_before + 1
        reference = model.forward(adjacency, features, training=False)
        assert np.array_equal(served[0], reference[u])

    def test_each_sampled_hop_gets_a_serve_sample_span(
        self, adjacency, features, kernels_backend
    ):
        engine = ServingEngine(_model(), adjacency, features,
                               fanouts=(3, 3), seed=5)
        seeds = np.array([1, 4, 6], dtype=np.int64)
        live = Tracer(rank=0)
        install_tracer(live)
        try:
            engine.serve_unique(seeds)
        finally:
            install_tracer(None)
        hops = [s.attrs for s in live.spans if s.name == "serve.sample"]
        assert [h["level"] for h in hops] == [2, 1]  # output hop first
        assert hops[0]["frontier"] == seeds.size
        for hop in hops:
            assert 0 < hop["sampled_edges"] <= 3 * hop["frontier"]
            # Every frontier holds a seed of degree > 3: the selection ran.
            assert hop["backend"] == kernels_backend


# ----------------------------------------------------------------------
# Mutations: reloads and deltas
# ----------------------------------------------------------------------
class TestEngineMutations:
    def test_reload_bumps_version_and_refreshes_outputs(
        self, adjacency, features
    ):
        model = _model()
        engine = ServingEngine(model, adjacency, features, cache=256, seed=5)
        seeds = np.array([0, 5, 11], dtype=np.int64)
        before = engine.serve_unique(seeds)
        state = {k: v * 0.5 for k, v in state_dict(model).items()}
        assert engine.reload(state) == 1
        reference = model.forward(adjacency, features, training=False)
        after = engine.serve_unique(seeds)
        assert np.array_equal(after, reference[seeds])
        assert not np.array_equal(after, before)

    def test_rejected_reload_leaves_engine_untouched(
        self, adjacency, features
    ):
        """A mis-shaped checkpoint: no torn weights, version or cache."""
        model = _model()
        engine = ServingEngine(model, adjacency, features, cache=256, seed=5)
        seeds = np.array([0, 5, 11], dtype=np.int64)
        before = engine.serve_unique(seeds)
        params, cached = state_dict(model), len(engine.cache)
        bad = {k: v * 0.5 for k, v in params.items()}
        bad["layer1.weight"] = bad["layer1.weight"][:, :-1]
        with pytest.raises(ValueError, match="layer1.weight"):
            engine.reload(bad)
        assert engine._snapshot.version == 0
        assert len(engine.cache) == cached > 0
        after = state_dict(model)
        assert all(np.array_equal(after[k], params[k]) for k in params)
        hits = engine.cache.hits
        assert np.array_equal(engine.serve_unique(seeds), before)
        assert engine.cache.hits > hits  # ... and served from the cache

    def test_feature_delta_serves_fresh_rows(self, adjacency, features):
        model = _model()
        engine = ServingEngine(model, adjacency, features, cache=256, seed=5)
        seeds = np.arange(N, dtype=np.int64)
        engine.serve_unique(seeds)  # warm every level
        touched = np.array([2, 17])
        new_rows = np.random.default_rng(9).standard_normal((2, FEAT))
        engine.apply_feature_delta(touched, new_rows)
        current = np.array(features, copy=True)
        current[touched] = new_rows
        reference = model.forward(adjacency, current, training=False)
        assert np.array_equal(engine.serve_unique(seeds), reference[seeds])

    def test_feature_delta_migrates_far_nodes(self, adjacency, features):
        model = _model()
        engine = ServingEngine(model, adjacency, features, cache=4096, seed=5)
        seeds = np.arange(N, dtype=np.int64)
        engine.serve_unique(seeds)
        entries_before = len(engine.cache)
        engine.apply_feature_delta(
            np.array([0]), np.zeros((1, FEAT))
        )
        # Targeted invalidation: the cache is not wiped wholesale.
        assert len(engine.cache) > 0
        assert len(engine.cache) < entries_before or N <= 2

    @pytest.mark.parametrize(
        "nodes, rows",
        [
            # NumPy would wrap -1 to row N-1 while the invalidation
            # looks for column -1 and finds nothing: stale rows.
            (np.array([-1]), np.ones((1, FEAT))),
            (np.array([N]), np.ones((1, FEAT))),
            # One 1-D row would broadcast over three vertices.
            (np.array([1, 2, 3]), np.ones(FEAT)),
            (np.array([1.5]), np.ones((1, FEAT))),
            # One NaN feature row makes its whole forward cone NaN.
            (np.array([3]), np.full((1, FEAT), np.nan)),
            (np.array([3, 4]), np.array([[1.0] * FEAT, [np.inf] * FEAT])),
        ],
        ids=["negative", "past-the-end", "broadcast-row", "fractional",
             "nan-row", "inf-row"],
    )
    def test_malformed_feature_delta_changes_nothing(
        self, adjacency, features, nodes, rows
    ):
        model = _model("gat")
        engine = ServingEngine(model, adjacency, features, cache=4096, seed=5)
        seeds = np.arange(N, dtype=np.int64)
        reference = model.forward(adjacency, features, training=False)
        engine.serve_unique(seeds)  # warm every level
        entries = len(engine.cache)
        with pytest.raises(ValueError, match="nodes|rows"):
            engine.apply_feature_delta(nodes, rows)
        assert engine._snapshot.version == 0
        assert len(engine.cache) == entries
        assert np.array_equal(engine.serve_unique(seeds), reference)

    @pytest.mark.parametrize("touched", [[-1], [N], [0.5]])
    def test_malformed_graph_delta_changes_nothing(
        self, adjacency, features, touched
    ):
        model = _model("gat")
        engine = ServingEngine(model, adjacency, features, cache=4096, seed=5)
        seeds = np.arange(N, dtype=np.int64)
        reference = engine.serve_unique(seeds)
        entries = len(engine.cache)
        with pytest.raises(ValueError, match="touched_dst"):
            engine.apply_graph_delta(adjacency, touched_dst=np.array(touched))
        assert engine._snapshot.version == 0
        assert len(engine.cache) == entries
        assert np.array_equal(engine.serve_unique(seeds), reference)

    def test_graph_delta_with_touched_rows(self, adjacency, features):
        model = _model()
        engine = ServingEngine(model, adjacency, features, cache=4096, seed=5)
        seeds = np.arange(N, dtype=np.int64)
        engine.serve_unique(seeds)
        dense = adjacency.to_dense()
        row = 6
        dense[row, : N // 2] = 0.0
        dense[row, row] = 1.0
        new_a = CSRMatrix.from_dense(dense)
        engine.apply_graph_delta(new_a, touched_dst=np.array([row]))
        reference = model.forward(new_a, features, training=False)
        assert np.array_equal(engine.serve_unique(seeds), reference[seeds])

    def test_graph_delta_without_annotation_clears(self, adjacency, features):
        model = _model()
        engine = ServingEngine(model, adjacency, features, cache=256, seed=5)
        engine.serve_unique(np.array([0, 1], dtype=np.int64))
        assert len(engine.cache) > 0
        engine.apply_graph_delta(adjacency)
        assert len(engine.cache) == 0

    def test_delta_drops_exactly_the_forward_cone(self, adjacency, features):
        """Level ℓ loses the vertices within ℓ hops downstream of the
        touched rows — dense reachability is the oracle — and no other."""
        engine = ServingEngine(_model(), adjacency, features,
                               cache=4096, seed=5)
        everyone = np.arange(N, dtype=np.int64)
        engine.serve_unique(everyone)  # every row of both levels cached
        touched = np.array([2, 17])
        engine.apply_feature_delta(touched, np.zeros((2, FEAT)))
        reach = (adjacency.to_dense() != 0) | np.eye(N, dtype=bool)
        stale = np.zeros(N, dtype=bool)
        stale[touched] = True
        for level in (1, 2):
            stale = reach[:, stale].any(axis=1)
            _, hits = engine.cache.get_rows(level, everyone, engine._snapshot.version)
            assert np.array_equal(hits, ~stale)

    def test_mutations_emit_a_delta_span_and_metrics(
        self, adjacency, features
    ):
        model = _model()
        engine = ServingEngine(model, adjacency, features, cache=4096, seed=5)
        engine.serve_unique(np.arange(N, dtype=np.int64))
        count0 = metrics().histogram("serving.delta_ms").count
        dropped0 = metrics().counter("serving.cache.invalidated").value
        sizes = [len(engine.cache)]
        live = Tracer(rank=0)
        install_tracer(live)
        try:
            engine.apply_graph_delta(adjacency, touched_dst=np.array([6]))
            sizes.append(len(engine.cache))
            engine.apply_feature_delta(np.array([0, 9]), np.zeros((2, FEAT)))
            sizes.append(len(engine.cache))
            engine.reload(state_dict(model))
            sizes.append(len(engine.cache))
        finally:
            install_tracer(None)
        spans = [s.attrs for s in live.spans if s.name == "serve.delta"]
        assert [s["kind"] for s in spans] == ["graph", "feature", "reload"]
        assert [s["dropped"] for s in spans] == [
            was - now for was, now in zip(sizes, sizes[1:])
        ]
        assert 0 < sizes[2] < sizes[1] < sizes[0] and sizes[3] == 0
        # Cone sizes per level: the touched ids (level 1 for a graph
        # delta, level 0 for a feature delta), then one hop per level.
        assert spans[0]["cone"][1] == 1 and spans[1]["cone"][0] == 2
        assert 2 < spans[1]["cone"][1] <= spans[1]["cone"][2] <= N
        assert spans[2]["cone"] is None  # a reload names no ids
        assert metrics().histogram("serving.delta_ms").count == count0 + 3
        assert (
            metrics().counter("serving.cache.invalidated").value
            == dropped0 + sizes[0]
        )

    def test_delta_landing_mid_flush(self, adjacency, features):
        """A serve captures snapshot 0, looks up its top level, and is
        then overtaken by a feature delta before it looks any deeper."""

        class OvertakenCache(ActivationCache):
            overtake = None

            def get_rows(self, level, nodes, version):
                if level == 1 and self.overtake is not None:
                    fire, self.overtake = self.overtake, None
                    fire()
                return super().get_rows(level, nodes, version)

        model = _model("gat")
        cache = OvertakenCache(capacity=4096)
        engine = ServingEngine(model, adjacency, features, cache=cache, seed=5)
        seeds = np.arange(0, N, 2, dtype=np.int64)
        touched = np.array([2, 17])
        new_rows = np.random.default_rng(9).standard_normal((2, FEAT))
        current = np.array(features, copy=True)
        current[touched] = new_rows
        old = model.forward(adjacency, features, training=False)
        new = model.forward(adjacency, current, training=False)
        # Vertex 2's output is cached, so the overtaken serve also holds
        # a row the delta is about to drop.
        engine.serve_unique(touched)
        after_delta = []

        def overtake():
            engine.apply_feature_delta(touched, new_rows)
            after_delta.append(len(cache))

        cache.overtake = overtake
        hits = cache.hits
        got = engine.serve_unique(seeds)
        assert engine._snapshot.version == 1 and after_delta  # it was overtaken
        assert np.array_equal(got, old[seeds])
        assert cache.hits == hits + 1  # vertex 2, read before the delta
        assert len(cache) == after_delta[0]  # its late writes stored nothing
        assert np.array_equal(engine.serve_unique(seeds), new[seeds])
        assert len(cache) > after_delta[0]  # the live version does cache

    def test_explicit_weights_rejected_on_graph_swap(
        self, adjacency, features
    ):
        weights = np.ones(adjacency.nnz)
        engine = ServingEngine(
            _model(), adjacency, features, fanouts=(2, 2),
            weights=weights, seed=5,
        )
        with pytest.raises(ValueError, match="weights"):
            engine.apply_graph_delta(adjacency)

    @pytest.mark.parametrize("fanouts", [(2.5, 2), (2, True), (2, "2"), (2,), (-1, 2)])
    def test_fanouts_checked_like_the_trainer(self, adjacency, features, fanouts):
        """``(2.5, 2)`` used to build and serve, sampling 2 per row."""
        with pytest.raises(ValueError, match="fan-outs"):
            ServingEngine(_model(), adjacency, features, fanouts=fanouts)

    def test_multi_hop_layers_rejected(self, adjacency, features):
        sgc = build_model("sgc", FEAT, 12, 6, num_layers=2, seed=0)
        with pytest.raises(ValueError, match="one-hop"):
            ServingEngine(sgc, adjacency, features)


# ----------------------------------------------------------------------
# Staleness property: no interleaving ever serves a stale activation
# ----------------------------------------------------------------------
def _graph_variants() -> list[CSRMatrix]:
    variants = [_adjacency(seed) for seed in (7, 8)]
    # A third variant: the base graph with one vertex's in-edges
    # rewired (exercises the touched_dst invalidation path).
    dense = variants[0].to_dense()
    dense[5] = 0.0
    dense[5, 5] = 1.0
    dense[5, 12] = 2.0
    variants.append(CSRMatrix.from_dense(dense))
    return variants


_VARIANTS = _graph_variants()


def _touched_rows(old: CSRMatrix, new: CSRMatrix) -> np.ndarray:
    """Destination vertices whose in-edge slice differs between graphs."""
    dense_old, dense_new = old.to_dense(), new.to_dense()
    return np.flatnonzero(np.any(dense_old != dense_new, axis=1))


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, 2**31 - 1)),
        st.tuples(st.just("feat"), st.integers(0, 2**31 - 1)),
        st.tuples(st.just("wild"), st.integers(0, 2**31 - 1)),
        st.tuples(st.just("nonfinite"), st.integers(0, 2**31 - 1)),
        st.tuples(st.just("reload"), st.integers(1, 7)),
        st.tuples(st.just("graph"), st.integers(0, len(_VARIANTS) - 1)),
    ),
    min_size=1,
    max_size=12,
)


class TestNeverStale:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS, capacity=st.sampled_from([2, 64, 4096]))
    def test_interleavings_always_serve_current_state(self, ops, capacity):
        model = _model("gat")
        base_state = state_dict(model)
        a = _VARIANTS[0]
        features = np.random.default_rng(3).standard_normal((N, FEAT))
        engine = ServingEngine(
            model, a, features,
            cache=ActivationCache(capacity=capacity), seed=5,
        )
        current = np.array(features, copy=True)
        try:
            for kind, payload in ops:
                if kind == "query":
                    rng = np.random.default_rng(payload)
                    seeds = np.unique(rng.integers(0, N, rng.integers(1, 9)))
                    reference = model.forward(a, current, training=False)
                    got = engine.serve_unique(seeds)
                    assert np.array_equal(got, reference[seeds])
                elif kind in ("feat", "wild", "nonfinite"):
                    rng = np.random.default_rng(payload)
                    # "wild" ids come from [-N, 2N): a delta naming a
                    # vertex that does not exist is refused whole, which
                    # makes it a no-op step. So is one carrying a NaN
                    # or an infinity.
                    lo, hi = (-N, 2 * N) if kind == "wild" else (0, N)
                    nodes = np.unique(rng.integers(lo, hi, rng.integers(1, 5)))
                    rows = rng.standard_normal((nodes.size, FEAT))
                    if kind == "nonfinite":
                        rows[rng.integers(nodes.size), rng.integers(FEAT)] = (
                            rng.choice([np.nan, np.inf, -np.inf])
                        )
                    version = engine._snapshot.version
                    try:
                        engine.apply_feature_delta(nodes, rows)
                    except ValueError:
                        assert (
                            kind == "nonfinite"
                            or nodes[0] < 0 or nodes[-1] >= N
                        )
                        assert engine._snapshot.version == version
                    else:
                        assert kind != "nonfinite"
                        current[nodes] = rows
                elif kind == "reload":
                    scale = 1.0 + payload / 10.0
                    engine.reload(
                        {k: v * scale for k, v in base_state.items()}
                    )
                else:  # graph swap
                    new_a = _VARIANTS[payload]
                    touched = _touched_rows(a, new_a)
                    engine.apply_graph_delta(new_a, touched_dst=touched)
                    a = new_a
        finally:
            # The model is module-shared state: restore its parameters.
            from repro.models import load_state_dict

            load_state_dict(model, base_state)


# ----------------------------------------------------------------------
# Server end-to-end
# ----------------------------------------------------------------------
class TestServingServer:
    def test_futures_resolve_to_correct_rows(self, adjacency, features):
        model = _model("gat")
        reference = model.forward(adjacency, features, training=False)
        engine = ServingEngine(model, adjacency, features, cache=256, seed=5)
        with ServingServer(engine, max_batch=8, workers=2) as server:
            nodes = [int(n) for n in np.arange(60) % N]
            futures = server.submit_many(nodes)
            rows = np.vstack([f.result(timeout=30) for f in futures])
        assert np.array_equal(rows, reference[np.arange(60) % N])

    @pytest.mark.parametrize("max_batch", [64, 4], ids=["default", "tight"])
    def test_admission_policy_does_not_change_rows(
        self, adjacency, features, max_batch
    ):
        """The default batch cap and a tight one (a burst split into
        many tiny flushes) answer the same burst with the same rows."""
        model = _model("gat")
        reference = model.forward(adjacency, features, training=False)
        engine = ServingEngine(model, adjacency, features, cache=256, seed=5)
        with ServingServer(engine, max_batch=max_batch) as server:
            assert server.queue.max_batch == max_batch
            nodes = np.arange(70) % N
            rows = np.vstack(
                [f.result(timeout=30) for f in server.submit_many(nodes)]
            )
        assert np.array_equal(rows, reference[nodes])

    def test_bad_policy_raises_before_any_worker_starts(
        self, adjacency, features
    ):
        engine = ServingEngine(_model(), adjacency, features, seed=5)
        with pytest.raises(ValueError, match="max_batch"):
            ServingServer(engine, max_batch=2.7, workers=2)
        # 2.5 used to fail in range(), True to start one worker.
        for bad in (0, 2.5, True, float("nan")):
            with pytest.raises(ValueError, match="workers"):
                ServingServer(engine, workers=bad)
        assert not _serve_workers()

    def test_engine_failure_propagates_to_futures(self, adjacency, features):
        engine = ServingEngine(_model(), adjacency, features, seed=5)
        with ServingServer(engine, max_batch=4) as server:
            future = server.submit(N + 100)  # out of range
            with pytest.raises(ValueError):
                future.result(timeout=30)

    @pytest.mark.parametrize(
        "bad", [N + 5, -1, 2.9, np.float64(2.0), True, np.True_]
    )
    def test_bad_id_fails_alone(self, adjacency, features, bad):
        """One malformed request in a flush of five: its future names
        the id, the four valid ones of the same batch get their rows."""
        model = _model("gat")
        reference = model.forward(adjacency, features, training=False)
        engine = ServingEngine(model, adjacency, features, seed=5)
        flushes = metrics().histogram("serving.batch_size").count
        with ServingServer(engine, max_batch=8) as server:
            nodes = [1, 2, 3, bad, 4]
            futures = server.submit_many(nodes)
            for node, future in zip(nodes, futures):
                if node is bad:
                    with pytest.raises(ValueError, match="node must be"):
                        future.result(timeout=30)
                    assert repr(bad) in str(future.exception())
                else:
                    assert np.array_equal(
                        future.result(timeout=30), reference[node]
                    )
        # One enqueue, an idle worker: the four valid ids shared a flush.
        assert metrics().histogram("serving.batch_size").count == flushes + 1

    def test_cancelled_request_is_dropped_and_the_worker_lives(
        self, adjacency, features
    ):
        """Cancel one of three requests queued behind a busy worker:
        the other two resolve, the cancelled one is never served, and
        the worker is still there to answer a later request."""

        class GatedEngine(ServingEngine):
            entered, gate = threading.Event(), threading.Event()

            def serve_unique(self, seeds):
                self.entered.set()
                self.gate.wait(timeout=30)
                return super().serve_unique(seeds)

        model = _model("gat")
        reference = model.forward(adjacency, features, training=False)
        engine = GatedEngine(model, adjacency, features, seed=5)
        cancelled = metrics().counter("serving.cancelled").value
        with ServingServer(engine) as server:
            first = server.submit(0)
            assert engine.entered.wait(timeout=30)  # the worker is busy
            futures = server.submit_many([1, 2, 3])
            assert futures[1].cancel()
            engine.gate.set()
            for node in (0, 1, 3):
                future = first if node == 0 else futures[node - 1]
                assert np.array_equal(future.result(timeout=30), reference[node])
            assert futures[1].cancelled()
            assert all(thread.is_alive() for thread in server._threads)
            assert np.array_equal(
                server.submit(4).result(timeout=30), reference[4]
            )
        assert metrics().counter("serving.cancelled").value == cancelled + 1

    def test_more_workers_than_cores_with_bursts_and_cancels(
        self, adjacency, features
    ):
        """Four workers, four requester threads bursting and cancelling,
        a thread switch every microsecond: each request is served its
        exact row or was cancelled before a worker took it, and every
        cancel that succeeded is counted once."""
        model = _model("gat")
        reference = model.forward(adjacency, features, training=False)
        engine = ServingEngine(model, adjacency, features, cache=256, seed=5)
        cancelled = metrics().counter("serving.cancelled").value
        sent: list = []

        def requester(index: int) -> None:
            rng = np.random.default_rng(index)
            for _ in range(10):
                nodes = rng.integers(0, N, rng.integers(1, 20)).tolist()
                futures = server.submit_many(nodes)
                drops = sum(future.cancel() for future in futures[::3])
                sent.append((nodes, futures, drops))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServingServer(engine, max_batch=8, workers=4) as server:
                threads = [
                    threading.Thread(target=requester, args=(i,))
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for nodes, futures, _ in sent:
                    for node, future in zip(nodes, futures):
                        if not future.cancelled():
                            assert np.array_equal(
                                future.result(timeout=30), reference[node]
                            )
        finally:
            sys.setswitchinterval(interval)
        assert len(sent) == 40
        assert metrics().counter("serving.cancelled").value == cancelled + sum(
            drops for *_, drops in sent
        )

    def test_concurrent_requesters_with_reloads(self, adjacency, features):
        # Heavier interleaving: requester threads race a reload; every
        # response must match the pre- or post-reload reference exactly.
        model = _model("gat")
        before = model.forward(adjacency, features, training=False)
        halved = {k: v * 0.5 for k, v in state_dict(model).items()}
        engine = ServingEngine(model, adjacency, features, cache=512, seed=5)
        failures: list[str] = []
        base_state = state_dict(model)

        def requester(worker: int) -> None:
            rng = np.random.default_rng(worker)
            for _ in range(20):
                node = int(rng.integers(0, N))
                row = server.submit(node).result(timeout=30)
                if not (
                    np.array_equal(row, before[node])
                    or np.array_equal(row, after[node])
                ):
                    failures.append(f"stale row for node {node}")

        try:
            with ServingServer(engine, max_batch=16, workers=2) as server:
                threads = [
                    threading.Thread(target=requester, args=(i,))
                    for i in range(4)
                ]
                # Compute the post-reload reference on a throwaway copy
                # first so `after` is ready before the race starts.
                probe = _model("gat")
                from repro.models import load_state_dict

                load_state_dict(probe, halved)
                after = probe.forward(adjacency, features, training=False)
                for thread in threads:
                    thread.start()
                engine.reload(halved)
                for thread in threads:
                    thread.join()
        finally:
            from repro.models import load_state_dict

            load_state_dict(model, base_state)
        assert not failures


# ----------------------------------------------------------------------
# A long-running engine holds nothing per flush
# ----------------------------------------------------------------------
class TestNothingRetainedBetweenFlushes:
    #: Per-flush bookkeeping that legitimately stays (metric samples):
    #: ~0.2 KiB a call measured; a batch-sized buffer is ~1 MiB here.
    SLACK_BYTES = 128 << 10

    def test_traced_bytes_flat_across_mixed_batches(self):
        """100 mixed-size union batches, no activation cache: what the
        process holds after a flush does not depend on the flushes
        before it, so traced bytes after call 100 sit within the slack
        of their value after call 20 although the largest batches only
        arrive later. Any module-level buffer that grows with the batch
        breaks this."""
        n = 2000
        a = prepare_adjacency(erdos_renyi(n, 8 * n, seed=7), dtype=np.float64)
        features = np.random.default_rng(3).standard_normal((n, FEAT))
        engine = ServingEngine(_model("gat"), a, features, cache=None, seed=5)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            for call in range(100):
                top = 16 if call < 20 else 256
                size = int(rng.integers(1, top + 1))
                engine.serve_unique(np.unique(rng.integers(0, n, size)))
                if call == 19:
                    gc.collect()
                    early = tracemalloc.get_traced_memory()[0]
            gc.collect()
            late = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert late - early <= self.SLACK_BYTES, (
            f"{late - early} bytes retained between call 20 and call 100"
        )

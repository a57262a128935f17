"""Union ego-graph batching with cache-truncated sampling depth.

The coalescer's compute core. One flush of queued seed vertices runs as
a *single* union ego-batch rather than per-request forwards:

1. **Union sampling** — all seeds share one layered block set
   (:func:`repro.tensor.sampling_graph.sample_one_hop` per level), so
   overlapping neighbourhoods — the common case on power-law graphs —
   are sampled and computed once per flush instead of once per request.
   Each block has one row per destination over its source frame, so a
   layer computes the rows the next level reads and no others.
2. **Depth truncation** — before sampling below a level, the frontier
   is checked against the :class:`~repro.serving.cache.ActivationCache`:
   a node whose level-ℓ activation is cached contributes no sub-tree,
   because its row can be spliced into layer ℓ's input frame directly.
   The descent therefore only expands *uncached* nodes, and a fully
   cached seed costs zero sampling and zero compute.
3. **One layer walk + scatter** — the ascent is
   :func:`repro.models.base.forward_blocks` over the sampled blocks,
   from the lowest level sampled; with a cache, its exchange gather
   stores each layer's computed rows and splices the cached ones in.
   Per-seed output rows scatter back to the requests' futures in one
   gather (``rows[inverse]``).

Identity contract (property-tested): every layer is row-wise in its
source frame, compaction is monotone, and cached rows are exact prior
outputs — so with full fan-out the batched output row of a seed is
**bit-identical** to a per-request forward, with or without cache hits.

The descent/ascent contract: the block layer ``j`` reads is sampled
with ``dst = need_{j+1}`` (the uncached frontier at level ``j+1``), so
``block_j.dst_nodes == block_{j+1}.src_nodes[~hits_{j+1}]`` exactly —
both sorted — and a frame is two masked assignments (computed rows at
``~hits``, the cache's stacked hit rows at ``hits``): no search, no loop.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.models.base import GnnModel, forward_blocks
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.serving.cache import ActivationCache
from repro.serving.queue import InferenceRequest
from repro.tensor.csr import CSRMatrix
from repro.tensor.sampling_graph import Block, sample_one_hop
from repro.util.counters import FlopCounter, null_counter

__all__ = ["coalesce", "compute_union_rows", "flush_batch"]


def coalesce(
    requests: list[InferenceRequest],
) -> tuple[np.ndarray, np.ndarray]:
    """Dedupe a flush's seeds: ``(unique sorted seeds, inverse map)``.

    Duplicate requests for the same vertex — hot-node traffic — ride
    the same union batch row; ``inverse`` scatters it back to each.
    """
    seeds = np.array([r.node for r in requests], dtype=np.int64)
    return np.unique(seeds, return_inverse=True)


# ----------------------------------------------------------------------
def compute_union_rows(
    model: GnnModel,
    a: CSRMatrix,
    features: np.ndarray,
    seeds: np.ndarray,
    fanouts: tuple[int | None, ...],
    rng: np.random.Generator,
    cache: ActivationCache | None = None,
    version: int = 0,
    weights: np.ndarray | None = None,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """Model output rows for ``seeds`` (unique, sorted) as one batch.

    The cache-free path is exactly ``sample_blocks`` +
    ``forward_blocks``; with a cache, sampling depth truncates at
    cached levels and every freshly computed level lands back in the
    cache under ``version``.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        raise ValueError("a union batch needs at least one seed")
    if seeds.size > 1 and np.any(np.diff(seeds) <= 0):
        raise ValueError("seeds must be unique and sorted (coalesce them)")
    num_layers = model.num_layers
    if len(fanouts) != num_layers:
        raise ValueError(
            f"got {len(fanouts)} fan-outs for {num_layers} layers"
        )

    # Descent: top-level lookup, then expand only uncached frontiers,
    # stopping at an empty one. ``lookups[level]`` holds the cached
    # rows/hits over the source frame of the block that layer ``level``
    # reads.
    top_rows: np.ndarray | None = None
    top_hits = np.zeros(seeds.size, dtype=bool)
    if cache is not None:
        with tracer().span("serve.cache", level=num_layers,
                           nodes=int(seeds.size)):
            top_rows, top_hits = cache.get_rows(num_layers, seeds, version)
    blocks: list[Block] = []
    lookups: dict[int, tuple[np.ndarray | None, np.ndarray]] = {}
    frontier = seeds[~top_hits]
    level = num_layers
    while frontier.size and level > 0:
        level -= 1
        with tracer().span("serve.sample", level=level + 1, frontier=int(frontier.size)) as span:
            block = sample_one_hop(a, frontier, fanouts[level], rng, weights)
            span.annotate(sampled_edges=block.sampled_edges)
        blocks.append(block)
        frontier = block.src_nodes
        if cache is not None and level > 0:
            with tracer().span("serve.cache", level=level,
                               nodes=int(block.num_src)):
                rows, hits = cache.get_rows(level, block.src_nodes, version)
            lookups[level] = (rows, hits)
            frontier = frontier[~hits]
    if not blocks:  # every seed's output was cached
        return top_rows

    # Ascent: the one layer walk over the layers above the lowest level
    # sampled, from the features or that level's (all cached) rows.
    blocks.reverse()
    first = num_layers - len(blocks)
    h0 = lookups[first][0] if first else np.asarray(features)[blocks[0].src_nodes]
    levels = itertools.count(first)

    def splice(rows: np.ndarray) -> np.ndarray:
        # Cache the rows the layer below computed (this layer's uncached
        # sources, in order) and splice the cached ones in.
        level = next(levels)
        if level == first:
            return rows
        cache.put_rows(level, blocks[level - first - 1].dst_nodes, rows, version)
        return _splice(rows, *lookups[level])

    walk = GnnModel(model.layers[first:]) if first else model
    out, _ = forward_blocks(walk, blocks, h0, counter, training=False,
                            exchange=None if cache is None else (splice, None))
    if cache is not None:
        cache.put_rows(num_layers, blocks[-1].dst_nodes, out, version)
    # Final frame over the unique seeds: cached top rows + computed.
    return _splice(out, top_rows, top_hits)


def _splice(computed: np.ndarray, cached: np.ndarray | None, hits: np.ndarray) -> np.ndarray:
    """The frame of ``cached`` rows at ``hits``, ``computed`` elsewhere."""
    if not hits.any():
        return computed
    frame = np.empty((hits.size,) + computed.shape[1:], dtype=computed.dtype)
    frame[~hits] = computed
    frame[hits] = cached
    return frame


# ----------------------------------------------------------------------
def flush_batch(engine, requests: list[InferenceRequest]) -> None:
    """Serve one drained batch and scatter rows back to the futures.

    Any engine failure propagates to *every* future in the flush (the
    batch shares one forward, so there is no per-request blame). Flush
    latency per request lands in ``serving.latency_ms``; union batch
    shape in ``serving.batch_size`` / ``serving.unique_seeds``.
    """
    if not requests:
        return
    with tracer().span("serve.flush", batch=len(requests)):
        seeds, inverse = coalesce(requests)
        try:
            rows = engine.serve_unique(seeds)
        except BaseException as exc:
            for request in requests:
                request.future.set_exception(exc)
            return
        now = time.perf_counter()
        registry = metrics()
        for request, row in zip(requests, rows[inverse]):
            request.future.set_result(row)
        registry.histogram("serving.latency_ms").observe_many(
            [(now - request.t_submit) * 1e3 for request in requests]
        )
        registry.histogram("serving.batch_size").observe(len(requests))
        registry.histogram("serving.unique_seeds").observe(seeds.size)

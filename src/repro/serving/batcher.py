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
3. **Single forward + scatter** — the ascent mirrors
   :func:`repro.training.minibatch.forward_blocks` statement for
   statement (layer ``forward`` on the block matrix with
   ``rows=dst_positions``), assembling each layer's input frame from
   cached rows plus the rows just computed. Per-seed output rows scatter back
   to the requests' futures in one gather (``rows[inverse]``).

Identity contract (property-tested): every layer is row-wise in its
source frame, compaction is monotone, and cached rows are exact prior
outputs — so with full fan-out the batched output row of a seed is
**bit-identical** to a per-request forward, with or without cache hits.

The descent/ascent contract: the hop block for layer ``j`` is sampled
with ``dst = need_{j+1}`` (the uncached frontier at level ``j+1``), so
``block_j.dst_nodes == block_{j+1}.src_nodes[~hits_{j+1}]`` exactly —
both sorted — and a frame is two masked assignments (computed rows at
``~hits``, the cache's stacked hit rows at ``hits``): no search, no loop.
"""

from __future__ import annotations

import time

import numpy as np

from repro.models.base import GnnModel
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

    # Descent: top-level lookup, then expand only uncached frontiers.
    # ``lookups[j]`` pairs with ``hop_blocks``' layer-``j`` block: the
    # cached rows/hits over that block's source frame at level ``j``.
    top_rows: np.ndarray | None = None
    top_hits = np.zeros(seeds.size, dtype=bool)
    if cache is not None:
        with tracer().span("serve.cache", level=num_layers,
                           nodes=int(seeds.size)):
            top_rows, top_hits = cache.get_rows(num_layers, seeds, version)
    hop_blocks: list[tuple[int, Block]] = []
    lookups: dict[int, tuple[np.ndarray | None, np.ndarray]] = {}
    frontier = seeds[~top_hits]
    level = num_layers
    while frontier.size and level > 0:
        layer_index = level - 1
        with tracer().span("serve.sample", level=level, frontier=int(frontier.size)) as span:
            block = sample_one_hop(a, frontier, fanouts[layer_index], rng, weights)
            span.annotate(sampled_edges=block.sampled_edges)
        hop_blocks.append((layer_index, block))
        level = layer_index
        if level == 0:
            break
        if cache is None:
            frontier = block.src_nodes
            continue
        with tracer().span("serve.cache", level=level,
                           nodes=int(block.num_src)):
            rows, hits = cache.get_rows(level, block.src_nodes, version)
        lookups[level] = (rows, hits)
        frontier = block.src_nodes[~hits]

    # Ascent: assemble each layer's input frame and run it over the dst
    # rows — the forward_blocks arithmetic with cached rows spliced in.
    hop_blocks.reverse()
    out: np.ndarray | None = None
    for index, (layer_index, block) in enumerate(hop_blocks):
        if index == 0 and layer_index == 0:
            h = np.asarray(features)[block.src_nodes]
        elif index == 0:
            h = lookups[layer_index][0]  # truncated base: all cached
        elif cache is None:
            h = out  # prev dst set IS this frame (sample_blocks contract)
        else:
            # prev dst == this frame's miss rows, in order
            h = _splice(out, *lookups[layer_index])
        out, _ = model.layers[layer_index].forward(
            block.matrix, h, counter=counter, training=False, rows=block.dst_positions
        )
        if cache is not None:
            cache.put_rows(layer_index + 1, block.dst_nodes, out, version)

    # Final frame over the unique seeds: cached top rows + computed.
    if out is None:  # every seed's output was cached
        return top_rows
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

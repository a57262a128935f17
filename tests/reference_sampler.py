"""Test oracles of ``SamplingGraph.sample_edges``' two selections.

Uniform (``weights=None``): a textbook per-seed scalar Floyd loop
(Bentley & Floyd, CACM 1987) over the same draw — ``fanout`` uniforms
per over-fan-out seed, one ``rng.random((seeds, fanout))`` call — that
the production code vectorises over seeds and ``_edge.c`` compiles.

Weighted: PR 8's ``lexsort`` selection. ``sample_edges`` used to select
each over-fan-out segment's ``fanout`` smallest random keys with one
stable ``np.lexsort`` over *every* candidate edge; the production code
now does that in linear time, and this is the old O(candidates · log)
selection kept verbatim as the parity oracle — same RNG contract (one
uniform per candidate edge of an over-fan-out seed, in seed order),
same Efraimidis–Spirakis keys, same tie rule (the stable sort breaks
equal keys by lowest edge id).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.sampling_graph import SamplingGraph


def ragged_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """PR 8's own ragged-range gather, so the oracle shares no code
    with the selection it checks."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    out = np.repeat(starts - offsets, lengths)
    out += np.arange(total, dtype=np.int64)
    return out


def reference_sample_edges(
    graph: SamplingGraph,
    seeds: np.ndarray,
    fanout: int | None,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``graph.sample_edges(seeds, fanout, rng, weights)``: by Floyd's loop,
    seed by seed, or, weighted, by full sort."""
    seeds = np.asarray(seeds, dtype=np.int64)
    starts = graph.indptr[seeds]
    deg = graph.indptr[seeds + 1] - starts
    counts = deg if fanout is None else np.minimum(deg, int(fanout))
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    over = counts < deg
    if not over.any():
        return ragged_ranges(starts, counts), counts
    eids = np.empty(total, dtype=np.int64)
    offsets = np.zeros(seeds.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    take_all = ~over
    dst_pos = ragged_ranges(offsets[take_all], counts[take_all])
    eids[dst_pos] = ragged_ranges(starts[take_all], counts[take_all])
    deg_o = deg[over]
    if weights is None:
        uniforms = rng.random((deg_o.shape[0], fanout))
        picked = []
        for row, start, d in zip(uniforms, starts[over], deg_o):
            chosen: set[int] = set()
            for j, top in enumerate(range(int(d) - fanout, int(d))):
                t = int(row[j] * (top + 1))  # uniform on 0..top
                chosen.add(top if t in chosen else t)
            picked.extend(int(start) + p for p in sorted(chosen))
        eids[ragged_ranges(offsets[over], counts[over])] = picked
        return eids, counts
    cand = ragged_ranges(starts[over], deg_o)
    seg = np.repeat(np.arange(deg_o.shape[0], dtype=np.int64), deg_o)
    keys = rng.random(cand.shape[0])
    if weights is not None:
        w = np.asarray(weights)[cand].astype(np.float64, copy=False)
        positive = w > 0.0
        with np.errstate(divide="ignore"):
            keys = np.where(
                positive,
                -np.log1p(-keys) / np.where(positive, w, 1.0),
                np.inf,
            )
    order = np.lexsort((keys, seg))
    seg_starts = np.zeros(deg_o.shape[0], dtype=np.int64)
    np.cumsum(deg_o[:-1], out=seg_starts[1:])
    winners = np.repeat(seg_starts, fanout) + np.tile(
        np.arange(fanout, dtype=np.int64), deg_o.shape[0]
    )
    picked = cand[order][winners]
    # Restore ascending edge-id order inside each seed's segment.
    picked_seg = np.repeat(np.arange(deg_o.shape[0], dtype=np.int64), fanout)
    picked = picked[np.lexsort((picked, picked_seg))]
    eids[ragged_ranges(offsets[over], counts[over])] = picked
    return eids, counts

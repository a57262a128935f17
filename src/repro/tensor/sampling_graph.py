"""Compact CSC sampling structure and layered mini-batch blocks.

The global-tensor formulation is full-batch by construction: one
training iteration touches every vertex. For graphs whose activations
do not fit one rank, DistDGL-style systems instead train on *sampled
mini-batches* — a batch of target vertices plus a fan-out-limited
L-hop neighbourhood. This module provides the sampling substrate
(GraphBolt's ``CSCSamplingGraph`` is the exemplar):

* :class:`SamplingGraph` — a per-destination neighbour lookup built
  once from a :class:`~repro.tensor.csr.CSRMatrix` and interned on its
  :class:`~repro.tensor.structure.PatternStructure` (the aggregation
  ``Z[i] = Σ_j Ψ(A, H)[i, j] · H[j]`` reads row ``i`` of A, so A's CSR
  rows *are* the CSC in-adjacency of the aggregation operator: the
  index arrays are shared, not copied).
* :func:`SamplingGraph.sample_edges` — seeded per-seed fan-out
  neighbour sampling **without replacement**, vectorised: sub-fan-out
  seeds take their full CSR slice, over-fan-out seeds draw a uniform
  k-subset by Floyd's algorithm, ``k`` uniforms per seed whatever its
  degree, or a weighted one by random keys + per-segment partial
  selection, linear in the candidate edges.
* :class:`Block` / :func:`sample_blocks` — layered (per-hop) message
  flow blocks over **compacted local ids**. A hop is one call of
  ``_edge.c``'s ``sample_hop`` where a compiler exists — selection,
  edge gather, compaction through a per-thread vertex bitmap, local
  ids — and ``sample_edges`` plus one ``np.unique`` sort otherwise;
  the blocks are equal, array for array. Each block is a
  *rectangular* ``(num_dst, num_src)`` CSR, one row per destination
  over the hop's source set, as DGL's blocks are: the global
  formulation's ``σ(Ψ(A, H) · H W)`` runs over the rows of ``A``, so a
  layer computes its destination rows and nothing else. A layer reads
  the hop's source features and is told which of them are the
  destinations (``rows=dst_positions``), for the row-endpoint operands
  of a score and GIN's self term.
* :func:`vertex_ids` / :func:`check_fanouts` — the one vertex-id rule
  and the one fan-out rule of the sampler, the trainers and serving.

Bit-identity anchor
-------------------
With ``fanout >= max degree`` every seed takes the full-neighbour
branch in CSR order, the RNG is never consulted, and the emitted block
over *all* vertices has ``indptr``/``indices``/``data`` exactly equal
to A's. Because the compaction map is monotone (source ids are kept
sorted), per-row summation order is preserved for any target subset of
a canonical (row-sorted) adjacency — sampled forward/backward are then
*bit-identical* to the full-batch path, which is what
``tests/test_minibatch.py`` asserts for VA/AGNN/GAT; and a block's rows
are those of its square lift (``matrix.lift_rows(dst_positions)``) at
``dst_positions``, which ``tests/test_rectangular_hops.py`` holds every
layer to.

Events: ``sampling_graph.built`` / ``sampling_graph.hit`` (structure
interning), ``sample.hop`` (one hop sampled), ``sample.candidates``
(uniforms drawn: ``fanout`` per over-fan-out seed, or, weighted, one
per candidate edge of such a seed), counters in the
:func:`repro.obs.metrics` registry. The span around a hop gets
``backend="c"`` or ``"numpy"``.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.tensor import _edge
from repro.tensor.csr import CSRMatrix
from repro.tensor.segment import ragged_ranges
from repro.tensor.structure import PatternStructure

__all__ = [
    "Block",
    "SamplingGraph",
    "check_fanouts",
    "is_fanout",
    "sampling_graph_of",
    "sample_one_hop",
    "sample_blocks",
    "hub_bias_weights",
    "vertex_ids",
]


def is_fanout(fanout) -> bool:
    """A fan-out is ``None`` (every neighbour) or an integral number >= 0:
    a fraction, a bool or a string is not one (it would be truncated)."""
    if fanout is None:
        return True
    if isinstance(fanout, (bool, np.bool_)) or not isinstance(fanout, numbers.Real):
        return False
    return math.isfinite(fanout) and fanout >= 0 and fanout == int(fanout)


def check_fanouts(fanouts: tuple, num_layers: int) -> None:
    """One fan-out — an integer >= 0, or ``None``: all — per layer: a
    sampler that draws more or fewer hops than the model has layers trains
    on the wrong neighbourhood, and a fraction would be truncated."""
    if len(fanouts) != num_layers:
        raise ValueError(f"{len(fanouts)} fan-outs for a {num_layers}-layer model; "
                         "need one per layer")
    if not all(map(is_fanout, fanouts)):
        raise ValueError(f"fan-outs must be integers >= 0 (or None for all), got {fanouts!r}")


def vertex_ids(ids, n: int, name: str = "seeds") -> np.ndarray:
    """``ids`` as int64 vertex ids of an ``n``-vertex graph, order kept.

    A ``ValueError`` naming ``name`` unless ``ids`` is 1-D, of an
    integer dtype and in ``[0, n)``: a cast would truncate a fraction
    and read a bool as vertex 0 or 1, so neither is an id.
    """
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of vertex ids; got shape {ids.shape}")
    if not ids.size:
        return ids.astype(np.int64)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer vertex ids in [0, {n}); got dtype {ids.dtype}")
    lo, hi = ids.min(), ids.max()
    if lo < 0 or hi >= n:
        raise ValueError(f"{name} must be integer vertex ids in [0, {n}); ids from {lo} "
                         f"to {hi} are out of range")
    return ids.astype(np.int64, copy=False)


class SamplingGraph:
    """Per-destination neighbour lookup over one interned pattern.

    Holds (shared, frozen) references to the pattern's ``indptr`` /
    ``indices``; sampling methods return **edge ids** — positions into
    the owning matrix's ``indices``/``data`` — so callers can gather
    both the endpoints and the edge values of a sample.
    """

    __slots__ = ("structure", "indptr", "indices", "num_nodes", "_scratch")

    def __init__(self, structure: PatternStructure) -> None:
        if structure.shape[0] != structure.shape[1]:
            raise ValueError(
                "sampling requires a square adjacency; got shape "
                f"{structure.shape}"
            )
        self.structure = structure
        self.indptr = structure.indptr
        self.indices = structure.indices
        self.num_nodes = structure.shape[0]
        self._scratch = threading.local()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SamplingGraph(num_nodes={self.num_nodes}, "
            f"num_edges={int(self.indices.shape[0])})"
        )

    def sample_edges(
        self,
        seeds: np.ndarray,
        fanout: int | None,
        rng: np.random.Generator,
        weights: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample up to ``fanout`` neighbours per seed, w/o replacement.

        Returns ``(eids, counts)``: ``counts[i] = min(degree_i,
        fanout)`` sampled edges for ``seeds[i]``, and ``eids`` their
        edge ids concatenated in seed order, **ascending within each
        seed's segment** (so a canonical adjacency yields canonical
        blocks). ``fanout=None`` means unlimited (take every
        neighbour); seeds whose degree does not exceed the fan-out take
        their full CSR slice without consulting ``rng`` — with a
        graph-wide full fan-out the RNG state is never advanced.

        ``weights`` selects *importance* sampling: a per-edge array
        (aligned with the pattern's ``indices``) of unnormalised
        inclusion propensities, finite and non-negative where sampled.
        Keys become an Efraimidis–Spirakis exponential race,
        ``-log(1 - u) / w``; a zero weight draws ``+inf``.

        RNG contract, uniform (``weights=None``): one
        ``rng.random((over, fanout))`` call — ``fanout`` uniforms per
        over-fan-out seed, in seed order — and Floyd's algorithm maps a
        seed's row to ``fanout`` distinct positions of its ``deg``
        neighbours: pick ``j`` is ``floor(u_j * (deg - fanout + j + 1))``,
        or ``deg - fanout + j`` if that position is already taken
        (:func:`_floyd`). Every ``fanout``-subset is equally likely, at
        ``fanout`` draws per seed whatever its degree.

        RNG contract, weighted: one ``rng.random(candidates)`` call — a
        uniform per candidate edge of each over-fan-out seed, in seed
        order — and each segment keeps its ``fanout`` smallest keys, in
        time linear in the candidates: ``smallest_per_segment`` of
        ``_edge.c`` when the compiled library loaded, else
        :func:`_smallest_per_segment`; the two pick the same edges.
        Tie rule: equal keys rank by edge id, lowest first. A segment
        with ``p < fanout`` positive-weight candidates returns those
        ``p`` plus its ``fanout - p`` lowest-id zero-weight edges;
        all-zero weights return each segment's lowest ``fanout`` ids.

        Arguments are validated before the draw: a call that raises
        leaves ``rng`` where it was.
        """
        seeds = vertex_ids(seeds, self.num_nodes)
        weights = self._checked_weights(weights)
        return self._sample_edges(seeds, _checked_fanout(fanout), rng, weights)

    def _checked_weights(self, weights) -> np.ndarray | None:
        if weights is None:
            return None
        weights = np.asarray(weights)
        if weights.shape != self.indices.shape:
            raise ValueError(
                "weights must be per-edge: expected shape "
                f"{self.indices.shape}, got {weights.shape}"
            )
        return weights

    def _degrees(self, seeds: np.ndarray, fanout: int | None):
        """``(starts, deg, counts, over)`` of checked ``seeds``: each
        seed's first edge id and degree, the edges it keeps and whether
        that is fewer than its degree (a selection runs)."""
        starts = self.indptr[seeds]
        deg = self.indptr[seeds + 1] - starts
        counts = deg if fanout is None else np.minimum(deg, fanout)
        return starts, deg, counts, counts < deg

    def _sample_edges(self, seeds, fanout, rng, weights):
        """:meth:`sample_edges` on checked arguments: the NumPy side."""
        starts, deg, counts, over = self._degrees(seeds, fanout)
        # Every seed's leading ``counts`` edges: final at or under the
        # fan-out, overwritten below for the rest.
        eids = ragged_ranges(starts, counts)
        if not eids.size or not over.any():
            return eids, counts
        uniforms, positions = self._draw(starts[over], deg[over], fanout, rng, weights)
        if positions is None:
            positions = _floyd(uniforms, deg[over])
        picked = starts[over, None] + positions
        slots = np.cumsum(counts)[over, None] + np.arange(-fanout, 0)
        eids[slots.ravel()] = picked.ravel()
        return eids, counts

    def _draw(self, starts_o, deg_o, fanout, rng, weights):
        """The over-fan-out seeds' one draw, per :meth:`sample_edges`' RNG
        contract: ``(uniforms, None)``, ``fanout`` per seed for Floyd, or
        weighted, ``(None, positions)`` of each seed's ``fanout`` smallest
        keys. ``sample.candidates`` counts the uniforms drawn."""
        if weights is None:
            uniforms = rng.random((deg_o.shape[0], fanout))
            metrics().counter("sample.candidates").inc(uniforms.size)
            return uniforms, None
        w = np.asarray(weights[ragged_ranges(starts_o, deg_o)], np.float64)
        if not np.all(np.isfinite(w)) or (w < 0).any():
            raise ValueError(
                "sampling weights must be finite and non-negative"
            )
        keys = rng.random(w.shape[0])
        metrics().counter("sample.candidates").inc(keys.shape[0])
        # Exponential(1)/w races: the smallest k are a weighted k-subset
        # without replacement. Zero weight -> +inf key.
        with np.errstate(divide="ignore", invalid="ignore"):
            keys = -np.log1p(-keys) / w
        keys[w == 0.0] = np.inf
        fn = _edge.entry("smallest_per_segment", keys)
        if fn is None:
            return None, _smallest_per_segment(keys, deg_o, fanout)
        return None, _edge.run(
            fn, (deg_o.shape[0], fanout), np.int64, deg_o.shape[0], deg_o,
            keys.shape[0], keys, fanout, np.empty(fanout, keys.dtype),
        )

    def _scratch_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """This thread's ``(bits, ranks)`` for ``_edge.c``'s ``sample_hop``:
        a bit per vertex, zero between hops, and a source count per 64-bit
        word, ``n / 4`` bytes in all. Per thread, since rank threads sample
        one pattern at once and the call drops the GIL."""
        scratch = self._scratch
        if not hasattr(scratch, "bits"):
            words = (self.num_nodes + 63) >> 6
            scratch.bits = np.zeros(words, np.uint64)
            scratch.ranks = np.empty(words, np.int64)
        return scratch.bits, scratch.ranks


def _checked_fanout(fanout) -> int | None:
    if not is_fanout(fanout):
        raise ValueError(f"fanout must be an integer >= 0 (or None), got {fanout!r}")
    return None if fanout is None else int(fanout)


def _floyd(uniforms: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Floyd's sample: row ``s`` of ``uniforms`` (``(segments, k)``, in
    ``[0, 1)``) as ``k`` distinct positions in ``range(deg[s])``
    (each ``> k``), ascending along the row.

    Pick ``j`` is ``floor(u_j * (deg - k + j + 1))``, or ``deg - k + j``
    when an earlier pick took that position (Bentley & Floyd, CACM 1987):
    every k-subset equally likely from exactly ``k`` draws. Vectorised
    over segments, ``k`` rounds of an ``(segments, j)`` comparison. The
    NumPy side of the selection in ``_edge.c``'s ``sample_hop``, which
    picks the same positions from the same uniforms.
    """
    num_seg, k = uniforms.shape
    picks = np.empty((num_seg, k), dtype=np.int64)
    for j in range(k):
        room = deg - (k - 1 - j)
        t = (uniforms[:, j] * room).astype(np.int64)
        taken = (picks[:, :j] == t[:, None]).any(axis=1)
        picks[:, j] = np.where(taken, room - 1, t)
    picks.sort(axis=1)
    return picks


#: Degree classes are ``2 ** _CLASS_BITS`` wide, which bounds a padded
#: block's slots per candidate key.
_CLASS_BITS = 2


def _smallest_per_segment(keys: np.ndarray, lengths: np.ndarray, k: int) -> np.ndarray:
    """Within-segment positions of each segment's ``k`` smallest keys.

    ``keys`` concatenates segments of ``lengths`` (each ``> k >= 1``);
    the result is ``(segments, k)``, ascending along each row. Equal
    keys rank by position, lowest first, as a stable sort would. The
    NumPy side of ``_edge.c``'s ``smallest_per_segment``, which returns
    the same positions: the no-compiler path and its oracle.

    Linear in ``keys.size``: each degree class's keys fill one
    ``+inf``-padded ``(segments, width)`` block, ``np.partition``
    (introselect, no sort) finds each row's ``k``-th smallest key, and
    the ``<=`` mask read in row-major order is the winners, ascending.
    """
    num_seg = lengths.shape[0]
    order = np.arange(num_seg)
    bounds = [0, num_seg]
    if num_seg * int(lengths.max()) > keys.shape[0] << _CLASS_BITS:
        # One block over every segment would pad past the bound: bring
        # each degree class's segments (and their keys) together.
        cls = np.frexp(lengths)[1] // _CLASS_BITS
        order = np.argsort(cls, kind="stable")
        seg_starts = np.cumsum(lengths) - lengths
        lengths = lengths[order]
        keys = keys[ragged_ranges(seg_starts[order], lengths)]
        bounds[1:1] = np.flatnonzero(np.diff(cls[order])) + 1
    picked = np.empty((num_seg, k), dtype=np.int64)
    stop = 0
    for lo, hi in pairwise(bounds):
        seg_len = lengths[lo:hi]
        width = int(seg_len.max())
        start, stop = stop, stop + int(seg_len.sum())
        padded = np.full((hi - lo, width), np.inf)
        padded[np.arange(width) < seg_len[:, None]] = keys[start:stop]
        kth = np.partition(padded, k - 1, axis=1)[:, k - 1 : k]
        keep = padded <= kth
        if np.count_nonzero(keep) != (hi - lo) * k:
            # A row ties at its k-th key (zero weights, like padding,
            # hold +inf): the lowest positions fill the room left.
            below = padded < kth
            tied = padded == kth
            room = k - np.count_nonzero(below, axis=1, keepdims=True)
            keep = below | (tied & (np.cumsum(tied, axis=1) <= room))
        picked[order[lo:hi]] = (np.flatnonzero(keep) % width).reshape(-1, k)
    return picked


def sampling_graph_of(a: CSRMatrix) -> SamplingGraph:
    """The (interned) sampling structure of ``a``'s pattern.

    Built on first use and cached on the
    :class:`~repro.tensor.structure.PatternStructure`, so every matrix
    sharing the pattern — and every batch sampled from it — reuses one
    structure object.
    """
    structure = a.structure
    graph = structure._sampling_graph
    if graph is None:
        graph = SamplingGraph(structure)
        structure._sampling_graph = graph
        metrics().counter("sampling_graph.built").inc()
    else:
        metrics().counter("sampling_graph.hit").inc()
    return graph


# ----------------------------------------------------------------------
# Layered blocks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Block:
    """One hop's message-flow block over compacted local ids.

    ``matrix`` is a ``(num_dst, num_src)`` CSR whose row ``i`` holds the
    sampled in-edges of ``dst_nodes[i]``, columns local source ids.

    ``src_nodes`` are the hop's input vertices as **sorted global
    ids** (the compaction map is monotone); ``dst_positions`` indexes
    the destination vertices within ``src_nodes`` (ascending, so
    ``matrix.lift_rows(dst_positions)`` is the block in the square
    frame of its sources). A layer consumes features over ``src_nodes``
    and outputs one row per destination.
    """

    matrix: CSRMatrix
    src_nodes: np.ndarray
    dst_positions: np.ndarray
    sampled_edges: int

    @property
    def num_src(self) -> int:
        return int(self.src_nodes.shape[0])

    @property
    def dst_nodes(self) -> np.ndarray:
        """Global ids of this hop's destination vertices (sorted)."""
        return self.src_nodes[self.dst_positions]


def sample_one_hop(
    a: CSRMatrix,
    dst_nodes: np.ndarray,
    fanout: int | None,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> Block:
    """Sample one hop of in-edges for ``dst_nodes`` (sorted, unique).

    Edge values are gathered from ``a.data`` so weighted adjacencies
    sample their weights along with the topology. ``weights`` (an
    optional per-edge propensity array, see
    :meth:`SamplingGraph.sample_edges`) biases *which* edges survive a
    limited fan-out without touching the sampled edge values.
    """
    graph = sampling_graph_of(a)
    dst_nodes = vertex_ids(dst_nodes, graph.num_nodes, "dst_nodes")
    if np.any(np.diff(dst_nodes) <= 0):
        raise ValueError("dst_nodes must be strictly increasing")
    weights = graph._checked_weights(weights)
    return _hop(a, graph, dst_nodes, _checked_fanout(fanout), rng, weights)


def _hop(a, graph, dst, fanout, rng, weights) -> Block:
    """One hop on checked arguments: ``dst`` sorted, unique, in range.

    One ``_edge.c`` ``sample_hop`` call — selection, edge gather,
    compaction and local ids — when the library loaded and ``a.data`` is
    a float32 / float64 vector (the span gets ``backend="c"``), else
    :meth:`SamplingGraph._sample_edges` and one ``np.unique`` sort
    (``backend="numpy"``), which is the oracle: the blocks are equal,
    array for array.
    """
    fn = _edge.entry("sample_hop", a.data) if a.data.ndim == 1 else None
    tracer().annotate(backend="numpy" if fn is None else "c")
    num_dst = dst.shape[0]
    if fn is None:
        eids, counts = graph._sample_edges(dst, fanout, rng, weights)
        # One sort compacts the hop: the sorted distinct endpoints are the
        # (monotone) local id space, the inverse map their local ids.
        src_nodes, local = np.unique(np.concatenate((dst, a.indices[eids])), return_inverse=True)
        dst_positions, local_cols = local[:num_dst], local[num_dst:]
        indptr = np.zeros(num_dst + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        values = a.data[eids]
    else:
        starts, deg, counts, over = graph._degrees(dst, fanout)
        kept = int(counts.sum())
        uniforms = positions = None
        if kept and over.any():
            uniforms, positions = graph._draw(starts[over], deg[over], fanout, rng, weights)
        dst_positions = np.empty(num_dst, np.int64)
        indptr = np.empty(num_dst + 1, np.int64)
        local_cols = np.empty(kept, np.int64)
        values = np.empty(kept, a.data.dtype)
        src_nodes = np.empty(num_dst + kept, np.int64)
        num_src = _edge.run(
            fn, (1,), np.int64, graph.num_nodes, graph.indptr, graph.indices, a.data,
            num_dst, dst, -1 if fanout is None else fanout, uniforms, positions,
            *graph._scratch_arrays(), dst_positions, indptr, local_cols, values, src_nodes,
        )
        src_nodes = src_nodes[: num_src[0]]
    matrix = CSRMatrix(indptr, local_cols, values, (num_dst, src_nodes.shape[0]))
    metrics().counter("sample.hop").inc()
    return Block(
        matrix=matrix,
        src_nodes=src_nodes,
        dst_positions=dst_positions,
        sampled_edges=int(local_cols.shape[0]),
    )


def sample_blocks(
    a: CSRMatrix,
    targets: np.ndarray,
    fanouts: tuple[int | None, ...],
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> list[Block]:
    """Layered neighbour sampling for an L-layer model.

    Samples outward from the batch targets: the *last* block's
    destinations are ``unique(targets)``, each earlier block's
    destinations are the next block's source set (so
    ``blocks[l].dst_nodes == blocks[l + 1].src_nodes`` exactly — the
    inter-layer contract the mini-batch trainer relies on). Blocks are
    returned in **layer order**: ``blocks[0]`` feeds layer 0 and its
    ``src_nodes`` index the input features. The RNG is consumed from
    the output hop inward; one seed stream therefore reproduces the
    whole batch. ``weights`` (optional per-edge propensities) applies
    to every hop — see :meth:`SamplingGraph.sample_edges`. Arguments
    are checked once, before the first hop: each hop's destinations are
    the previous hop's sources, sorted and in range by construction.
    """
    if not fanouts:
        raise ValueError("need at least one fan-out (one per layer)")
    graph = sampling_graph_of(a)
    dst = np.unique(vertex_ids(targets, graph.num_nodes, "targets"))
    weights = graph._checked_weights(weights)
    fanouts = [_checked_fanout(fanout) for fanout in fanouts]
    blocks: list[Block] = []
    for fanout in reversed(fanouts):
        block = _hop(a, graph, dst, fanout, rng, weights)
        blocks.append(block)
        dst = block.src_nodes
    blocks.reverse()
    return blocks


def hub_bias_weights(a: CSRMatrix, power: float = 1.0) -> np.ndarray:
    """Per-edge propensities favouring high-degree source vertices.

    Weight of edge ``(i <- j)`` is ``deg(j) ** power`` (``deg`` counts
    stored entries of row ``j``) — the importance-sampling prior the
    serving engine uses to keep power-law hubs, whose activations are
    the most reusable cache entries, inside limited-fan-out ego
    batches. ``power=0`` reduces to uniform, negative powers bias
    toward the tail.
    """
    structure = a.structure
    deg = (structure.indptr[1:] - structure.indptr[:-1]).astype(np.float64)
    # Sources with no stored in-edges of their own count as degree 1 so
    # negative powers stay finite (weights must be finite to sample).
    return np.maximum(deg, 1.0)[a.indices] ** float(power)

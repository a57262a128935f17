"""Sampling substrate: seeded fan-out sampling and layered blocks.

Covers the edge cases the mini-batch engine must survive — zero-degree
seeds, fan-outs exceeding the degree (no replacement, so no duplicate
edges), entirely empty hop blocks flowing through the fused megakernel —
plus a hypothesis property test that the local-id compaction round-trips
to the global adjacency exactly (topology *and* edge values).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.layer import DagLayer
from repro.graphs import powerlaw_graph, prepare_adjacency
from repro.models.base import GnnModel
from repro.obs.metrics import metrics
from repro.tensor import _edge
from repro.tensor.csr import CSRMatrix
from repro.tensor.sampling_graph import (
    _CLASS_BITS,
    _floyd,
    _smallest_per_segment,
    hub_bias_weights,
    sample_blocks,
    sample_one_hop,
    sampling_graph_of,
    vertex_ids,
)
from repro.training.minibatch import backward_blocks, forward_blocks
from tests.conftest import random_csr
from tests.reference_sampler import reference_sample_edges
from tests.test_edge_kernels import _needs_c, needs_c  # noqa: F401


@pytest.fixture(scope="module")
def e2e_graph() -> CSRMatrix:
    """The ``sampled_train`` shape: power-law n = 2^15, m = 8n."""
    n = 1 << 15
    return prepare_adjacency(powerlaw_graph(n, 8 * n, seed=0))


@pytest.fixture(scope="module")
def holey_adjacency() -> CSRMatrix:
    """A 24-vertex square CSR with several zero-degree rows."""
    rng = np.random.default_rng(11)
    dense = (rng.random((24, 24)) < 0.25).astype(np.float64)
    dense *= rng.normal(1.0, 0.3, (24, 24))
    dense[[3, 10, 23], :] = 0.0  # isolated as destinations
    return CSRMatrix.from_dense(dense)


class TestSamplingGraph:
    def test_interned_on_the_pattern(self, small_adjacency):
        g1 = sampling_graph_of(small_adjacency)
        g2 = sampling_graph_of(small_adjacency)
        assert g1 is g2
        # Index arrays are shared with the pattern, not copied.
        assert g1.indptr is small_adjacency.structure.indptr
        assert g1.indices is small_adjacency.structure.indices

    def test_shared_across_matrices_with_same_pattern(self, small_adjacency):
        other = small_adjacency.with_data(
            np.arange(small_adjacency.nnz, dtype=np.float64)
        )
        assert sampling_graph_of(other) is sampling_graph_of(small_adjacency)

    def test_rejects_rectangular_patterns(self, rng):
        rect = random_csr(rng, 6, 9)
        with pytest.raises(ValueError, match="square"):
            sampling_graph_of(rect)

    def test_seed_out_of_range(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        rng = np.random.default_rng(0)
        for bad in ([graph.num_nodes], [-1]):
            with pytest.raises(ValueError, match="out of range"):
                graph.sample_edges(np.array(bad), 2, rng)
            with pytest.raises(ValueError, match="out of range"):
                sample_one_hop(small_adjacency, np.array(bad), 2, rng)

    @pytest.mark.parametrize("bad", [[2.7, 4.2], [True], np.array([True, False])],
                             ids=["fractions", "bool", "bool-mask"])
    def test_ids_are_neither_truncated_nor_read_from_bools(self, small_adjacency, bad):
        """An int64 cast used to sample vertices 2 and 4 for ``[2.7, 4.2]``
        and read ``[True]`` as vertex 1: every entry point refuses both."""
        graph = sampling_graph_of(small_adjacency)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for call in (lambda: graph.sample_edges(np.array(bad), 2, rng),
                     lambda: sample_one_hop(small_adjacency, np.array(bad), 2, rng),
                     lambda: sample_blocks(small_adjacency, np.array(bad), (2, 2), rng)):
            with pytest.raises(ValueError, match="integer vertex ids"):
                call()
        assert rng.bit_generator.state == state

    def test_vertex_ids_keep_order_and_widen(self):
        ids = vertex_ids(np.array([4, 0, 4, 2], dtype=np.uint8), 5, "ids")
        assert ids.dtype == np.int64 and ids.tolist() == [4, 0, 4, 2]
        assert vertex_ids([], 5).dtype == np.int64
        with pytest.raises(ValueError, match="targets must be integer vertex ids"):
            vertex_ids([0, 5], 5, "targets")

    def test_seeds_must_be_one_dimensional(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        rng = np.random.default_rng(0)
        square = np.array([[0, 1], [2, 3]])
        with pytest.raises(ValueError, match=r"seeds must be a 1-D array.*\(2, 2\)"):
            graph.sample_edges(square, 2, rng)
        with pytest.raises(ValueError, match="seeds must be a 1-D array"):
            graph.sample_edges(np.int64(3), 2, rng)
        with pytest.raises(ValueError, match="dst_nodes must be a 1-D array"):
            sample_one_hop(small_adjacency, square, 2, rng)


class TestSampleEdges:
    def test_counts_are_degree_capped(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        eids, counts = graph.sample_edges(seeds, 3, np.random.default_rng(1))
        assert np.array_equal(counts, np.minimum(np.diff(graph.indptr)[seeds], 3))
        assert eids.shape[0] == int(counts.sum())

    def test_no_duplicates_within_a_seed(self, small_adjacency):
        # Without replacement: every seed's segment holds distinct,
        # ascending edge ids drawn from that seed's own CSR slice.
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        eids, counts = graph.sample_edges(seeds, 4, np.random.default_rng(2))
        offset = 0
        for seed, count in zip(seeds, counts):
            segment = eids[offset : offset + count]
            offset += count
            assert np.all(np.diff(segment) > 0)  # unique and ascending
            assert np.all(segment >= graph.indptr[seed])
            assert np.all(segment < graph.indptr[seed + 1])

    def test_fanout_above_degree_takes_full_slice(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        degrees = np.diff(graph.indptr)[seeds]
        huge = int(degrees.max()) + 5
        rng = np.random.default_rng(3)
        state_before = rng.bit_generator.state
        eids, counts = graph.sample_edges(seeds, huge, rng)
        assert np.array_equal(counts, degrees)
        assert np.array_equal(
            eids, np.arange(small_adjacency.nnz, dtype=np.int64)
        )
        # Full-neighbour sampling never consults the RNG, so a stream
        # shared across hops stays aligned regardless of fan-out slack.
        assert rng.bit_generator.state == state_before

    def test_fanout_none_is_unlimited(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        eids, counts = graph.sample_edges(
            seeds, None, np.random.default_rng(4)
        )
        assert np.array_equal(counts, np.diff(graph.indptr)[seeds])
        assert eids.shape[0] == small_adjacency.nnz

    def test_zero_fanout(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        eids, counts = graph.sample_edges(
            np.array([0, 1], dtype=np.int64), 0, np.random.default_rng(5)
        )
        assert eids.shape == (0,)
        assert np.array_equal(counts, [0, 0])

    def test_negative_fanout_rejected(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        with pytest.raises(ValueError, match="fanout"):
            graph.sample_edges(
                np.array([0], dtype=np.int64), -1, np.random.default_rng(6)
            )

    @pytest.mark.parametrize("fanout", [3.7, True, "3", float("nan")])
    def test_non_integer_fanout_rejected_not_truncated(self, fanout):
        """``int(3.7)`` used to sample 3 per row and ``True`` 1."""
        from repro.graphs import erdos_renyi, prepare_adjacency

        graph = sampling_graph_of(prepare_adjacency(erdos_renyi(64, 600, seed=1)))
        with pytest.raises(ValueError, match="fanout"):
            graph.sample_edges(np.arange(8, dtype=np.int64), fanout, np.random.default_rng(6))

    def test_seeded_streams_reproduce(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        a1, _ = graph.sample_edges(seeds, 2, np.random.default_rng(7))
        a2, _ = graph.sample_edges(seeds, 2, np.random.default_rng(7))
        b, _ = graph.sample_edges(seeds, 2, np.random.default_rng(8))
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)  # different seed, different draw

    def test_every_neighbour_reachable(self, small_adjacency):
        # Sub-fan-out draws are uniform subsets: across repeated draws
        # every neighbour of a high-degree seed eventually appears.
        graph = sampling_graph_of(small_adjacency)
        seed = int(np.argmax(np.diff(graph.indptr)))
        lo, hi = graph.indptr[seed], graph.indptr[seed + 1]
        rng = np.random.default_rng(9)
        seen: set[int] = set()
        for _ in range(60):
            eids, _ = graph.sample_edges(np.array([seed]), 2, rng)
            seen.update(int(e) for e in eids)
        assert seen == set(range(int(lo), int(hi)))


class TestSampleOneHop:
    def test_rejects_unsorted_or_duplicate_dst(self, small_adjacency):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="strictly increasing"):
            sample_one_hop(small_adjacency, np.array([3, 1]), 2, rng)
        with pytest.raises(ValueError, match="strictly increasing"):
            sample_one_hop(small_adjacency, np.array([2, 2]), 2, rng)

    def test_zero_degree_seeds(self, holey_adjacency):
        dst = np.array([3, 10, 23], dtype=np.int64)
        block = sample_one_hop(
            holey_adjacency, dst, 4, np.random.default_rng(1)
        )
        # Isolated destinations still appear in the source set (their
        # own features flow forward); their rows are simply empty.
        assert np.array_equal(block.src_nodes, dst)
        assert np.array_equal(block.dst_nodes, dst)
        assert block.matrix.nnz == 0
        assert block.sampled_edges == 0

    def test_full_fanout_all_vertices_is_the_adjacency(self, small_adjacency):
        n = small_adjacency.shape[0]
        block = sample_one_hop(
            small_adjacency,
            np.arange(n, dtype=np.int64),
            None,
            np.random.default_rng(2),
        )
        # The bit-identity anchor: compaction is the identity map and
        # the block *is* the adjacency, arrays equal element for element.
        assert np.array_equal(block.src_nodes, np.arange(n))
        assert np.array_equal(block.dst_positions, np.arange(n))
        assert np.array_equal(block.matrix.indptr, small_adjacency.indptr)
        assert np.array_equal(block.matrix.indices, small_adjacency.indices)
        assert np.array_equal(block.matrix.data, small_adjacency.data)

    def test_edge_values_travel_with_the_topology(self, small_adjacency):
        weighted = small_adjacency.with_data(
            np.arange(1.0, small_adjacency.nnz + 1, dtype=np.float64)
        )
        dst = np.arange(0, weighted.shape[0], 5, dtype=np.int64)
        block = sample_one_hop(weighted, dst, 3, np.random.default_rng(3))
        m = block.matrix
        for r, g in enumerate(block.dst_nodes):
            lo, hi = m.indptr[r], m.indptr[r + 1]
            cols = block.src_nodes[m.indices[lo:hi]]
            row_cols = weighted.indices[
                weighted.indptr[g] : weighted.indptr[g + 1]
            ]
            row_vals = weighted.data[
                weighted.indptr[g] : weighted.indptr[g + 1]
            ]
            pos = np.searchsorted(row_cols, cols)
            assert np.array_equal(row_cols[pos], cols)
            assert np.array_equal(m.data[lo:hi], row_vals[pos])


class TestSampleBlocks:
    def test_layer_contract(self, small_adjacency):
        blocks = sample_blocks(
            small_adjacency,
            np.array([4, 9, 40]),
            (3, 2),
            np.random.default_rng(0),
        )
        assert len(blocks) == 2
        assert np.array_equal(blocks[1].dst_nodes, [4, 9, 40])
        # Inter-layer contract: each hop's destinations are exactly the
        # next hop's sources (same values, the trainer chains on it).
        assert np.array_equal(blocks[0].dst_nodes, blocks[1].src_nodes)

    def test_targets_deduplicated_and_sorted(self, small_adjacency):
        blocks = sample_blocks(
            small_adjacency,
            np.array([12, 4, 12, 4, 30]),
            (2,),
            np.random.default_rng(1),
        )
        assert np.array_equal(blocks[-1].dst_nodes, [4, 12, 30])

    def test_empty_target_set(self, small_adjacency):
        blocks = sample_blocks(
            small_adjacency, np.array([], dtype=np.int64), (2, 2),
            np.random.default_rng(2),
        )
        assert [b.num_src for b in blocks] == [0, 0]
        assert [b.matrix.shape for b in blocks] == [(0, 0), (0, 0)]

    def test_needs_at_least_one_fanout(self, small_adjacency):
        with pytest.raises(ValueError, match="at least one"):
            sample_blocks(
                small_adjacency, np.array([0]), (), np.random.default_rng(3)
            )

    def test_one_stream_reproduces_the_whole_batch(self, small_adjacency):
        targets = np.array([1, 2, 3, 20, 21])
        first = sample_blocks(
            small_adjacency, targets, (2, 3), np.random.default_rng(6)
        )
        second = sample_blocks(
            small_adjacency, targets, (2, 3), np.random.default_rng(6)
        )
        for b1, b2 in zip(first, second):
            assert np.array_equal(b1.matrix.indptr, b2.matrix.indptr)
            assert np.array_equal(b1.matrix.indices, b2.matrix.indices)
            assert np.array_equal(b1.src_nodes, b2.src_nodes)


class TestEmptyBlocksThroughMegakernel:
    """Zero-edge hop blocks must survive the fused attention chain."""

    def test_isolated_seeds_forward_and_backward(self, holey_adjacency):
        targets = np.array([3, 10, 23], dtype=np.int64)
        blocks = sample_blocks(
            holey_adjacency, targets, (4, 4), np.random.default_rng(0)
        )
        assert all(b.matrix.nnz == 0 for b in blocks)
        model = GnnModel([
            DagLayer("gat", 5, 6, seed=0, fused=True, dtype=np.float64),
            DagLayer("gat", 6, 4, seed=1, fused=True,
                     activation="identity", dtype=np.float64),
        ])
        h0 = np.random.default_rng(1).normal(size=(blocks[0].num_src, 5))
        out, caches = forward_blocks(model, blocks, h0)
        assert out.shape == (3, 4)
        assert np.all(np.isfinite(out))
        grads = backward_blocks(
            model, blocks, caches, np.ones_like(out)
        )
        for layer_grads in grads:
            for grad in layer_grads.values():
                assert np.all(np.isfinite(grad))

    def test_zero_fanout_blocks_run_fused(self, small_adjacency):
        # fanout=0 keeps only the (empty) self rows: the degenerate but
        # legal "no neighbours at all" configuration.
        blocks = sample_blocks(
            small_adjacency.astype(np.float64),
            np.array([0, 1, 2]), (0,), np.random.default_rng(0),
        )
        model = GnnModel(
            [DagLayer("agnn", 4, 4, seed=0, fused=True, dtype=np.float64)]
        )
        h0 = np.random.default_rng(2).normal(size=(blocks[0].num_src, 4))
        out, _ = forward_blocks(model, blocks, h0)
        assert out.shape == (3, 4)
        assert np.all(np.isfinite(out))


class TestCompactionProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(4, 32),
        fanout=st.integers(1, 5),
        layers=st.integers(1, 3),
    )
    def test_round_trip_to_global_adjacency(self, seed, n, fanout, layers):
        """Every block edge maps back to a real global edge (with its
        value), counts honour ``min(degree, fanout)``, the compaction
        map is monotone, and the block has exactly one row per
        destination."""
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.25).astype(np.float64)
        dense *= rng.normal(1.0, 0.4, (n, n))
        a = CSRMatrix.from_dense(dense)
        targets = rng.choice(n, size=int(rng.integers(1, n + 1)),
                             replace=False)
        blocks = sample_blocks(a, targets, (fanout,) * layers, rng)
        assert len(blocks) == layers
        dst_expect = np.unique(targets)
        for block in reversed(blocks):
            assert np.array_equal(block.dst_nodes, dst_expect)
            assert np.all(np.diff(block.src_nodes) > 0)  # monotone map
            m = block.matrix
            assert m.shape == (block.dst_positions.shape[0], block.num_src)
            for r, g_dst in enumerate(block.dst_nodes):
                lo, hi = m.indptr[r], m.indptr[r + 1]
                local = m.indices[lo:hi]
                global_src = block.src_nodes[local]
                # local -> global -> local is the identity
                assert np.array_equal(
                    np.searchsorted(block.src_nodes, global_src), local
                )
                row = slice(a.indptr[g_dst], a.indptr[g_dst + 1])
                row_cols = a.indices[row]
                assert hi - lo == min(row_cols.shape[0], fanout)
                pos = np.searchsorted(row_cols, global_src)
                assert np.array_equal(row_cols[pos], global_src)
                assert np.array_equal(m.data[lo:hi], a.data[row][pos])
            assert m.indptr.shape == (block.dst_positions.shape[0] + 1,)
            assert m.indptr[-1] == m.nnz == block.sampled_edges
            dst_expect = block.src_nodes


class TestWeightedSampling:
    """Importance sampling (per-edge propensities) on the same substrate."""

    def test_unweighted_path_bit_identical_with_uniform_weights_absent(
        self, small_adjacency
    ):
        # Passing weights=None must be the exact historical stream; the
        # weighted code path only engages when an array is supplied.
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        a1, _ = graph.sample_edges(seeds, 2, np.random.default_rng(7))
        a2, _ = graph.sample_edges(
            seeds, 2, np.random.default_rng(7), None
        )
        assert np.array_equal(a1, a2)

    def test_full_fanout_never_consults_weights_or_rng(
        self, small_adjacency
    ):
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        weights = np.random.default_rng(0).random(small_adjacency.nnz)
        rng = np.random.default_rng(5)
        state_before = rng.bit_generator.state
        eids, counts = graph.sample_edges(seeds, None, rng, weights)
        assert rng.bit_generator.state == state_before
        # Full fan-out is the identity gather regardless of weights.
        assert np.array_equal(eids, np.arange(small_adjacency.nnz))
        assert np.array_equal(
            counts, np.diff(small_adjacency.indptr)
        )

    def test_seeded_weighted_draws_reproduce(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        weights = np.random.default_rng(1).random(small_adjacency.nnz)
        a1, _ = graph.sample_edges(
            seeds, 2, np.random.default_rng(7), weights
        )
        a2, _ = graph.sample_edges(
            seeds, 2, np.random.default_rng(7), weights
        )
        assert np.array_equal(a1, a2)

    def test_zero_weight_edges_lose_to_positive_ones(self, small_adjacency):
        # Zero-weight edges draw an infinite race key: whenever a seed
        # has >= fanout positive-weight candidates, no zero-weight edge
        # is ever selected for it.
        graph = sampling_graph_of(small_adjacency)
        fanout = 2
        rng = np.random.default_rng(0)
        weights = np.ones(small_adjacency.nnz)
        dead = rng.random(small_adjacency.nnz) < 0.3
        weights[dead] = 0.0
        deg = np.diff(small_adjacency.indptr)
        alive_per_seed = np.zeros(graph.num_nodes, dtype=np.int64)
        for v in range(graph.num_nodes):
            row = slice(
                small_adjacency.indptr[v], small_adjacency.indptr[v + 1]
            )
            alive_per_seed[v] = int(np.count_nonzero(weights[row]))
        seeds = np.flatnonzero(
            (alive_per_seed >= fanout) & (deg > fanout)
        ).astype(np.int64)
        assert seeds.size  # the graph is dense enough for this regime
        for trial in range(20):
            eids, _ = graph.sample_edges(
                seeds, fanout, np.random.default_rng(trial), weights
            )
            assert np.all(weights[eids] > 0.0)

    def test_heavier_edges_sampled_more_often(self, small_adjacency):
        # Bias sanity: give one neighbour of a high-degree seed 50x the
        # weight of its siblings; it must dominate repeated draws.
        graph = sampling_graph_of(small_adjacency)
        deg = np.diff(small_adjacency.indptr)
        seed = int(np.argmax(deg))
        lo, hi = (
            int(small_adjacency.indptr[seed]),
            int(small_adjacency.indptr[seed + 1]),
        )
        assert hi - lo >= 3
        weights = np.ones(small_adjacency.nnz)
        favoured = lo
        weights[favoured] = 50.0
        hits = 0
        trials = 200
        for trial in range(trials):
            eids, _ = graph.sample_edges(
                np.array([seed]), 1, np.random.default_rng(trial), weights
            )
            hits += int(eids[0] == favoured)
        # P(favoured) = 50 / (49 + deg); with deg <= 60 that is > 0.45,
        # while uniform would be 1/deg < 0.17. Split the difference.
        assert hits / trials > 0.3

    def test_invalid_weights_rejected(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="per-edge"):
            graph.sample_edges(
                seeds, 2, rng, np.ones(small_adjacency.nnz - 1)
            )
        bad = np.ones(small_adjacency.nnz)
        bad[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            graph.sample_edges(seeds, 1, rng, bad)
        bad[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            graph.sample_edges(seeds, 1, rng, bad)

    def test_hub_bias_weights_values(self, small_adjacency):
        weights = hub_bias_weights(small_adjacency)
        deg = np.maximum(
            np.diff(small_adjacency.indptr), 1
        ).astype(np.float64)
        assert np.array_equal(weights, deg[small_adjacency.indices])

    def test_weighted_blocks_keep_the_layer_contract(self, small_adjacency):
        weights = hub_bias_weights(small_adjacency)
        rng = np.random.default_rng(3)
        targets = np.arange(0, small_adjacency.shape[0], 4)
        blocks = sample_blocks(
            small_adjacency, targets, (2, 2), rng, weights
        )
        assert np.array_equal(
            blocks[0].dst_nodes, blocks[1].src_nodes
        )
        # Every sampled edge is a real global edge with its value.
        for block in blocks:
            m = block.matrix
            for r, g_dst in enumerate(block.dst_nodes):
                local = m.indices[m.indptr[r]:m.indptr[r + 1]]
                global_src = block.src_nodes[local]
                row = slice(
                    small_adjacency.indptr[g_dst],
                    small_adjacency.indptr[g_dst + 1],
                )
                assert np.all(
                    np.isin(global_src, small_adjacency.indices[row])
                )


# ----------------------------------------------------------------------
# Linear-time selection vs. the lexsort oracle
# ----------------------------------------------------------------------
#: Row degrees every generated pattern contains: empty, at / around the
#: fan-outs under test, one per degree class up to a hub >= 2**12.
ANCHOR_DEGREES = (0, 1, 2, 8, 9, 70, 600, 2**12 + 5)
EXTRA_DEGREES = (0, 1, 2, 3, 8, 9, 17, 33, 130, 1100)
PATTERN_COLS = 2**12 + 64


def _ragged_pattern(rng: np.random.Generator, degrees) -> CSRMatrix:
    """Square CSR whose leading rows have exactly ``degrees`` entries
    (sorted distinct columns); the remaining rows are empty."""
    n = PATTERN_COLS
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1 : len(degrees) + 1] = np.cumsum(degrees)
    indptr[len(degrees) + 1 :] = indptr[len(degrees)]
    indices = np.concatenate(
        [np.sort(rng.choice(n, size=d, replace=False)) for d in degrees]
    ).astype(np.int64)
    return CSRMatrix(indptr, indices, np.ones(indices.shape[0]), (n, n))


def _assert_matches_oracle(graph, seeds, fanout, weights, seed=0):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    eids, counts = graph.sample_edges(seeds, fanout, rng, weights)
    ref_eids, ref_counts = reference_sample_edges(
        graph, seeds, fanout, rng_ref, weights
    )
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(eids, ref_eids)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    return eids, counts


class TestSelectionParity:
    """``sample_edges`` == PR 8's full-sort selection, stream included."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        extra=st.lists(st.sampled_from(EXTRA_DEGREES), max_size=12),
        picks=st.lists(st.integers(0, 10**6), max_size=24),
        fanout=st.sampled_from([0, 1, 2, 8, None, "max"]),
        weighting=st.sampled_from(
            [None, "positive", "some_zeros", "zero_segments"]
        ),
    )
    def test_same_edges_counts_and_stream(
        self, seed, extra, picks, fanout, weighting
    ):
        rng = np.random.default_rng(seed)
        degrees = np.array(ANCHOR_DEGREES + tuple(extra), dtype=np.int64)
        rng.shuffle(degrees)
        a = _ragged_pattern(rng, degrees)
        graph = sampling_graph_of(a)
        rows = degrees.shape[0]
        if fanout == "max":
            fanout = int(degrees.max()) + int(rng.integers(0, 2))
        # Arbitrary rows (repeats allowed), plus each anchor twice: so
        # degree 0, = fan-out and > fan-out all appear and repeat.
        seeds = np.concatenate(
            [np.array(picks, dtype=np.int64) % rows,
             np.flatnonzero(np.isin(degrees, ANCHOR_DEGREES)),
             rng.integers(0, rows, size=4)]
        )
        seeds = rng.permutation(np.concatenate([seeds, seeds[:6]]))
        weights = None
        if weighting is not None:
            weights = rng.random(a.nnz) + 0.05
            if weighting == "some_zeros":
                weights[rng.random(a.nnz) < 0.6] = 0.0
            elif weighting == "zero_segments":
                for row in rng.choice(rows, size=3, replace=False):
                    weights[a.indptr[row] : a.indptr[row + 1]] = 0.0
        _assert_matches_oracle(graph, seeds, fanout, weights, seed)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_e2e_shape_two_hops(self, e2e_graph, weighted):
        a = e2e_graph
        graph = sampling_graph_of(a)
        weights = hub_bias_weights(a) if weighted else None
        targets = np.random.default_rng([0, 2]).choice(
            a.shape[0], size=256, replace=False
        )
        blocks = sample_blocks(
            a, targets, (8, 8), np.random.default_rng(0), weights
        )
        # Hop 1 seeds are the targets, hop 2 seeds hop 1's sources —
        # hubs (degree in the thousands) among them.
        sampled = 0
        for hop_seeds in (blocks[1].dst_nodes, blocks[1].src_nodes):
            eids, _ = _assert_matches_oracle(graph, hop_seeds, 8, weights)
            sampled += eids.shape[0]
        assert np.diff(graph.indptr)[blocks[1].src_nodes].max() > 2**10
        assert sampled == sum(b.sampled_edges for b in blocks)


class TestTieRule:
    """Equal keys rank by edge id: zero-weight edges (key +inf) fill a
    short segment from its lowest edge ids."""

    FANOUT = 5

    @pytest.fixture(scope="class")
    def graph_and_row(self):
        rng = np.random.default_rng(4)
        a = _ragged_pattern(rng, np.array([3, 12, 40, 2**12 + 5, 7]))
        return sampling_graph_of(a), a

    @pytest.mark.parametrize("positive_at", [(), (7,), (3, 6, 8, 11)])
    def test_short_segments_fill_from_lowest_ids(
        self, graph_and_row, positive_at
    ):
        graph, a = graph_and_row
        start = int(a.indptr[1])  # row 1: degree 12
        weights = np.zeros(a.nnz)
        weights[start + np.array(positive_at, dtype=np.int64)] = 1.0
        eids, counts = _assert_matches_oracle(
            graph, np.array([1]), self.FANOUT, weights
        )
        zeros = [j for j in range(12) if j not in positive_at]
        fill = zeros[: self.FANOUT - len(positive_at)]
        expect = start + np.array(sorted([*positive_at, *fill]))
        assert np.array_equal(eids, expect)
        assert np.array_equal(counts, [self.FANOUT])

    def test_all_zero_weights_take_lowest_edge_ids(self, graph_and_row):
        graph, a = graph_and_row
        seeds = np.array([3, 0, 1, 2, 4, 3])  # hub twice, every class
        eids, counts = _assert_matches_oracle(
            graph, seeds, self.FANOUT, np.zeros(a.nnz)
        )
        expect = np.concatenate(
            [a.indptr[s] + np.arange(c) for s, c in zip(seeds, counts)]
        )
        assert np.array_equal(eids, expect)


def _c_selection(keys, lengths, k):
    """``_edge.c``'s ``smallest_per_segment``, called as ``sample_edges`` does."""
    fn = _edge.entry("smallest_per_segment", keys)
    return _edge.run(fn, (lengths.shape[0], k), np.int64, lengths.shape[0],
                     lengths, keys.shape[0], keys, k, np.empty(k))


@needs_c
class TestCompiledSelection:
    """``_edge.c``'s ``smallest_per_segment`` == ``_smallest_per_segment``,
    position for position, on both of the NumPy side's paths."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.sampled_from([1, 2, 8, 65, 100]),
        # Segment lengths in [k + 1, 4 (k + 1)]: one padded block; plus a hub
        # >= 2**12 beside at least six of them: the degree-class blocks.
        spans=st.lists(st.integers(0, 3), min_size=1, max_size=16),
        hub=st.booleans(),
        ties=st.sampled_from(["distinct", "coarse", "some_inf", "inf_segments"]),
    )
    def test_same_positions(self, seed, k, spans, hub, ties):
        rng = np.random.default_rng(seed)
        lengths = (k + 1) * (1 + np.array(spans)) - rng.integers(0, k + 1, len(spans)) * (
            np.array(spans) > 0)
        if hub:
            lengths = np.concatenate([lengths, np.full(max(0, 6 - len(spans)), k + 1),
                                      [2**12 + int(rng.integers(0, 64))]])
        lengths = rng.permutation(lengths).astype(np.int64)
        keys = rng.random(int(lengths.sum()))
        if ties == "coarse":
            keys = np.floor(keys * 4) / 4
        elif ties == "some_inf":
            keys[rng.random(keys.shape[0]) < 0.7] = np.inf
        elif ties == "inf_segments":  # all-zero-weight seeds: the lowest k
            starts = np.cumsum(lengths) - lengths
            for s in rng.choice(lengths.shape[0], size=(lengths.shape[0] + 1) // 2,
                                replace=False):
                keys[starts[s]:starts[s] + lengths[s]] = np.inf
        classes = lengths.shape[0] * int(lengths.max()) > keys.shape[0] << _CLASS_BITS
        assert classes == hub  # the NumPy side's path this example covers
        got = _c_selection(keys, lengths, k)
        assert np.array_equal(got, _smallest_per_segment(keys, lengths, k))
        assert np.all(np.diff(got, axis=1) > 0)

    @pytest.mark.parametrize("lengths, k", [
        ([3, 3], 2),  # one key short of the key count (7)
        ([3, 5], 2),  # one key past it
        ([3, 2, 2], 2),  # a segment no longer than k
        ([3, 4], 0),  # k < 1
    ])
    def test_inconsistent_lengths_are_refused(self, lengths, k):
        with pytest.raises(ValueError, match="smallest_per_segment: segment lengths"):
            _c_selection(np.zeros(7), np.array(lengths, np.int64), k)


class TestFloyd:
    """The uniform selection: Floyd's k draws per seed."""

    @pytest.mark.parametrize("deg, k", [(5, 2), (6, 3), (7, 1), (6, 5)])
    def test_every_k_subset_equally_likely(self, deg, k):
        """Chi-square over every k-subset of one seed's ``deg`` edges,
        drawn 200 times each in one call (the seed repeated)."""
        from itertools import combinations

        from scipy.stats import chisquare

        indptr = np.full(deg + 1, deg, dtype=np.int64)
        indptr[0] = 0  # row 0 holds every column, the rest are empty
        graph = sampling_graph_of(CSRMatrix(indptr, np.arange(deg), np.ones(deg), (deg, deg)))
        subsets = {s: i for i, s in enumerate(combinations(range(deg), k))}
        draws = 200 * len(subsets)
        eids, counts = graph.sample_edges(np.zeros(draws, np.int64), k,
                                          np.random.default_rng(deg * 10 + k))
        assert np.all(counts == k)
        rows = eids.reshape(draws, k)
        assert np.all(np.diff(rows, axis=1) > 0)  # sorted and distinct
        seen = np.bincount([subsets[tuple(r)] for r in rows.tolist()], minlength=len(subsets))
        assert seen.min() > 0
        assert chisquare(seen).pvalue > 1e-3

    @pytest.mark.parametrize("deg", [9, 4101, 10**6, 2**40, 2**53 - 1])
    def test_the_largest_uniform_maps_into_range(self, deg):
        """``u = nextafter(1, 0)`` is the largest ``rng.random`` value: each
        pick is then the top of its range, ``deg - k + j``, never ``deg``."""
        k = 8
        top = np.full((3, k), np.nextafter(1.0, 0.0))
        picks = _floyd(top, np.full(3, deg, np.int64))
        assert np.array_equal(picks, np.broadcast_to(np.arange(deg - k, deg), (3, k)))

    def test_matches_the_scalar_loop(self):
        """Repeats within a row take the top of the range; the vectorised
        rounds equal the scalar loop of ``tests/reference_sampler.py``."""
        rng = np.random.default_rng(3)
        deg = rng.integers(9, 40, size=500)
        u = rng.random((500, 8))
        picks = _floyd(u, deg)
        for row, d, got in zip(u, deg, picks):
            chosen: set[int] = set()
            for j, top in enumerate(range(int(d) - 8, int(d))):
                t = int(row[j] * (top + 1))
                chosen.add(top if t in chosen else t)
            assert got.tolist() == sorted(chosen)


class _Uniforms:
    """A stand-in generator whose every uniform is ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


@contextlib.contextmanager
def _numpy_side():
    """The loader answering "no library" for the block: the NumPy hop."""
    saved = _edge._state
    _edge._state = (None, "the NumPy side, for comparison")
    try:
        yield
    finally:
        _edge._state = saved


def _assert_same_blocks(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.sampled_edges == w.sampled_edges
        for name in ("src_nodes", "dst_positions"):
            assert getattr(g, name).dtype == getattr(w, name).dtype
            assert np.array_equal(getattr(g, name), getattr(w, name)), name
        assert g.matrix.shape == w.matrix.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(g.matrix, name).dtype == getattr(w.matrix, name).dtype
            assert np.array_equal(getattr(g.matrix, name), getattr(w.matrix, name)), name


@needs_c
class TestCompiledHop:
    """``_edge.c``'s ``sample_hop`` == the NumPy hop (``_sample_edges``
    and one ``np.unique``), block for block, stream included."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        extra=st.lists(st.sampled_from(EXTRA_DEGREES), max_size=12),
        fanout=st.sampled_from([0, 1, 2, 8, 65, 100, None]),
        weighted=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
        empty_rows=st.integers(0, 3),
    )
    def test_same_blocks(self, seed, extra, fanout, weighted, dtype, empty_rows):
        rng = np.random.default_rng(seed)
        degrees = np.array(ANCHOR_DEGREES + tuple(extra), dtype=np.int64)
        rng.shuffle(degrees)
        a = _ragged_pattern(rng, degrees)
        a = a.with_data(rng.normal(size=a.nnz).astype(dtype))
        rows = np.arange(degrees.shape[0])
        dst = np.union1d(rng.choice(rows, size=int(rng.integers(1, rows.shape[0] + 1)),
                                    replace=False),
                         # rows past the degree list are empty, far apart
                         rng.choice(np.arange(rows.shape[0], a.shape[0]), size=empty_rows,
                                    replace=False))
        weights = rng.random(a.nnz) + 0.05 if weighted else None
        got = sample_one_hop(a, dst, fanout, c_rng := np.random.default_rng(seed), weights)
        with _numpy_side():
            want = sample_one_hop(a, dst, fanout, np_rng := np.random.default_rng(seed), weights)
        _assert_same_blocks([got], [want])
        assert c_rng.bit_generator.state == np_rng.bit_generator.state

    @pytest.mark.parametrize("weighted", [False, True])
    def test_same_blocks_on_the_e2e_shape(self, e2e_graph, weighted):
        weights = hub_bias_weights(e2e_graph) if weighted else None

        def draw():
            rng = np.random.default_rng(1)
            return [sample_blocks(e2e_graph, rng.choice(e2e_graph.shape[0], 256, replace=False),
                                  (8, 8), rng, weights) for _ in range(4)]

        compiled = draw()
        with _numpy_side():
            for got, want in zip(compiled, draw(), strict=True):
                _assert_same_blocks(got, want)

    def test_the_largest_uniform_keeps_the_last_edges(self):
        rng = np.random.default_rng(5)
        degrees = np.array([3, 12, 2**12 + 5, 9, 0])
        a = _ragged_pattern(rng, degrees)
        dst = np.arange(degrees.shape[0])
        got = sample_one_hop(a, dst, 8, _Uniforms(np.nextafter(1.0, 0.0)))
        with _numpy_side():
            want = sample_one_hop(a, dst, 8, _Uniforms(np.nextafter(1.0, 0.0)))
        _assert_same_blocks([got], [want])
        m = got.matrix
        for r, d in enumerate(degrees):
            cols = got.src_nodes[m.indices[m.indptr[r]:m.indptr[r + 1]]]
            row = a.indices[a.indptr[r]:a.indptr[r + 1]]
            assert np.array_equal(cols, row[max(0, d - 8):])

    def test_threads_sampling_one_pattern_keep_their_own_scratch(self, e2e_graph):
        """Rank threads sample one pattern at once and the hop drops the
        GIL: four threads, each with its own seeded generator, draw the
        blocks sequential calls draw."""
        import sys
        import threading

        def draw(seed):
            rng = np.random.default_rng(seed)
            return [sample_blocks(e2e_graph, rng.choice(e2e_graph.shape[0], 256, replace=False),
                                  (8, 8), rng) for _ in range(8)]

        sequential = [draw(seed) for seed in range(4)]
        results: dict[int, list] = {}
        start = threading.Barrier(4)

        def worker(seed):
            start.wait(timeout=30)
            results[seed] = draw(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for seed, batches in enumerate(sequential):
            for got, want in zip(results[seed], batches, strict=True):
                _assert_same_blocks(got, want)

    def test_unsorted_destinations_are_refused(self, small_adjacency):
        """What only the private hop could pass: the entry checks its
        destinations before it writes anything."""
        fn = _edge.entry("sample_hop", small_adjacency.data)
        graph = sampling_graph_of(small_adjacency)
        for dst in ([3, 1], [2, 2], [0, graph.num_nodes]):
            dst = np.array(dst, np.int64)
            with pytest.raises(ValueError, match="sample_hop: destinations must be strictly"):
                _edge.run(fn, (1,), np.int64, graph.num_nodes, graph.indptr, graph.indices,
                          small_adjacency.data, 2, dst, -1, None, None,
                          *graph._scratch_arrays(), np.empty(2, np.int64),
                          np.empty(3, np.int64), np.empty(0, np.int64),
                          np.empty(0, small_adjacency.data.dtype), np.empty(2, np.int64))
        bits, _ = graph._scratch_arrays()
        assert not bits.any()


class TestRejectedCallsLeaveTheStreamAlone:
    def test_state_unchanged_after_each_rejection(self, small_adjacency):
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        nnz = small_adjacency.nnz
        negative, infinite, nan = np.ones(nnz), np.ones(nnz), np.ones(nnz)
        negative[0], infinite[nnz // 2], nan[-1] = -1.0, np.inf, np.nan
        rejected = [
            (seeds, 1, negative),
            (seeds, 1, infinite),
            (seeds, 1, nan),
            (seeds, 1, np.ones(nnz - 1)),
            (np.array([graph.num_nodes]), 1, None),
            (np.array([0, -1]), 1, None),
            (seeds.reshape(2, -1), 1, None),
            (seeds, -1, None),
        ]
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        for call_seeds, fanout, weights in rejected:
            with pytest.raises(ValueError):
                graph.sample_edges(call_seeds, fanout, rng, weights)
            assert rng.bit_generator.state == before
        # ... and an accepted over-fan-out call does advance it.
        graph.sample_edges(seeds, 1, rng)
        assert rng.bit_generator.state != before


class TestCandidateEvent:
    def test_counts_keys_drawn(self, small_adjacency):
        """Uniform: ``fanout`` per over-fan-out seed; weighted: one key
        per candidate edge of such a seed."""
        graph = sampling_graph_of(small_adjacency)
        seeds = np.arange(graph.num_nodes, dtype=np.int64)
        deg = np.diff(graph.indptr)[seeds]
        before = metrics().counter("sample.candidates").value
        graph.sample_edges(seeds, 3, np.random.default_rng(0))
        drawn = metrics().counter("sample.candidates").value - before
        assert drawn == 3 * int(np.count_nonzero(deg > 3))
        # Full fan-out draws nothing.
        graph.sample_edges(seeds, None, np.random.default_rng(0))
        assert metrics().counter("sample.candidates").value - before == drawn
        graph.sample_edges(seeds, 3, np.random.default_rng(0), np.ones(small_adjacency.nnz))
        weighted = metrics().counter("sample.candidates").value - before - drawn
        assert weighted == int(deg[deg > 3].sum())

    def test_at_most_one_draw_per_kept_edge_on_the_e2e_shape(self, e2e_graph):
        """The ``sampled_train`` shape drew 12.3 keys per kept edge when
        every over-fan-out seed drew one per neighbour."""
        rng = np.random.default_rng(0)
        before = metrics().counter("sample.candidates").value
        kept = 0
        for _ in range(8):
            targets = rng.choice(e2e_graph.shape[0], size=256, replace=False)
            kept += sum(b.sampled_edges for b in sample_blocks(e2e_graph, targets, (8, 8), rng))
        assert metrics().counter("sample.candidates").value - before <= kept

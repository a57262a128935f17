"""Tests for the 1.5D distributed machinery: partitioning, ops, layers."""

import numpy as np
import pytest

from repro.distributed.ops import (
    OpSequencer,
    distributed_row_softmax,
    distributed_row_softmax_backward,
    irow_bcast_from_diagonal,
    itranspose_exchange,
    reduce_and_redistribute,
)
from repro.distributed.partition import (
    block_range,
    block_ranges,
    collect_feature_blocks,
    distribute_adjacency,
    distribute_features,
)
from repro.runtime import run_spmd, square_grid
from repro.tensor.kernels import spmm_reference
from repro.tensor.segment import segment_softmax
from tests import _spmd_programs as programs
from tests.conftest import random_csr


class TestBlockRanges:
    def test_cover_without_gaps(self):
        ranges = block_ranges(13, 4)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 13
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0

    def test_balanced_within_one(self):
        sizes = [b - a for a, b in block_ranges(17, 5)]
        assert max(sizes) - min(sizes) <= 1

    def test_block_range_matches_block_ranges(self):
        for n, parts in [(13, 4), (16, 4), (7, 7), (5, 2)]:
            full = block_ranges(n, parts)
            for index in range(parts):
                assert block_range(n, parts, index) == full[index]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            block_ranges(5, 0)
        with pytest.raises(ValueError):
            block_range(5, 2, 3)


class TestPartition:
    @pytest.mark.parametrize("n", [16, 13])
    def test_adjacency_blocks_tile_the_matrix(self, rng, n):
        a = random_csr(rng, n, n)
        dense = a.to_dense()

        def program(comm):
            grid = square_grid(comm)
            block = distribute_adjacency(a, grid)
            r0, r1 = block_range(n, grid.px, grid.row)
            c0, c1 = block_range(n, grid.py, grid.col)
            assert np.allclose(block.to_dense(), dense[r0:r1, c0:c1])
            return True

        assert all(run_spmd(4, program, timeout=20).values)

    def test_feature_blocks_column_replicated(self, rng):
        h = rng.normal(size=(12, 3))

        def program(comm):
            grid = square_grid(comm)
            block = distribute_features(h, grid)
            c0, c1 = block_range(12, grid.py, grid.col)
            assert np.allclose(block, h[c0:c1])
            return block

        values = run_spmd(4, program, timeout=20).values
        # Ranks 0 and 2 share grid column 0 -> identical replicas.
        assert np.allclose(values[0], values[2])

    def test_collect_reassembles(self, rng):
        h = rng.normal(size=(10, 2))

        def program(comm):
            grid = square_grid(comm)
            block = distribute_features(h, grid)
            return collect_feature_blocks(grid, block)

        values = run_spmd(4, program, timeout=20).values
        assert np.allclose(values[0], h)
        assert values[1] is None

    def test_rectangular_grid_rejected(self, rng):
        a = random_csr(rng, 12, 12)

        def program(comm):
            grid = square_grid(comm, px=2, py=3)
            with pytest.raises(ValueError):
                distribute_adjacency(a, grid)
            return True

        assert all(run_spmd(6, program, timeout=20).values)


class TestOps:
    @pytest.mark.parametrize("p", [1, 4, 9])
    @pytest.mark.parametrize("n", [18, 13])
    def test_reduce_and_redistribute_equals_spmm(self, rng, p, n):
        a = random_csr(rng, n, n)
        h = rng.normal(size=(n, 3))
        reference = a.to_dense() @ h

        def program(comm):
            grid = square_grid(comm)
            a_block = distribute_adjacency(a, grid)
            h_block = distribute_features(h, grid)
            partial = spmm_reference(a_block, h_block)
            out = reduce_and_redistribute(grid, partial, OpSequencer())
            c0, c1 = block_range(n, grid.py, grid.col)
            assert np.allclose(out, reference[c0:c1])
            return True

        assert all(run_spmd(p, program, timeout=30).values)

    def test_row_bcast_from_diagonal(self, rng):
        h = rng.normal(size=(12, 4))

        def program(comm):
            grid = square_grid(comm)
            block = distribute_features(h, grid)
            row_block = irow_bcast_from_diagonal(grid, block).wait()
            r0, r1 = block_range(12, grid.px, grid.row)
            assert np.allclose(row_block, h[r0:r1])
            return True

        assert all(run_spmd(4, program, timeout=20).values)

    def test_transpose_exchange_swaps_blocks(self):
        def program(comm):
            grid = square_grid(comm)
            payload = np.full(2, float(grid.row))
            out = itranspose_exchange(grid, payload, OpSequencer()).wait()
            assert np.allclose(out, float(grid.col))
            return True

        assert all(run_spmd(9, program, timeout=20).values)

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_distributed_softmax_matches_single_node(self, rng, p):
        n = 15
        a = random_csr(rng, n, n, density=0.4)
        scores = rng.normal(size=a.nnz)
        expected = segment_softmax(scores, a.indptr)

        def program(comm):
            grid = square_grid(comm)
            a_block = distribute_adjacency(a, grid)
            # Scores restricted to the block's entries, in block order.
            r0, r1 = block_range(n, grid.px, grid.row)
            c0, c1 = block_range(n, grid.py, grid.col)
            full = a.with_data(scores).extract_block(r0, r1, c0, c1)
            out = distributed_row_softmax(grid, a_block, full.data)
            ref_block = (
                a.with_data(expected).extract_block(r0, r1, c0, c1).data
            )
            assert np.allclose(out, ref_block)
            return True

        assert all(run_spmd(p, program, timeout=30).values)

    def test_distributed_softmax_backward_matches(self, rng):
        n = 12
        a = random_csr(rng, n, n, density=0.5)
        scores = rng.normal(size=a.nnz)
        grads = rng.normal(size=a.nnz)
        soft = segment_softmax(scores, a.indptr)
        from repro.tensor.kernels import masked_row_softmax_backward

        expected = masked_row_softmax_backward(soft, grads, a.indptr)

        def program(comm):
            grid = square_grid(comm)
            r0, r1 = block_range(n, grid.px, grid.row)
            c0, c1 = block_range(n, grid.py, grid.col)
            a_block = distribute_adjacency(a, grid)
            soft_b = a.with_data(soft).extract_block(r0, r1, c0, c1).data
            grad_b = a.with_data(grads).extract_block(r0, r1, c0, c1).data
            out = distributed_row_softmax_backward(grid, a_block, soft_b,
                                                   grad_b)
            ref = a.with_data(expected).extract_block(r0, r1, c0, c1).data
            assert np.allclose(out, ref)
            return True

        assert all(run_spmd(4, program, timeout=20).values)


class TestOneGATLayer:
    def test_any_head_count_builds_the_same_class(self):
        """Single-head GAT is ``heads = 1`` of the one GAT layer class,
        holding plain (unstacked) parameters."""
        from repro.distributed.layers import DistGATLayer
        from repro.distributed.model import build_dist_model

        def program(comm):
            grid = square_grid(comm)
            one = build_dist_model(grid, "gat", 6, 8, 3, heads=1)
            four = build_dist_model(grid, "gat", 6, 8, 3, heads=4)
            assert {type(layer) for layer in one.layers + four.layers} == {
                DistGATLayer
            }
            assert set(one.layers[0].parameters()) == {
                "weight", "a_src", "a_dst"
            }
            assert one.layers[0].weight.ndim == 2
            assert "head3.a_dst" in four.layers[0].parameters()
            return True

        assert all(run_spmd(1, program, timeout=20).values)


class TestOneModelClass:
    """A distributed model is the one ``GnnModel`` of ``GnnLayer``s, so
    checkpoints, loss terms and optimisers are the single-node ones."""

    def test_build_returns_gnn_model_of_gnn_layers(self):
        from repro.distributed.model import build_dist_model
        from repro.models.base import GnnLayer, GnnModel

        def program(comm):
            grid = square_grid(comm)
            for name, kwargs in [("va", {}), ("agnn", {}), ("gcn", {}),
                                 ("gat", {"heads": 1}), ("gat", {"heads": 4})]:
                model = build_dist_model(grid, name, 6, 8, 3, **kwargs)
                assert type(model) is GnnModel
                assert all(isinstance(layer, GnnLayer) for layer in model.layers)
            return True

        assert all(run_spmd(4, program, timeout=20).values)

    def test_load_state_dict_of_a_single_node_model(self, rng, small_adjacency):
        from repro.distributed.model import build_dist_model
        from repro.models import build_model, load_state_dict, state_dict

        h = rng.normal(size=(60, 5))
        single = build_model("gat", 5, 8, 3, num_layers=2, seed=9,
                             dtype=np.float64, heads=2)
        state = state_dict(single)
        reference = single.forward(small_adjacency, h, training=False)
        misfit = dict(state)
        misfit["layer1.head0.weight"] = np.zeros((3, 3))

        def program(comm):
            grid = square_grid(comm)
            dist = build_dist_model(grid, "gat", 5, 8, 3, num_layers=2,
                                    seed=0, dtype=np.float64, heads=2)
            before = state_dict(dist)
            with pytest.raises(ValueError):
                load_state_dict(dist, misfit)
            after = state_dict(dist)
            assert all(np.array_equal(after[k], before[k]) for k in before)
            load_state_dict(dist, state)
            out = dist.forward(
                distribute_adjacency(small_adjacency, grid),
                distribute_features(h, grid),
                training=False,
            )
            return collect_feature_blocks(grid, out)

        collected = run_spmd(4, program, timeout=30).values[0]
        np.testing.assert_allclose(collected, reference, rtol=0, atol=1e-10)

    def test_adam_in_a_rank_program_matches_the_trainer(
        self, rng, small_adjacency
    ):
        from repro.models import build_model, state_dict
        from repro.training import Adam, SoftmaxCrossEntropyLoss, Trainer

        h = rng.normal(size=(60, 5)) * 0.1
        labels = rng.integers(0, 3, 60)
        single = build_model("gat", 5, 8, 3, num_layers=2, seed=9,
                             dtype=np.float64, heads=2)
        state = state_dict(single)
        expected = Trainer(
            single, SoftmaxCrossEntropyLoss(), Adam(0.01)
        ).fit(small_adjacency, h, labels, epochs=3).losses
        trained = state_dict(single)
        values = run_spmd(
            4, programs.dist_model_adam_train, timeout=60,
            a=small_adjacency, features=h, labels=labels, state=state,
        ).values
        for losses, final in values:
            np.testing.assert_allclose(losses, expected, rtol=1e-8)
            for name, value in trained.items():
                np.testing.assert_allclose(
                    final[name], value, rtol=1e-6, atol=1e-9, err_msg=name
                )

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_unknown_loss_rejected_before_any_rank_starts(
        self, rng, small_adjacency, monkeypatch, epochs
    ):
        from repro.distributed import api

        def no_ranks(*args, **kwargs):
            raise AssertionError("a rank program was launched")

        monkeypatch.setattr(api, "run_spmd", no_ranks)
        with pytest.raises(ValueError, match="bogus"):
            api.distributed_train(
                "va", small_adjacency, rng.normal(size=(60, 5)),
                rng.integers(0, 3, 60), 8, 3, loss="bogus", epochs=epochs,
            )

    def test_wall_clock_recorded(self, rng, small_adjacency):
        from repro.distributed.api import distributed_train

        stats = distributed_train(
            "va", small_adjacency, rng.normal(size=(60, 5)) * 0.1,
            rng.integers(0, 3, 60), 8, 3, num_layers=2,
        ).stats
        assert all(s.wall_s > 0.0 for s in stats.per_rank)
        assert stats.max_wall_s == max(s.wall_s for s in stats.per_rank)

    def test_backend_keyword_accepts_only_thread(self, rng, small_adjacency):
        """``benchmarks/e2e`` still passes ``backend="thread"``; nothing
        else names a fabric any more."""
        from repro.distributed.api import (
            distributed_inference,
            distributed_train,
        )

        h = rng.normal(size=(60, 5)) * 0.1
        labels = rng.integers(0, 3, 60)
        trained = distributed_train(
            "va", small_adjacency, h, labels, 8, 3, num_layers=2,
            backend="thread",
        )
        inferred = distributed_inference(
            "va", small_adjacency, h, 8, 3, num_layers=2, backend="thread",
        )
        assert len(trained.losses) == 1 and inferred.output.shape == (60, 3)
        for bad in ("process", None):
            with pytest.raises(ValueError, match="process fabric was removed"):
                distributed_train(
                    "va", small_adjacency, h, labels, 8, 3, backend=bad
                )
            with pytest.raises(ValueError, match="process fabric was removed"):
                distributed_inference(
                    "va", small_adjacency, h, 8, 3, backend=bad
                )

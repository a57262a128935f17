"""Tests for the 1.5D distributed machinery: partitioning, ops, layers."""

import gc
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.distributed.layers import DistAttentionLayer
from repro.distributed.model import build_dist_model
from repro.distributed.ops import (
    OpSequencer,
    irow_bcast_from_diagonal,
    itranspose_exchange,
    reduce_and_redistribute,
)
from repro.distributed.api import distributed_train
from repro.distributed.partition import (
    block_range,
    block_ranges,
    collect_feature_blocks,
    distribute_adjacency,
    distribute_features,
)
from repro.graphs import erdos_renyi, prepare_adjacency
from repro.models import AttentionLayer, GnnModel, layer_spec
from repro.runtime import run_spmd, square_grid
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import spmm_reference
from repro.training import SGD, SoftmaxCrossEntropyLoss, Trainer
from repro.util.rng import make_rng
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


class TestOneGATLayer:
    def test_any_head_count_builds_the_same_class(self):
        """Single-head GAT is ``heads = 1`` of the one attention layer
        class, holding plain (unstacked) parameters."""
        from repro.distributed.layers import DistAttentionLayer
        from repro.distributed.model import build_dist_model

        def program(comm):
            grid = square_grid(comm)
            one = build_dist_model(grid, "gat", 6, 8, 3, heads=1)
            four = build_dist_model(grid, "gat", 6, 8, 3, heads=4)
            assert {type(layer) for layer in one.layers + four.layers} == {
                DistAttentionLayer
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

    @pytest.mark.parametrize("case", [
        "short-features", "short-labels", "label-out-of-range",
        "short-mask", "p-2", "rectangular-a",
    ])
    def test_malformed_input_rejected_before_any_rank_starts(
        self, rng, small_adjacency, monkeypatch, case
    ):
        """Each of these used to pass validation and then fail inside a
        rank thread, about something else; now one ``ValueError`` names
        the argument, and no rank is launched."""
        from repro.distributed import api

        def no_ranks(*args, **kwargs):
            raise AssertionError("a rank program was launched")

        monkeypatch.setattr(api, "run_spmd", no_ranks)
        a, h = small_adjacency, rng.normal(size=(60, 5))
        labels, mask, p = rng.integers(0, 3, 60), None, 4
        if case == "short-features":
            h, match = h[:56], "^features has shape"
        elif case == "short-labels":
            labels, match = labels[:56], "^labels has length 56"
        elif case == "label-out-of-range":
            labels[17], match = 3, r"integer classes in \[0, 3\)"
        elif case == "short-mask":
            mask, match = np.ones(56, bool), "^mask has length 56"
        elif case == "p-2":
            p, match = 2, "^p=2: .* perfect square"
        else:
            a, match = a.extract_block(0, 60, 0, 50), "^a has shape"
        with pytest.raises(ValueError, match=match):
            api.distributed_train("va", a, h, labels, 8, 3, p=p, mask=mask)
        if case in ("short-features", "p-2", "rectangular-a"):
            with pytest.raises(ValueError, match=match):
                api.distributed_inference("va", a, h, 8, 3, p=p)

    def test_labels_the_mask_skips_are_not_read(self, rng, small_adjacency):
        labels, mask = rng.integers(0, 3, 60), np.arange(60) % 2 == 0
        labels[1] = -1  # unlabelled
        result = distributed_train(
            "va", small_adjacency, rng.normal(size=(60, 5)) * 0.1, labels,
            8, 3, num_layers=2, mask=mask,
        )
        assert np.isfinite(result.losses).all()

    def test_wall_clock_recorded(self, rng, small_adjacency):
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

    @pytest.mark.parametrize("name", ["va", "GAT"])
    def test_a_bad_model_keyword_names_the_model_and_itself(
        self, rng, small_adjacency, monkeypatch, name
    ):
        """``loss=`` is no argument of ``distributed_train``: it used to
        reach the layer DAG builder and fail as ``va_layer_dag() got an
        unexpected keyword argument 'loss'``. It is refused by model and
        keyword, in the caller's thread, before any rank starts."""
        from repro.distributed import api

        def no_ranks(*args, **kwargs):
            raise AssertionError("a rank program started")

        monkeypatch.setattr(api, "run_spmd", no_ranks)
        with pytest.raises(TypeError, match=rf"model '{name}' got an unexpected "
                                            r"keyword argument 'loss'"):
            distributed_train(name, small_adjacency, rng.normal(size=(60, 5)),
                              rng.integers(0, 3, 60), 8, 3, loss="ce")


def _array_bytes(obj, seen: dict) -> int:
    """nbytes of every distinct buffer reachable from ``obj`` through
    dicts, lists, tuples and dataclasses; a CSR block is input, not
    counted."""
    import dataclasses

    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        seen.setdefault(id(obj), obj.nbytes)
    elif dataclasses.is_dataclass(obj):
        _array_bytes([getattr(obj, f.name) for f in dataclasses.fields(obj)], seen)
    elif isinstance(obj, (dict, list, tuple)):
        for item in (obj.values() if isinstance(obj, dict) else obj):
            _array_bytes(item, seen)
    return sum(seen.values())


class TestOneAttentionLayer:
    """VA, AGNN, GAT and a user's spec are one grid-bound layer class
    running the fused sweep per block."""

    def test_example_scaled_dot_spec_trains_at_p4(self, rng, small_adjacency):
        """``examples/custom_attention_model.py``'s scaled dot-product spec
        — written once as a layer DAG, lowered, nothing distributed —
        trains at p = 4 through ``build_dist_model`` and matches its
        single-node stack."""
        path = Path(__file__).parent.parent / "examples" / "custom_attention_model.py"
        loader = importlib.util.spec_from_file_location("custom_attention_model", path)
        example = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(example)
        spec = example.make_scaled_dot_spec(np.sqrt(5))
        h = rng.normal(size=(60, 5)) * 0.5
        labels = rng.integers(0, 3, 60)
        seeds = make_rng(4)
        single = GnnModel([
            AttentionLayer(5, 8, spec, "relu", seed=seeds, dtype=np.float64),
            AttentionLayer(8, 3, spec, "identity", seed=seeds, dtype=np.float64),
        ])
        trainer = Trainer(single, SoftmaxCrossEntropyLoss(), SGD(0.05))
        expected = trainer.fit(small_adjacency, h, labels, epochs=3).losses
        result = distributed_train(
            spec, small_adjacency, h, labels, 8, 3, num_layers=2, p=4,
            epochs=3, lr=0.05, seed=4, dtype=np.float64,
        )
        assert expected[-1] < expected[0]
        np.testing.assert_allclose(result.losses, expected, rtol=1e-10, atol=0)

    def test_zero_norm_row_gets_the_single_node_gradients(self, rng, small_adjacency):
        """A vertex with a zero feature row and neighbours: the sweep
        scores it 0 at either endpoint, on the diagonal blocks and off
        them, so every distributed gradient is the single-node one (a
        norm product clipped at some eps instead would scale its
        column-side term by 1/eps)."""
        a = small_adjacency
        h = rng.normal(size=(60, 5))
        h[[3, 44]] = 0  # in different blocks of a 2 x 2 grid
        assert a.row_lengths()[[3, 44]].min() > 1
        g = rng.normal(size=(60, 4))
        spec = layer_spec("agnn", learnable_beta=True)
        single = AttentionLayer(5, 4, spec, "identity", seed=3, dtype=np.float64)
        out, cache = single.forward(a, h)
        dh, grads = single.backward(cache, g)

        def program(comm):
            grid = square_grid(comm)
            layer = DistAttentionLayer(5, 4, spec, "identity", seed=3, dtype=np.float64)
            layer.bind(grid, OpSequencer())
            z, cache = layer.forward(distribute_adjacency(a, grid), distribute_features(h, grid))
            gamma, grads = layer.backward(cache, distribute_features(g, grid))
            return collect_feature_blocks(grid, z), collect_feature_blocks(grid, gamma), grads

        values = run_spmd(4, program, timeout=30).values
        np.testing.assert_allclose(values[0][0], out, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(values[0][1], dh, rtol=1e-10, atol=1e-12)
        for _, _, rank_grads in values:
            assert rank_grads.keys() == grads.keys() == {"weight", "beta"}
            for name, grad in grads.items():
                np.testing.assert_allclose(rank_grads[name], grad, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("name,kw", [("agnn", {}), ("gat", {"heads": 2})])
    def test_rank_caches_do_not_grow_with_nnz(self, name, kw):
        """Doubling nnz at fixed n leaves what a p = 4 training forward
        caches unchanged, per rank, array by array (the adjacency block
        and the input are given) and in what the whole process retains
        (tracemalloc): softmax statistics travel as (b, heads) rows, so
        nothing edge-sized is kept for the backward."""
        h = np.random.default_rng(0).normal(size=(1024, 8))

        def program(comm, a):
            grid = square_grid(comm)
            a_block, h_block = distribute_adjacency(a, grid), distribute_features(h, grid)
            model = build_dist_model(grid, name, 8, 8, 4, num_layers=2, dtype=np.float64, **kw)
            model.forward(a_block, h_block, training=False)  # pattern statistics
            # Collect before each read, so cyclic garbage that earlier
            # tests left does not count as held by whichever reads the
            # collector happens to fall between.
            gc.collect()
            comm.allreduce(0)  # a barrier
            base = tracemalloc.get_traced_memory()[0]
            comm.allreduce(0)  # a barrier
            model.forward(a_block, h_block, training=True)
            gc.collect()
            comm.allreduce(0)  # a barrier
            held = tracemalloc.get_traced_memory()[0] - base
            comm.allreduce(0)  # a barrier
            given = {id(x): 0 for x in (a_block.data, a_block.indices, a_block.indptr, h_block)}
            assert not any(isinstance(x, CSRMatrix) and x is not a_block
                           for cache in model._caches for x in cache.ctx.values())
            return _array_bytes(model._caches, given), held

        measured = []
        for edges in (12_000, 24_000):
            a = prepare_adjacency(erdos_renyi(1024, edges, seed=1), dtype=np.float64)
            tracemalloc.start()
            try:
                values = run_spmd(4, program, timeout=60, a=a).values
            finally:
                tracemalloc.stop()
            measured.append((a.nnz, [v[0] for v in values], values[0][1]))
        (nnz_1, cached_1, held_1), (nnz_2, cached_2, held_2) = measured
        assert nnz_2 > 1.8 * nnz_1
        assert cached_1 == cached_2
        # An edge array of the smaller graph is nnz_1 * 8 bytes per rank's
        # quarter; the retained difference is interpreter noise.
        assert abs(held_2 - held_1) < nnz_1 * 8 / 16, (held_1, held_2)

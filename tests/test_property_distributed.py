"""Property-based tests of the distributed machinery.

Hypothesis drives random problem shapes (vertex counts that don't
divide the grid, odd feature widths, random densities) through the
1.5D engine and asserts exact agreement with single-node execution —
the strongest random-input statement of the library's core invariant.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed.api import distributed_inference
from repro.distributed.ops import OpSequencer, reduce_and_redistribute
from repro.distributed.partition import block_range, distribute_adjacency, \
    distribute_features
from repro.graphs import erdos_renyi
from repro.graphs.prep import prepare_adjacency
from repro.models import build_model
from repro.runtime import run_spmd, square_grid
from repro.tensor.kernels import spmm_reference

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def problem_shape(draw):
    n = draw(st.integers(min_value=20, max_value=120))
    k = draw(st.integers(min_value=1, max_value=9))
    p = draw(st.sampled_from([1, 4, 9]))
    mean_degree = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, k, p, mean_degree, seed


class TestRandomisedEquivalence:
    @given(problem_shape(), st.sampled_from(["VA", "AGNN", "GAT"]))
    @SLOW
    def test_inference_equivalence(self, shape, model_name):
        n, k, p, mean_degree, seed = shape
        a = prepare_adjacency(
            erdos_renyi(n, max(1, mean_degree * n // 2), seed=seed),
            dtype=np.float64,
        )
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n, k))
        reference = build_model(
            model_name, k, max(2, k), 3, num_layers=2, seed=seed % 97,
            dtype=np.float64,
        ).forward(a, h, training=False)
        result = distributed_inference(
            model_name, a, h, max(2, k), 3, num_layers=2, p=p,
            seed=seed % 97, dtype=np.float64,
        )
        scale = max(1.0, np.abs(reference).max())
        assert np.abs(result.output - reference).max() / scale < 1e-9

    @given(
        st.integers(min_value=4, max_value=100),
        st.integers(min_value=1, max_value=7),
        st.sampled_from([4, 9]),
        st.integers(min_value=0, max_value=1000),
    )
    @SLOW
    def test_reduce_redistribute_random_shapes(self, n, k, p, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.3) * rng.normal(size=(n, n))
        from repro.tensor.csr import CSRMatrix

        a = CSRMatrix.from_dense(dense)
        h = rng.normal(size=(n, k))
        reference = dense @ h

        def program(comm):
            grid = square_grid(comm)
            out = reduce_and_redistribute(
                grid,
                spmm_reference(distribute_adjacency(a, grid),
                               distribute_features(h, grid)),
                OpSequencer(),
            )
            c0, c1 = block_range(n, grid.py, grid.col)
            assert np.allclose(out, reference[c0:c1], atol=1e-9)
            return True

        assert all(run_spmd(p, program, timeout=30).values)


class TestRandomisedCollectives:
    @given(
        st.sampled_from([2, 3, 5, 8]),
        st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                 max_size=3),
        st.integers(min_value=0, max_value=1000),
    )
    @SLOW
    def test_allreduce_random_shapes(self, p, shape, seed):
        rng = np.random.default_rng(seed)
        data = [rng.normal(size=tuple(shape)) for _ in range(p)]
        expected = sum(data)

        def program(comm):
            out = comm.allreduce(data[comm.rank])
            assert np.allclose(out, expected, atol=1e-9)
            return True

        assert all(run_spmd(p, program, timeout=20).values)

    @given(
        st.sampled_from([2, 4, 7]),
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=0, max_value=100),
    )
    @SLOW
    def test_bcast_algorithms_agree(self, p, size, seed):
        rng = np.random.default_rng(seed)
        payload = rng.normal(size=size).astype(np.float32)

        def program(comm):
            tree = comm.bcast(
                payload if comm.rank == 0 else None, root=0,
                algorithm="binomial",
            )
            sag = comm.bcast(
                payload if comm.rank == 0 else None, root=0,
                algorithm="scatter_allgather",
            )
            auto = comm.bcast(payload if comm.rank == 0 else None, root=0)
            assert np.array_equal(tree, payload)
            assert np.array_equal(sag, payload)
            assert np.array_equal(auto, payload)
            return True

        assert all(run_spmd(p, program, timeout=20).values)

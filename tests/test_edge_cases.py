"""Cross-cutting edge cases not covered by the per-module suites."""

import numpy as np
import pytest

from repro.core.formulation import AttentionSpec
from repro.core.psi import psi_va
from repro.fusion import execute, fuse, va_psi_dag
from repro.models import AttentionLayer
from repro.runtime import run_spmd
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import spmm
from repro.tensor.semiring import AVERAGE
from tests.conftest import random_csr


class TestWeightedAdjacency:
    def test_fused_va_respects_edge_weights(self, rng):
        """Weighted A: both the hand kernel and the fused DAG must
        scale scores by the stored weights."""
        a = random_csr(rng, 20, 20, density=0.4)
        a = a.with_data(np.abs(a.data) + 0.5)
        h = rng.normal(size=(20, 4))
        hand, _ = psi_va(a, h)
        fused = execute(fuse(va_psi_dag()), {"H": h, "A": a}, mode="fused")
        assert np.allclose(hand.data, fused.data)
        dots = (h @ h.T)[a.expand_rows(), a.indices]
        assert np.allclose(hand.data, a.data * dots)

    def test_weighted_gcn_spmm(self, rng):
        a = random_csr(rng, 10, 10)
        h = rng.normal(size=(10, 3))
        assert np.allclose(spmm(a, h), a.to_dense() @ h)


class TestAverageSemiringLayer:
    def test_generic_layer_average_aggregation(self, rng, small_adjacency):
        """An A-GNN whose ⊕ is the AVERAGE semiring: mean of the
        neighbours' projected features weighted by attention scores."""

        def psi(a, h, params=None, counter=None):
            s, cache = psi_va(a, h)
            return s.with_data(np.abs(s.data) + 0.1), cache

        layer = AttentionLayer(
            5, 4, AttentionSpec(psi=psi, name="avg-va"),
            activation="identity", aggregate=AVERAGE, seed=0,
            dtype=np.float64,
        )
        h = rng.normal(size=(60, 5))
        out, _ = layer.forward(small_adjacency, h, training=False)
        # Row 0's output is the weight-normalised average of its
        # neighbours' projected features.
        s, _ = psi(small_adjacency, h)
        dense = s.to_dense()
        hp = h @ layer.weight
        w = dense[0]
        expected = (w[:, None] * hp).sum(0) / w.sum()
        assert np.allclose(out[0], expected)


class TestCommunicatorEdgeCases:
    def test_split_of_split(self):
        def program(comm):
            halves = comm.split(color=comm.rank // 2)
            singles = halves.split(color=halves.rank)
            assert singles.size == 1
            assert singles.allreduce(np.array([5.0]))[0] == 5.0
            return True

        assert all(run_spmd(4, program, timeout=20).values)

    def test_send_to_out_of_range_rank(self):
        def program(comm):
            with pytest.raises(ValueError):
                comm.send(np.ones(1), comm.size + 3)
            comm.barrier()
            return True

        assert all(run_spmd(2, program, timeout=20).values)

    def test_scatter_requires_full_payload_list(self):
        def program(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    comm.scatter([1], root=0)  # too short
            return True

        assert all(run_spmd(3, program, timeout=20).values)

    def test_reduce_non_root_returns_none(self):
        def program(comm):
            out = comm.reduce(np.array([1.0]), root=1)
            if comm.rank == 1:
                assert out[0] == comm.size
            else:
                assert out is None
            return True

        assert all(run_spmd(3, program, timeout=20).values)

    def test_alltoall_length_checked(self):
        def program(comm):
            with pytest.raises(ValueError):
                comm.alltoall([1])  # needs size entries
            comm.barrier()
            return True

        assert all(run_spmd(3, program, timeout=20).values)


class TestDegenerateGraphs:
    def test_single_vertex_graph(self, rng):
        a = CSRMatrix.from_dense(np.array([[1.0]]))
        from repro.models import build_model

        model = build_model("GAT", 3, 4, 2, num_layers=2, dtype=np.float64)
        out = model.forward(a, rng.normal(size=(1, 3)))
        assert out.shape == (1, 2)
        assert np.all(np.isfinite(out))

    def test_self_loops_only_graph(self, rng):
        n = 6
        a = CSRMatrix.from_dense(np.eye(n))
        from repro.models import build_model

        model = build_model("AGNN", 3, 4, 2, num_layers=2, dtype=np.float64)
        out = model.forward(a, rng.normal(size=(n, 3)))
        assert np.all(np.isfinite(out))

    def test_distributed_tiny_graph_p4(self, rng):
        """Blocks smaller than the grid (n=5 on 2x2) must still work."""
        from repro.distributed.api import distributed_inference
        from repro.models import build_model

        dense = (rng.random((5, 5)) < 0.6).astype(np.float64)
        np.fill_diagonal(dense, 1.0)
        a = CSRMatrix.from_dense(dense)
        h = rng.normal(size=(5, 3))
        reference = build_model(
            "GAT", 3, 4, 2, num_layers=2, seed=1, dtype=np.float64
        ).forward(a, h, training=False)
        result = distributed_inference("GAT", a, h, 4, 2, num_layers=2,
                                       p=4, seed=1, dtype=np.float64)
        assert np.allclose(result.output, reference, atol=1e-10)


class TestReportCLI:
    def test_main_renders_results_dir(self, tmp_path, capsys):
        from repro.bench.harness import make_graph, run_config, write_csv
        from repro.bench.report import main

        graph = make_graph("uniform", 64, 300, seed=0)
        rows = [
            run_config("figZ", "GCN", "global", "inference", graph,
                       k=4, layers=1, p=p)
            for p in (1, 4)
        ]
        write_csv(rows, tmp_path / "r.csv")
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "figZ" in out

    def test_main_missing_dir(self, tmp_path):
        from repro.bench.report import main

        assert main([str(tmp_path / "nope")]) == 1

"""Cross-cutting edge cases not covered by the per-module suites."""

import numpy as np
import pytest

from repro.core.formulation import AttentionSpec
from repro.distributed.api import distributed_train
from repro.fusion import DagLayer, execute, fuse, va_psi_dag
from repro.graphs import erdos_renyi, prepare_adjacency
from repro.models import AttentionLayer, build_model
from repro.runtime import run_spmd
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import spmm
from repro.tensor.megakernel import attention_scores
from repro.tensor.semiring import AVERAGE
from repro.training import SGD, SoftmaxCrossEntropyLoss, Trainer
from tests.conftest import numeric_gradient, random_csr
from tests.reference_specs import agnn_spec, gat_spec


class TestWeightedAdjacency:
    def test_fused_va_respects_edge_weights(self, rng):
        """Weighted A: both the hand kernel and the fused DAG must
        scale scores by the stored weights."""
        a = random_csr(rng, 20, 20, density=0.4)
        a = a.with_data(np.abs(a.data) + 0.5)
        h = rng.normal(size=(20, 4))
        hand = attention_scores(a, "dot", x_src=h)
        fused = execute(fuse(va_psi_dag()), {"H": h, "A": a}, mode="fused")
        assert np.allclose(hand.data, fused.data)
        dots = (h @ h.T)[a.expand_rows(), a.indices]
        assert np.allclose(hand.data, a.data * dots)

    #: One rule, the formula's ``A ⊙ ·``: stored values multiply the score
    #: *before* the softmax — in the hand-written layer, the derived one
    #: (interpreted and fused) and the distributed one alike.
    WEIGHTED = [
        ("agnn", agnn_spec(beta=0.8), {"beta": 0.8}),
        ("gat", gat_spec(slope=0.2), {"slope": 0.2}),
    ]

    @staticmethod
    def _weighted(rng, n, edges, seed):
        a = prepare_adjacency(erdos_renyi(n, edges, seed=seed), dtype=np.float64)
        return a.with_data(rng.uniform(0.3, 2.5, size=a.nnz))

    @staticmethod
    def _dense_layer(name, a, h, params):
        """Eq. (1) with dense n x n intermediates, identity activation."""
        mask = a.to_dense()
        hp = h @ params["weight"]
        if name == "agnn":
            unit = h / np.linalg.norm(h, axis=1, keepdims=True)
            scores = 0.8 * (unit @ unit.T)
        else:
            raw = (hp @ params["a_src"])[:, None] + (hp @ params["a_dst"])[None, :]
            scores = np.where(raw > 0, raw, 0.2 * raw)
        scores = mask * scores
        exp = np.where(mask != 0, np.exp(scores - scores.max()), 0.0)
        return (exp / exp.sum(axis=1, keepdims=True)) @ hp

    @pytest.mark.parametrize("name,spec,kwargs", WEIGHTED, ids=["agnn", "gat"])
    def test_every_layer_masks_before_the_softmax(self, rng, name, spec, kwargs):
        a = self._weighted(rng, 40, 260, seed=4)
        h = rng.normal(size=(40, 5))
        g = rng.normal(size=(40, 4))
        hand = AttentionLayer(5, 4, spec, activation="identity", seed=3,
                              dtype=np.float64)
        z, cache = hand.forward(a, h)
        dh, grads = hand.backward(cache, g)
        assert np.allclose(
            z, self._dense_layer(name, a, h, hand.parameters()),
            rtol=1e-10, atol=1e-12,
        )
        # The weights matter: the binary pattern gives another answer.
        binary, _ = hand.forward(a.with_data(np.ones(a.nnz)), h)
        assert np.abs(binary - z).max() > 1e-2
        # Every gradient against central differences of the dense formula.
        params = hand.parameters()
        for key, param in params.items():
            numeric = numeric_gradient(
                lambda: float((self._dense_layer(name, a, h, params) * g).sum()),
                param,
            )
            assert np.allclose(grads[key], numeric, rtol=1e-6, atol=1e-7), key
        numeric = numeric_gradient(
            lambda: float((self._dense_layer(name, a, h, params) * g).sum()), h
        )
        assert np.allclose(dh, numeric, rtol=1e-6, atol=1e-7)
        # ... and the derived layer, interpreted and fused, agrees.
        for fused in (False, True):
            derived = DagLayer(name, 5, 4, activation="identity", seed=9,
                               dtype=np.float64, fused=fused, **kwargs)
            for key, value in derived.parameters().items():
                value[:] = params[key]
            z_d, cache_d = derived.forward(a, h)
            dh_d, grads_d = derived.backward(cache_d, g)
            assert np.allclose(z_d, z, rtol=1e-10, atol=1e-12)
            assert np.allclose(dh_d, dh, rtol=1e-10, atol=1e-12)
            for key in grads:
                assert np.allclose(
                    grads_d[key], grads[key], rtol=1e-10, atol=1e-12
                ), (fused, key)

    @pytest.mark.parametrize(
        "name,kwargs",
        [("agnn", {}), ("agnn", {"learnable_beta": True}),
         ("gat", {}), ("gat", {"heads": 2})],
        ids=["agnn", "agnn-learnable-beta", "gat", "gat-two-heads"],
    )
    def test_distributed_training_masks_before_the_softmax(
        self, rng, name, kwargs
    ):
        """p = 4 against the single-node trainer on a non-binary pattern:
        the first loss is the forward, the later ones and the final
        output go through every gradient."""
        a = self._weighted(rng, 61, 420, seed=6)
        h = rng.normal(size=(61, 6)) * 0.5
        y = rng.integers(0, 3, 61)
        model = build_model(name, 6, 5, 3, num_layers=2, seed=2,
                            dtype=np.float64, **kwargs)
        trainer = Trainer(model, SoftmaxCrossEntropyLoss(), SGD(0.05))
        losses = trainer.fit(a, h, y, epochs=3).losses
        # The distributed output is the last epoch's forward, taken
        # before that epoch's update.
        output = model.forward(a, h, training=False)
        losses = losses + trainer.fit(a, h, y, epochs=1).losses
        result = distributed_train(
            name, a, h, y, 5, 3, num_layers=2, p=4, epochs=4, lr=0.05,
            seed=2, dtype=np.float64, **kwargs,
        )
        assert np.allclose(result.losses, losses, rtol=1e-10, atol=0)
        assert np.allclose(result.output, output, rtol=1e-9, atol=1e-11)
        binary = build_model(name, 6, 5, 3, num_layers=2, seed=2,
                             dtype=np.float64, **kwargs)
        unweighted = binary.forward(a.with_data(np.ones(a.nnz)), h,
                                    training=False)
        assert np.abs(unweighted - result.output).max() > 1e-3

    def test_weighted_gcn_spmm(self, rng):
        a = random_csr(rng, 10, 10)
        h = rng.normal(size=(10, 3))
        assert np.allclose(spmm(a, h), a.to_dense() @ h)


class TestAverageSemiringLayer:
    def test_generic_layer_average_aggregation(self, rng, small_adjacency):
        """An A-GNN whose ⊕ is the AVERAGE semiring: mean of the
        neighbours' projected features weighted by attention scores."""

        def psi(a, h, params=None, counter=None):
            s = attention_scores(a, "dot", x_src=h)
            return s.with_data(np.abs(s.data) + 0.1), None

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

"""Tests for the reverse-mode autodiff pass over the op-DAG IR.

The acceptance bar: for all three A-GNN models the DAG-derived
gradients must match the compiled sweep's Section-5 backward
(:func:`repro.tensor.megakernel.attention_backward`, seeded with a given
``dS``) to tight relative error, the joint
forward+backward program must pass the fusion pass with *no* virtual
node escaping (no dense n x n in ``mode="fused"``), and the derived
:class:`~repro.fusion.layer.DagLayer` must be interchangeable with the
hand-fused layers inside a :class:`~repro.models.base.GnnModel`.
"""

import numpy as np
import pytest

from repro.fusion import (
    DagLayer,
    OpDag,
    ProgramRunner,
    agnn_psi_dag,
    build_vjp,
    gat_psi_dag,
    va_psi_dag,
)
from repro.models import AttentionLayer
from repro.models.base import GnnModel
from repro.tensor.megakernel import (
    attention_backward,
    attention_forward,
    attention_scores,
)
from repro.training import SGD
from tests.reference_specs import VA, agnn_spec, gat_spec

TIGHT = 1e-8  # acceptance: DAG-derived grads match the sweep's to <= 1e-8


def rel_err(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    scale = max(float(np.max(np.abs(y))), 1e-30)
    return float(np.max(np.abs(x - y))) / scale


@pytest.fixture(scope="module")
def graph_inputs():
    rng = np.random.default_rng(42)
    from repro.graphs import erdos_renyi
    from repro.graphs.prep import prepare_adjacency

    a = prepare_adjacency(erdos_renyi(60, 400, seed=1), dtype=np.float64)
    n = a.shape[0]
    h = rng.normal(size=(n, 5))
    w = rng.normal(size=(5, 5))
    a_src = rng.normal(size=5)
    a_dst = rng.normal(size=5)
    ds = a.with_data(rng.normal(size=a.nnz))
    g = rng.normal(size=(n, 5))
    return a, h, w, a_src, a_dst, ds, g


def sweep_reference(a, kind, ds, **ops):
    """``(S, gradient exits)`` of the sweep for a given score gradient: with
    ``y = I`` the sampled ``dz[r] . y[c]`` is ``dz[r, c]``, so the dense
    ``dS`` seeds exactly the VJP the derived program is asked for."""
    y = np.eye(a.shape[1])
    _, stats = attention_forward(a, kind, y, **ops)
    exits = attention_backward(a, kind, y, ds.to_dense(), stats=stats, **ops)
    return attention_scores(a, kind, **ops), exits


# ----------------------------------------------------------------------
# Psi-level: derived backward vs. the sweep's Section-5 backward
# ----------------------------------------------------------------------
class TestPsiVjpEquivalence:
    @pytest.mark.parametrize("mode", ["fused", "tiled", "dense"])
    def test_va(self, graph_inputs, mode):
        a, h, *_rest, ds, _g = graph_inputs
        program = build_vjp(va_psi_dag(), wrt=("H",), seed_name="dS")
        runner = ProgramRunner(program.dag, {"H": h, "A": a}, mode=mode)
        s = runner.run()
        runner.bind("dS", ds)
        dh = runner.run("grad:H")
        s_ref, exits = sweep_reference(a, "dot", ds, x_src=h)
        dh_ref = exits["dRow"] + exits["dCol"]
        assert rel_err(s.data, s_ref.data) < TIGHT
        assert rel_err(dh, dh_ref) < TIGHT

    @pytest.mark.parametrize("mode", ["fused", "tiled", "dense"])
    def test_agnn(self, graph_inputs, mode):
        a, h, *_rest, ds, _g = graph_inputs
        program = build_vjp(
            agnn_psi_dag(beta=1.3), wrt=("H",), seed_name="dS"
        )
        runner = ProgramRunner(program.dag, {"H": h, "A": a}, mode=mode)
        s = runner.run()
        runner.bind("dS", ds)
        dh = runner.run("grad:H")
        norms = np.sqrt(np.einsum("ij,ij->i", h, h))
        s_ref, exits = sweep_reference(
            a, "cosine", ds, x_src=h, norms=norms, beta=1.3
        )
        dnorm = exits["dNormRow"] + exits["dNormCol"]
        dh_ref = exits["dRow"] + exits["dCol"] + (dnorm / norms)[:, None] * h
        assert rel_err(s.data, s_ref.data) < TIGHT
        assert rel_err(dh, dh_ref) < TIGHT

    @pytest.mark.parametrize("mode", ["fused", "tiled", "dense"])
    def test_gat(self, graph_inputs, mode):
        a, h, w, a_src, a_dst, ds, _g = graph_inputs
        program = build_vjp(
            gat_psi_dag(slope=0.2),
            wrt=("H", "W", "a_src", "a_dst"),
            seed_name="dS",
        )
        runner = ProgramRunner(
            program.dag,
            {"H": h, "A": a, "W": w, "a_src": a_src, "a_dst": a_dst},
            mode=mode,
        )
        s = runner.run()
        runner.bind("dS", ds)
        hp = h @ w
        s_ref, exits = sweep_reference(
            a, "add", ds, u=hp @ a_src, v=hp @ a_dst, slope=0.2
        )
        du, dv = exits["dU"], exits["dV"]
        da_src, da_dst = hp.T @ du, hp.T @ dv
        dhp = np.outer(du, a_src) + np.outer(dv, a_dst)
        assert rel_err(s.data, s_ref.data) < TIGHT
        assert rel_err(runner.run("grad:a_src"), da_src) < TIGHT
        assert rel_err(runner.run("grad:a_dst"), da_dst) < TIGHT
        assert rel_err(runner.run("grad:W"), h.T @ dhp) < TIGHT
        assert rel_err(runner.run("grad:H"), dhp @ w.T) < TIGHT


# ----------------------------------------------------------------------
# Structural properties of the emitted joint programs
# ----------------------------------------------------------------------
class TestBackwardFusion:
    @pytest.mark.parametrize(
        "builder,wrt,backward_sddmm",
        [
            # VA's backward is pure SpMM — no new sampled kernels.
            (va_psi_dag, ("H",), False),
            (agnn_psi_dag, ("H",), True),
            (gat_psi_dag, ("H", "W", "a_src", "a_dst"), True),
        ],
    )
    def test_backward_virtuals_all_fused(self, builder, wrt, backward_sddmm):
        """Every backward n x n intermediate folds into an SDDMM-like
        kernel — nothing dense-quadratic survives fusion."""
        program = build_vjp(builder(), wrt=wrt, seed_name="dS")
        fused = program.fuse()
        in_kernels = set()
        for kernel in fused.kernels:
            in_kernels |= set(kernel.fused_nodes)
        live_virtuals = {
            nid
            for nid in fused.virtual_nodes
            if fused.dag.consumers()[nid]
        }
        assert live_virtuals <= in_kernels
        # Softmax backwards emit *more* sampled kernels than the
        # forward alone — the adjoint SDDMMs.
        forward_only = len(builder().nodes)
        backward_kernels = [
            k for k in fused.kernels if k.output >= forward_only
        ]
        assert bool(backward_kernels) == backward_sddmm

    def test_seed_is_sparse_for_sparse_output(self):
        program = build_vjp(va_psi_dag(), wrt=("H",), seed_name="dS")
        dag = program.dag
        seed_nodes = [
            node
            for node in dag.nodes
            if node.op == "input" and node.name == "dS"
        ]
        assert len(seed_nodes) == 1
        assert seed_nodes[0].id in dag.sparse_inputs

    def test_grad_outputs_registered(self):
        program = build_vjp(
            gat_psi_dag(), wrt=("H", "W"), seed_name="dS"
        )
        assert set(program.grads) == {"H", "W"}
        assert "grad:H" in program.dag.outputs
        assert "grad:W" in program.dag.outputs

    def test_pruning_skips_unrequested_inputs(self):
        """Differentiating w.r.t. H only must not emit W's adjoint."""
        full = build_vjp(
            gat_psi_dag(), wrt=("H", "W", "a_src", "a_dst"),
            seed_name="dS",
        )
        pruned = build_vjp(gat_psi_dag(), wrt=("a_src",), seed_name="dS")
        assert len(pruned.dag.nodes) < len(full.dag.nodes)
        assert set(pruned.grads) == {"a_src"}

    def test_unknown_wrt_rejected(self):
        with pytest.raises(ValueError, match="no input named"):
            build_vjp(va_psi_dag(), wrt=("nope",))

    def test_missing_output_rejected(self):
        dag = OpDag()
        dag.input("H", "nk")
        with pytest.raises(ValueError, match="no output"):
            build_vjp(dag, wrt=("H",))

    def test_disconnected_wrt_rejected(self):
        dag = OpDag()
        h = dag.input("H", "nk")
        x = dag.input("X", "nk")
        dag.set_output(dag.row_norm(h))
        del x
        with pytest.raises(ValueError, match="does not depend"):
            build_vjp(dag, wrt=("X",))

    def test_describe_covers_forward_and_backward(self):
        program = build_vjp(agnn_psi_dag(), wrt=("H",), seed_name="dS")
        text = program.describe()
        assert "grad:H" in text
        assert "fused kernel" in text
        assert "sparse" in text and "virtual" in text

    def test_cached_activations_reused(self, graph_inputs):
        """Backward evaluation must reuse forward memo tables (the
        DagLayer contract): forward-node values are already present in
        the engine after the forward run."""
        a, h, *_rest, ds, _g = graph_inputs
        program = build_vjp(agnn_psi_dag(), wrt=("H",), seed_name="dS")
        runner = ProgramRunner(program.dag, {"H": h, "A": a})
        runner.run()
        cached_edges = set(runner._engine._edge)
        assert cached_edges  # softmax values etc.
        runner.bind("dS", ds)
        runner.run("grad:H")
        # The forward caches were not invalidated by the backward run.
        assert cached_edges <= set(runner._engine._edge)

    def test_seed_rebind_after_consumption_rejected(self, graph_inputs):
        a, h, *_rest, ds, _g = graph_inputs
        program = build_vjp(va_psi_dag(), wrt=("H",), seed_name="dS")
        runner = ProgramRunner(program.dag, {"H": h, "A": a})
        runner.bind("dS", ds)
        runner.run("grad:H")
        with pytest.raises(RuntimeError, match="consumed"):
            runner.bind("dS", ds)


# ----------------------------------------------------------------------
# DagLayer: layer-level equivalence with the hand-fused fast path
# ----------------------------------------------------------------------
class TestDagLayer:
    # ids predate the one-layer refactor; kept so the test history
    # of each case stays one line.
    @pytest.mark.parametrize(
        "model,spec,kwargs",
        [
            ("va", VA, {}),
            ("agnn", agnn_spec(beta=0.8), {"beta": 0.8}),
            ("gat", gat_spec(slope=0.2), {"slope": 0.2}),
        ],
        ids=["va-VALayer-kwargs0", "agnn-AGNNLayer-kwargs1",
             "gat-GATLayer-kwargs2"],
    )
    def test_matches_hand_fused_layer(self, graph_inputs, model, spec, kwargs):
        a, h, *_rest, _ds, g = graph_inputs
        layer = DagLayer(
            model, 5, 5, activation="identity", seed=3,
            dtype=np.float64, **kwargs,
        )
        hand = AttentionLayer(
            5, 5, spec, activation="identity", seed=99, dtype=np.float64
        )
        for name, value in hand.parameters().items():
            value[:] = layer.parameters()[name]
        z, cache = layer.forward(a, h)
        z_ref, cache_ref = hand.forward(a, h)
        assert rel_err(z, z_ref) < TIGHT
        dh, grads = layer.backward(cache, g)
        dh_ref, grads_ref = hand.backward(cache_ref, g)
        assert rel_err(dh, dh_ref) < TIGHT
        for name, value in grads_ref.items():
            assert rel_err(grads[name], value) < TIGHT, name

    def test_cache_exposes_z(self, graph_inputs):
        a, h, *_ = graph_inputs
        layer = DagLayer("va", 5, 4, dtype=np.float64)
        _out, cache = layer.forward(a, h)
        assert cache.z.shape == (a.shape[0], 4)

    def test_inference_mode_has_no_cache(self, graph_inputs):
        a, h, *_ = graph_inputs
        layer = DagLayer("va", 5, 4, dtype=np.float64)
        _out, cache = layer.forward(a, h, training=False)
        assert cache is None

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            DagLayer("gcn", 4, 4)

    def test_parameters_and_sgd_step(self, graph_inputs):
        a, h, *_rest, g = graph_inputs
        layer = DagLayer("gat", 5, 5, dtype=np.float64)
        params = layer.parameters()
        assert set(params) == {"weight", "a_src", "a_dst"}
        _z, cache = layer.forward(a, h)
        _dh, grads = layer.backward(cache, g)
        before = {k: v.copy() for k, v in params.items()}
        SGD(0.1).step(GnnModel([layer]), [grads])
        for name in params:
            assert not np.allclose(params[name], before[name])

    def test_describe_mentions_derived_gradients(self):
        layer = DagLayer("gat", 4, 4)
        text = layer.program.describe()
        assert "grad:W" in text and "grad:a_src" in text

"""Tests for the op-DAG toolchain: IR, sparsity, fusion, execution,
lowering."""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.fusion import (
    DagLayer,
    OpDag,
    ProgramRunner,
    Sparsity,
    agnn_psi_dag,
    build_vjp,
    execute,
    fuse,
    gat_psi_dag,
    infer_sparsity,
    lower_layer_dag,
    va_psi_dag,
)
from repro.fusion import layer as fusion_layer
from repro.fusion.fuse import AttentionChain
from repro.fusion.layer import compiled_layer_program
from repro.graphs import erdos_renyi
from repro.graphs.prep import prepare_adjacency
from repro.models import AttentionLayer
from repro.models.attention import layer_spec
from repro.tensor.csr import CSRMatrix
from repro.tensor.megakernel import attention_scores
from repro.util.counters import FlopCounter
from tests.reference_specs import VA, agnn_spec, gat_spec


@pytest.fixture(scope="module")
def graph_inputs():
    rng = np.random.default_rng(0)
    a = prepare_adjacency(erdos_renyi(60, 400, seed=1), dtype=np.float64)
    h = rng.normal(size=(60, 5))
    w = rng.normal(size=(5, 5))
    a_src = rng.normal(size=5)
    a_dst = rng.normal(size=5)
    return a, h, w, a_src, a_dst


class TestDagBuilder:
    def test_shape_inference_chain(self):
        dag = OpDag()
        h = dag.input("H", "nk")
        assert dag.nodes[dag.transpose(h)].shape_kind == "kn"
        gram = dag.matmul(h, dag.transpose(h))
        assert dag.nodes[gram].shape_kind == "nn"

    def test_invalid_matmul_rejected(self):
        dag = OpDag()
        h = dag.input("H", "nk")
        with pytest.raises(ValueError):
            dag.matmul(h, h)

    def test_elementwise_kind_mismatch(self):
        dag = OpDag()
        h = dag.input("H", "nk")
        n = dag.input("x", "n")
        with pytest.raises(ValueError):
            dag.add(h, n)

    def test_sparse_must_be_nn(self):
        dag = OpDag()
        with pytest.raises(ValueError):
            dag.input("H", "nk", sparse=True)

    def test_undefined_operand(self):
        dag = OpDag()
        with pytest.raises(ValueError):
            dag.exp(42)

    def test_pretty_listing(self):
        dag = va_psi_dag()
        listing = dag.pretty()
        assert "matmul" in listing and "hadamard" in listing


class TestSparsityInference:
    def test_va_classification(self):
        dag = va_psi_dag()
        cls = infer_sparsity(dag)
        kinds = [cls[node.id] for node in dag.nodes]
        assert Sparsity.VIRTUAL in kinds  # the Gram matrix
        assert cls[dag.output] is Sparsity.SPARSE

    def test_softmax_denominator_is_virtual(self):
        dag = agnn_psi_dag()
        cls = infer_sparsity(dag)
        replicates = [
            node.id for node in dag.nodes
            if node.op in ("replicate", "outer")
        ]
        assert all(cls[nid] is Sparsity.VIRTUAL for nid in replicates)

    def test_parameter_sized_ops_are_dense(self):
        dag = gat_psi_dag()
        cls = infer_sparsity(dag)
        for node in dag.nodes:
            if node.shape_kind in ("nk", "kk", "k", "n"):
                assert cls[node.id] is Sparsity.DENSE


class TestFusionPass:
    @pytest.mark.parametrize(
        "builder,expected_kernels",
        [(va_psi_dag, 1), (agnn_psi_dag, 2), (gat_psi_dag, 2)],
    )
    def test_kernel_counts(self, builder, expected_kernels):
        program = fuse(builder())
        assert len(program.kernels) == expected_kernels

    def test_all_virtuals_fused(self):
        for builder in (va_psi_dag, agnn_psi_dag, gat_psi_dag):
            program = fuse(builder())
            fused = set()
            for kernel in program.kernels:
                fused |= set(kernel.fused_nodes)
            assert set(program.virtual_nodes) <= fused

    def test_escaping_virtual_rejected(self):
        dag = OpDag()
        h = dag.input("H", "nk")
        gram = dag.matmul(h, dag.transpose(h))
        dag.set_output(gram)  # virtual output: must materialise
        with pytest.raises(ValueError, match="virtual"):
            fuse(dag)

    def test_virtual_consumed_by_matmul_rejected(self):
        dag = OpDag()
        h = dag.input("H", "nk")
        gram = dag.matmul(h, dag.transpose(h))   # virtual n x n
        out = dag.matmul(gram, h)                # would need the dense
        dag.set_output(out)
        with pytest.raises(ValueError, match="escapes"):
            fuse(dag)

    def test_kernel_description(self):
        program = fuse(va_psi_dag())
        text = program.kernels[0].describe(program.dag)
        assert "SDDMM" in text


class TestExecution:
    @pytest.mark.parametrize("mode", ["fused", "tiled", "dense"])
    def test_va_matches_hand_kernel(self, graph_inputs, mode):
        a, h, *_ = graph_inputs
        reference = attention_scores(a, "dot", x_src=h)
        out = execute(va_psi_dag(), {"H": h, "A": a}, mode=mode, tile_rows=16)
        assert np.allclose(out.data, reference.data, atol=1e-10)

    @pytest.mark.parametrize("mode", ["fused", "tiled", "dense"])
    def test_agnn_matches_hand_kernel(self, graph_inputs, mode):
        a, h, *_ = graph_inputs
        reference = attention_scores(
            a, "cosine", x_src=h, norms=np.sqrt((h * h).sum(axis=1)), beta=1.3
        )
        out = execute(agnn_psi_dag(beta=1.3), {"H": h, "A": a}, mode=mode,
                      tile_rows=16)
        assert np.allclose(out.data, reference.data, atol=1e-9)

    @pytest.mark.parametrize("mode", ["fused", "tiled", "dense"])
    def test_gat_matches_hand_kernel(self, graph_inputs, mode):
        a, h, w, a_src, a_dst = graph_inputs
        reference = attention_scores(
            a, "add", u=h @ w @ a_src, v=h @ w @ a_dst
        )
        out = execute(
            gat_psi_dag(),
            {"H": h, "A": a, "W": w, "a_src": a_src, "a_dst": a_dst},
            mode=mode, tile_rows=16,
        )
        assert np.allclose(out.data, reference.data, atol=1e-9)

    @pytest.mark.parametrize(
        "builder", [va_psi_dag, agnn_psi_dag, gat_psi_dag]
    )
    def test_tile_size_invariance(self, graph_inputs, builder):
        a, h, w, a_src, a_dst = graph_inputs
        inputs = {"H": h, "A": a}
        if builder is gat_psi_dag:
            inputs.update({"W": w, "a_src": a_src, "a_dst": a_dst})
        outs = [
            execute(builder(), inputs, mode="tiled", tile_rows=t).data
            for t in (1, 7, 64, 1000)
        ]
        for other in outs[1:]:
            assert np.allclose(outs[0], other)

    @pytest.mark.parametrize("mode", ["fused", "tiled", "dense"])
    def test_binary_op_computes_only_itself(
        self, graph_inputs, mode, monkeypatch
    ):
        """A DAG of ``hadamard`` / ``add`` never evaluates a division:
        each binary node computes the op it names and nothing else."""
        from repro.fusion import interp

        def no_division(a, b):
            raise AssertionError("divide evaluated for a non-divide op")

        monkeypatch.setattr(interp, "_safe_div", no_division)
        a, h, *_ = graph_inputs
        dag = OpDag()
        hh = dag.input("H", "nk")
        aa = dag.input("A", "nn", sparse=True)
        tall = dag.add(hh, dag.hadamard(hh, hh))  # dense n x k
        gram = dag.matmul(tall, dag.transpose(tall))  # virtual n x n
        dag.set_output(dag.hadamard(aa, dag.add(gram, gram)))  # sampled
        out = execute(dag, {"H": h, "A": a}, mode=mode, tile_rows=16)
        t = h + h * h
        rows = a.expand_rows()
        want = a.data * 2.0 * np.einsum("ij,ij->i", t[rows], t[a.indices])
        assert np.allclose(out.data, want, atol=1e-10)

    def test_dense_result_returned_directly(self, graph_inputs):
        a, h, *_ = graph_inputs
        dag = OpDag()
        hh = dag.input("H", "nk")
        dag.set_output(dag.row_norm(hh))
        out = execute(dag, {"H": h})
        assert np.allclose(out, np.linalg.norm(h, axis=1))

    def test_missing_output_rejected(self, graph_inputs):
        a, h, *_ = graph_inputs
        dag = OpDag()
        dag.input("H", "nk")
        with pytest.raises(ValueError):
            execute(dag, {"H": h})

    def test_invalid_mode(self, graph_inputs):
        a, h, *_ = graph_inputs
        with pytest.raises(ValueError):
            execute(va_psi_dag(), {"H": h, "A": a}, mode="quantum")

    def test_sparse_input_type_checked(self, graph_inputs):
        _, h, *_ = graph_inputs
        with pytest.raises(TypeError):
            execute(va_psi_dag(), {"H": h, "A": np.eye(60)})


class TestInterpreterChecksItsInputs:
    @pytest.mark.parametrize("tile_rows", [-4, 0, 2.5, True])
    def test_tile_rows_must_be_a_positive_integer(self, graph_inputs, tile_rows):
        a, h, *_ = graph_inputs
        with pytest.raises(ValueError, match="tile_rows"):
            execute(agnn_psi_dag(), {"H": h, "A": a}, mode="tiled",
                    tile_rows=tile_rows)

    def test_sparse_inputs_share_indptr_and_indices_not_only_nnz(
        self, graph_inputs
    ):
        """A seed on another pattern with A's ``nnz`` is refused, bound at
        construction or later; one on A's pattern, rebuilt, is accepted."""
        a, h, *_ = graph_inputs
        shifted = CSRMatrix.from_dense(np.roll(a.to_dense(), 1, axis=1))
        assert shifted.nnz == a.nnz
        assert not np.array_equal(shifted.indices, a.indices)
        program = build_vjp(va_psi_dag(), ("H",), seed_name="dS").dag
        with pytest.raises(ValueError, match="pattern"):
            ProgramRunner(program, {"H": h, "A": a, "dS": shifted})
        runner = ProgramRunner(program, {"H": h, "A": a})
        with pytest.raises(ValueError, match="pattern"):
            runner.bind("dS", shifted)
        runner.bind("dS", CSRMatrix.from_dense(a.to_dense()))
        assert runner.run("grad:H").shape == h.shape


class TestLowering:
    """A layer DAG lowers to the spec AttentionLayer runs: derived kind,
    operands and VJP, bit-equal to the hand-written oracle of
    :mod:`tests.reference_specs` for every built-in Ψ."""

    CASES = {
        "va": (lambda: VA, {}),
        "agnn": (lambda: agnn_spec(0.7), {"beta": 0.7}),
        "agnn-learnable-beta": (lambda: agnn_spec(0.7, learnable_beta=True),
                                {"beta": 0.7, "learnable_beta": True}),
        "gat": (lambda: gat_spec(0.3), {"slope": 0.3}),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case,heads", [
        ("va", 1), ("agnn", 1), ("agnn-learnable-beta", 1), ("gat", 1), ("gat", 3)])
    def test_lowered_spec_is_bit_equal_to_the_oracle(self, graph_inputs, case, heads, dtype):
        """Operands and VJP on their own, then a layer's forward and every
        gradient through the sweep (this backend's), bit for bit."""
        a, *_ = graph_inputs
        make, kwargs = self.CASES[case]
        hand, spec = make(), layer_spec(case.split("-")[0], **kwargs)
        assert (spec.kind, spec.softmax, spec.on_projected) == (
            hand.kind, hand.kind != "dot", hand.on_projected)
        rng = np.random.default_rng(3)
        stack = (60, heads, 5) if heads > 1 else (60, 5)
        x = rng.normal(size=stack).astype(dtype)
        params = {key: rng.normal(size=stack[1:]).astype(dtype)
                  for key in (("a_src", "a_dst") if hand.on_projected else ())}
        if "learnable_beta" in kwargs:
            params["beta"] = np.array(0.9, dtype)
        want, got = hand.operands(x, params, FlopCounter()), spec.operands(x, params, FlopCounter())
        for key, value in want.items():
            assert np.array_equal(got[key], value), key
        vectors = ("dNormRow", "dNormCol", "dU", "dV")
        exits = {key: rng.normal(size=stack[:-1] if key in vectors else stack).astype(dtype)
                 for key in ("dRow", "dCol", *vectors)}
        exits["dCoef"] = np.array([0.4], dtype)
        dx, grads = spec.operands_vjp(exits, x, params, got, FlopCounter())
        dx_ref, grads_ref = hand.operands_vjp(exits, x, params, want, FlopCounter())
        assert dx.dtype == dx_ref.dtype and np.array_equal(dx, dx_ref)
        assert grads.keys() == grads_ref.keys()
        assert all(np.array_equal(grads[key], grads_ref[key]) for key in grads)

        h = rng.normal(size=(60, 4)).astype(dtype)
        layers = [AttentionLayer(4, 5, s, heads=heads, seed=7, dtype=dtype) for s in (hand, spec)]
        passes = []
        for layer in layers:
            z, cache = layer.forward(a.astype(dtype), h)
            passes.append((z, *layer.backward(cache, np.cos(z))))
        (z0, dh0, g0), (z1, dh1, g1) = passes
        assert np.array_equal(z0, z1) and np.array_equal(dh0, dh1) and g0.keys() == g1.keys()
        assert all(np.array_equal(g0[key], g1[key]) for key in g0)

    @pytest.mark.parametrize("model", ["va", "agnn", "gat"])
    def test_derived_spec_matches_the_hand_written_one(self, graph_inputs, model):
        """The spec a fused :class:`DagLayer` runs, against the oracle."""
        _, h, _, a_src, a_dst = graph_inputs
        hand = {"va": VA, "agnn": agnn_spec(0.7), "gat": gat_spec(0.3)}[model]
        spec = DagLayer(model, 5, 5, beta=0.7, slope=0.3).spec
        assert (spec.kind, spec.on_projected) == (hand.kind, hand.on_projected)
        assert spec.softmax == (hand.kind != "dot")
        params = {"a_src": a_src, "a_dst": a_dst} if model == "gat" else {}
        counter = FlopCounter()
        want = hand.operands(h, params, counter)
        got = spec.operands(h, params, counter)
        for key, value in want.items():  # the same arithmetic, bit for bit
            assert np.array_equal(got[key], value), key
        rng = np.random.default_rng(3)
        exits = {key: rng.normal(size=h.shape if key in ("dRow", "dCol") else 60)
                 for key in ("dRow", "dCol", "dNormRow", "dNormCol", "dU", "dV")}
        dx, grads = spec.operands_vjp(exits, h, params, got, counter)
        dx_ref, grads_ref = hand.operands_vjp(exits, h, params, want, counter)
        assert np.array_equal(dx, dx_ref)
        assert grads.keys() == grads_ref.keys()
        assert all(np.array_equal(grads[key], grads_ref[key]) for key in grads)

    def test_derived_spec_runs_every_head(self, graph_inputs):
        """A lowered spec is no longer single-head: a fused layer's spec
        runs two heads exactly as the hand-written GAT does."""
        a, h, *_ = graph_inputs
        layers = [AttentionLayer(5, 4, spec, heads=2, seed=7)
                  for spec in (gat_spec(0.2), DagLayer("gat", 4, 4).spec)]
        (z0, _), (z1, _) = (layer.forward(a, h) for layer in layers)
        assert z0.shape == (60, 8) and np.array_equal(z0, z1)

    def test_lowered_specs_charge_their_ops_flops(self, graph_inputs):
        """GAT: two matrix-vector products forward (4 n k), two rank-1
        updates, their sum and two column reductions back (7 n k)."""
        _, h, _, a_src, a_dst = graph_inputs
        spec, counter = layer_spec("gat"), FlopCounter()
        params = {"a_src": a_src, "a_dst": a_dst}
        ops = spec.operands(h, params, counter)
        spec.operands_vjp({"dU": h[:, 0], "dV": h[:, 1]}, h, params, ops, counter)
        assert counter.by_label == {"operands": 4 * h.size, "operands_vjp": 7 * h.size}

    def test_layer_dags_without_a_lowerable_chain_are_refused(self):
        with pytest.raises(ValueError, match="no SDDMM"):
            lower_layer_dag(va_psi_dag())  # no aggregation: Psi alone
        dag = OpDag()
        h = dag.input("H", "nk")
        a = dag.input("A", "nn", sparse=True)
        hw = dag.matmul(h, dag.input("W", "kk"))
        # Scores reading both H and H W have no one operand root.
        dag.set_output(dag.matmul(dag.hadamard(a, dag.matmul(h, dag.transpose(hw))), hw))
        with pytest.raises(ValueError, match="exactly one of H and H W"):
            lower_layer_dag(dag)

    @pytest.mark.parametrize("arg,value", [
        ("beta", float("nan")), ("beta", float("inf")), ("slope", float("-inf")),
        ("slope", float("nan")),
    ])
    def test_non_finite_beta_or_slope_is_refused(self, arg, value):
        model = {"beta": "agnn", "slope": "gat"}[arg]  # the model whose DAG reads it
        before = len(fusion_layer._PROGRAM_CACHE)
        for _ in range(3):
            with pytest.raises(ValueError, match=arg):
                compiled_layer_program(model, **{arg: value})
        with pytest.raises(ValueError, match=arg):
            DagLayer(model, 4, 4, **{arg: value})
        assert len(fusion_layer._PROGRAM_CACHE) == before

    def test_learnable_beta_needs_a_cosine_score(self):
        with pytest.raises(ValueError, match="temperature"):
            layer_spec("gat", learnable_beta=True)


class TestOneSweepExecutor:
    """Structure (``ast`` scan of ``src/repro``): the compiled sweep has one
    caller per execution engine and the IR toolchain is not one of them."""

    @pytest.fixture(scope="class")
    def trees(self):
        package = Path(repro.__file__).parent
        return {
            path.relative_to(package).as_posix(): ast.parse(path.read_text())
            for path in sorted(package.rglob("*.py"))
        }

    def test_sweep_is_called_only_by_the_attention_layers(self, trees):
        callers = {
            path
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("attention_forward", "attention_backward")
        }
        assert callers - {"tensor/megakernel.py"} == {
            "models/attention.py", "distributed/layers.py"}

    def test_fusion_does_not_import_the_megakernel(self, trees):
        imports = [
            path
            for path, tree in trees.items() if path.startswith("fusion/")
            for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and (
                node.module == "repro.tensor.megakernel"
                or node.module == "repro.tensor"
                and any(alias.name == "megakernel" for alias in node.names)))
            or (isinstance(node, ast.Import) and any(
                alias.name.startswith("repro.tensor.megakernel") for alias in node.names))
        ]
        assert imports == []

    def test_the_interpreter_has_no_sweep_switch(self):
        assert "fused" not in inspect.signature(ProgramRunner).parameters
        assert "fused" not in inspect.signature(execute).parameters
        names = {field.name for field in dataclasses.fields(AttentionChain)}
        assert not names & {"exits", "seed"}

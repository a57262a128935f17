"""Tests for the single-node models (forward semantics, structure)."""

import numpy as np
import pytest

import ast
import dataclasses
from functools import partial
from pathlib import Path

import repro
import repro.core
import repro.models
from repro.baselines.dist_local import dist_local_train
from repro.baselines.minibatch import MiniBatchConfig, minibatch_train
from repro.core.formulation import AttentionSpec
from repro.distributed.api import distributed_inference, distributed_train
from repro.distributed.model import build_dist_model
from repro.fusion import lower_layer_dag
from repro.fusion.models import agnn_layer_dag, gat_layer_dag
from repro.graphs import synthetic_classification
from repro.models import (
    GCN,
    AttentionLayer,
    GnnModel,
    build_model,
    layer_spec,
    normalize_adjacency,
    state_dict,
)
from repro.runtime.executor import run_spmd
from repro.runtime.grid import square_grid
from repro.serving import ServingEngine
from repro.training import SGD, MinibatchTrainer, SoftmaxCrossEntropyLoss, Trainer
from repro.util.counters import FlopCounter

MODELS = ["VA", "AGNN", "GAT", "GCN"]


def adjacency_for(name, a):
    return normalize_adjacency(a) if name == "GCN" else a


class TestBuildModel:
    @pytest.mark.parametrize("name", MODELS)
    def test_dimensions_chain(self, name):
        model = build_model(name, 8, 16, 3, num_layers=4)
        assert model.num_layers == 4
        assert model.layers[0].in_dim == 8
        assert model.layers[-1].out_dim == 3

    def test_final_layer_is_linear(self):
        model = build_model("GAT", 8, 16, 3, num_layers=3)
        assert model.layers[-1].activation.name == "identity"
        assert model.layers[0].activation.name == "elu"

    def test_unknown_model_rejected(self):
        for name in ("Transformer", "sgc"):
            with pytest.raises(ValueError, match="unknown model"):
                build_model(name, 8, 16, 3)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            GnnModel([])


class TestForward:
    @pytest.mark.parametrize("name", MODELS)
    def test_output_shape(self, rng, small_adjacency, name):
        model = build_model(name, 5, 8, 3, num_layers=2, dtype=np.float64)
        h = rng.normal(size=(60, 5))
        out = model.forward(adjacency_for(name, small_adjacency), h)
        assert out.shape == (60, 3)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("name", MODELS)
    def test_inference_equals_training_forward(self, rng, small_adjacency,
                                               name):
        model = build_model(name, 5, 8, 3, num_layers=2, dtype=np.float64)
        h = rng.normal(size=(60, 5))
        a = adjacency_for(name, small_adjacency)
        out_train = model.forward(a, h, training=True)
        out_infer = model.forward(a, h, training=False)
        assert np.allclose(out_train, out_infer)

    @pytest.mark.parametrize("name", ["VA", "AGNN", "GCN"])
    def test_composition_orders_equivalent(self, rng, small_adjacency, name):
        h = rng.normal(size=(60, 5))
        a = adjacency_for(name, small_adjacency)
        m_proj = build_model(name, 5, 8, 3, num_layers=2, seed=4,
                             order="project_first", dtype=np.float64)
        m_agg = build_model(name, 5, 8, 3, num_layers=2, seed=4,
                            order="aggregate_first", dtype=np.float64)
        assert np.allclose(
            m_proj.forward(a, h), m_agg.forward(a, h), atol=1e-9
        )

    def test_deterministic_given_seed(self, rng, small_adjacency):
        h = rng.normal(size=(60, 5))
        out1 = build_model("GAT", 5, 8, 3, seed=9, dtype=np.float64).forward(
            small_adjacency, h
        )
        out2 = build_model("GAT", 5, 8, 3, seed=9, dtype=np.float64).forward(
            small_adjacency, h
        )
        assert np.array_equal(out1, out2)

    def test_flops_counted(self, rng, small_adjacency):
        model = build_model("GAT", 5, 8, 3, num_layers=2)
        counter = FlopCounter()
        model.forward(small_adjacency, rng.normal(size=(60, 5)).astype(np.float32),
                      counter=counter)
        assert counter.total > 0
        assert "SpMM" in counter.by_label

    def test_backward_requires_training_forward(self, rng, small_adjacency):
        model = build_model("VA", 5, 8, 3, num_layers=2, dtype=np.float64)
        h = rng.normal(size=(60, 5))
        model.forward(small_adjacency, h, training=False)
        with pytest.raises(RuntimeError):
            model.backward(np.zeros((60, 3)))

    def test_zero_caches_frees_state(self, rng, small_adjacency):
        model = build_model("VA", 5, 8, 3, num_layers=2, dtype=np.float64)
        model.forward(small_adjacency, rng.normal(size=(60, 5)))
        model.zero_caches()
        with pytest.raises(RuntimeError):
            model.backward(np.zeros((60, 3)))


class TestOneAttentionLayer:
    """Eq. (1) is written once: a model is its Psi spec, nothing more."""

    RETIRED = (
        "GenericLayer", "PairwiseAttentionLayer", "VALayer", "AGNNLayer",
        "GATLayer", "MultiHeadGATLayer", "GCNLayer",
    )

    def test_every_model_builds_the_same_layer_class(self):
        cases = [("VA", {}), ("AGNN", {}), ("GCN", {}),
                 ("GAT", {"heads": 1}), ("GAT", {"heads": 4})]
        types = {
            type(layer)
            for name, kwargs in cases
            for layer in build_model(name, 8, 16, 3, **kwargs).layers
        }
        assert types == {AttentionLayer}

    def test_hand_written_layers_are_not_exported(self):
        for package in (repro.core, repro.models):
            for name in self.RETIRED:
                assert not hasattr(package, name), f"{package.__name__}.{name}"

    def test_no_signature_takes_batched(self):
        """Head-batched is how heads run, not a switch."""
        package = Path(repro.models.__file__).parent.parent
        offenders = [
            f"{path.relative_to(package)}:{getattr(node, 'name', 'lambda')}"
            for sub in ("models", "distributed")
            for path in sorted((package / sub).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for arg in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
            if arg.arg == "batched"
        ]
        assert offenders == []


class TestLayerValidation:
    # ids predate the one-layer refactor; kept so the test history
    # of each case stays one line.
    @pytest.mark.parametrize(
        "spec", [layer_spec("va"), layer_spec("agnn"), GCN],
        ids=["VALayer", "AGNNLayer", "GCNLayer"],
    )
    def test_invalid_order_rejected(self, spec):
        with pytest.raises(ValueError):
            AttentionLayer(4, 4, spec, order="diagonal_first")

    def test_multihead_invalid_combine(self):
        with pytest.raises(ValueError):
            AttentionLayer(4, 4, layer_spec("gat"), heads=2, combine="xor")


class TestMultiHeadGAT:
    def test_concat_width(self, rng, small_adjacency):
        layer = AttentionLayer(5, 4, layer_spec("gat"), heads=3, combine="concat",
                               dtype=np.float64)
        out, _ = layer.forward(small_adjacency, rng.normal(size=(60, 5)))
        assert out.shape == (60, 12)

    def test_mean_width(self, rng, small_adjacency):
        layer = AttentionLayer(5, 4, layer_spec("gat"), heads=3, combine="mean",
                               dtype=np.float64)
        out, _ = layer.forward(small_adjacency, rng.normal(size=(60, 5)))
        assert out.shape == (60, 4)

    def test_single_head_mean_matches_gat_layer(self, rng, small_adjacency):
        """One head: ``combine`` is moot and the parameters are plain."""
        multi = AttentionLayer(5, 4, layer_spec("gat"), heads=1, combine="mean",
                               activation="elu", seed=7, dtype=np.float64)
        single = AttentionLayer(5, 4, layer_spec("gat"), activation="elu", seed=7,
                                dtype=np.float64)
        assert set(multi.parameters()) == {"weight", "a_src", "a_dst"}
        h = rng.normal(size=(60, 5))
        out_m, cache = multi.forward(small_adjacency, h)
        out_s, _ = single.forward(small_adjacency, h)
        assert np.array_equal(out_m, out_s)
        # ... and the kernels saw 2-D operands, not a (n, 1, d) stack.
        assert cache.hp.ndim == 2 and cache.ops["u"].ndim == 1
        assert cache.stats.denom.shape == (60, 1)

    def test_model_factory_with_heads(self, rng, small_adjacency):
        model = build_model("GAT", 5, 4, 3, num_layers=2, heads=2,
                            dtype=np.float64)
        out = model.forward(small_adjacency, rng.normal(size=(60, 5)))
        assert out.shape == (60, 3)


class TestNormalizeAdjacency:
    def test_sym_rows_scale(self, small_adjacency):
        norm = normalize_adjacency(small_adjacency, mode="sym")
        # Symmetric normalisation of a symmetric pattern stays symmetric.
        dense = norm.to_dense()
        assert np.allclose(dense, dense.T, atol=1e-6)

    def test_row_normalisation_sums_to_one(self, small_adjacency):
        norm = normalize_adjacency(small_adjacency, mode="row")
        assert np.allclose(norm.row_sum(), 1.0, atol=1e-6)

    def test_none_mode_keeps_binary(self, small_adjacency):
        norm = normalize_adjacency(small_adjacency, mode="none")
        assert set(np.unique(norm.data)) == {1.0}

    def test_invalid_mode(self, small_adjacency):
        with pytest.raises(ValueError):
            normalize_adjacency(small_adjacency, mode="cube")


class TestOneModelBuilder:
    """One policy turns a model description into a layer stack: the
    resolver (a name or an ``AttentionSpec`` → Ψ and its hidden
    activation) and the stacking loop, shared by ``build_model`` and
    ``build_dist_model`` (``ast`` scan of ``src/repro`` included)."""

    CASES = [("va", {}), ("agnn", {}), ("agnn", {"learnable_beta": True}),
             ("gat", {"heads": 1}), ("gat", {"heads": 2}), ("gcn", {})]
    LAYERS = {"AttentionLayer", "DistAttentionLayer", "DistGCNLayer", "GINLayer"}
    BUILTINS = {"va", "agnn", "gat", "gcn"}
    GONE = {"va_model", "agnn_model", "gat_model", "gcn_model", "gin_model", "_stack", "_SPECS",
            "VA", "agnn_spec", "gat_spec", "LAYER_DAG_BUILDERS", "_require_finite"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [1, 4])
    def test_parameters_bit_equal_to_the_distributed_stack(self, p, dtype):
        def program(comm):
            grid = square_grid(comm)
            return [state_dict(build_dist_model(grid, name, 6, 8, 3, seed=5, dtype=dtype, **kw))
                    for name, kw in self.CASES]

        ranks = run_spmd(p, program, timeout=60).values
        for case, (name, kw) in enumerate(self.CASES):
            single = state_dict(build_model(name, 6, 8, 3, seed=5, dtype=dtype, **kw))
            for rank in ranks:
                dist = rank[case]
                assert dist.keys() == single.keys(), (name, kw)
                for key, value in single.items():
                    assert dist[key].dtype == value.dtype and np.array_equal(dist[key], value)

    def test_a_spec_builds_what_its_name_builds(self):
        by_name = build_model("GAT", 6, 8, 3, seed=2, slope=0.1)
        by_spec = build_model(layer_spec("gat", slope=0.1), 6, 8, 3, seed=2)
        assert [layer.activation.name for layer in by_spec.layers] == ["elu", "elu", "identity"]
        named, specced = state_dict(by_name), state_dict(by_spec)
        assert named.keys() == specced.keys()
        assert all(np.array_equal(named[key], specced[key]) for key in named)
        with pytest.raises(TypeError, match="a spec takes no model keywords"):
            build_model(layer_spec("gat"), 6, 8, 3, slope=0.1)

    def test_a_dag_lowered_spec_runs_on_every_engine(self):
        spec = lower_layer_dag(gat_layer_dag(), "derived-gat")
        data = synthetic_classification(n=120, feature_dim=6, seed=1)
        a, x, y, k = data.adjacency, data.features.astype(np.float64), data.labels, data.num_classes
        build = partial(build_model, spec, 6, 8, k, num_layers=2, seed=3, dtype=np.float64)
        full = Trainer(build(), SoftmaxCrossEntropyLoss(), SGD(0.1)).fit(a, x, y, epochs=3).losses
        sampled = MinibatchTrainer(
            build(), SoftmaxCrossEntropyLoss(), SGD(0.1), fanouts=(None, None),
            batch_size=len(y), shuffle=False,
        ).fit(a, x, y, epochs=3, full_eval=False).losses
        assert sampled == full
        local, _ = dist_local_train(spec, a, x, y, 8, k, num_layers=2, p=4, epochs=3, lr=0.1,
                                    seed=3, dtype=np.float64)
        np.testing.assert_allclose(local, full, rtol=1e-10)
        grid = distributed_train(spec, a, x, y, 8, k, num_layers=2, p=4, epochs=3, lr=0.1,
                                 seed=3, dtype=np.float64).losses
        np.testing.assert_allclose(grid, full, rtol=1e-10)
        batches, _ = minibatch_train(spec, a, x, y, 8, k, num_layers=2, p=2, iterations=2,
                                     config=MiniBatchConfig(batch_size=32, fanouts=(4, 4)), seed=3)
        assert len(batches) == 2 and np.all(np.isfinite(batches))
        model = build()
        served = ServingEngine(model, a, x, cache=None).serve(np.arange(0, 120, 7))
        np.testing.assert_allclose(served, model.forward(a, x, training=False)[::7],
                                   rtol=1e-10, atol=1e-12)

    # -- structure -----------------------------------------------------
    @pytest.fixture(scope="class")
    def trees(self):
        package = Path(repro.__file__).parent
        return {
            path.relative_to(package).as_posix(): ast.parse(path.read_text())
            for path in sorted(package.rglob("*.py"))
        }

    @staticmethod
    def _name(func):
        return getattr(func, "id", getattr(func, "attr", None))

    def test_layers_are_constructed_only_for_the_one_stacking_loop(self, trees):
        """Every ``AttentionLayer`` / ``DistAttentionLayer`` /
        ``DistGCNLayer`` / ``GINLayer`` construction sits in a layer
        callable handed to ``stack_layers`` (``DagLayer`` builds through
        ``super().__init__``), and only the model builders hand it one."""
        definitions, builders, offenders = [], set(), []
        for path, tree in trees.items():
            parents = {child: node for node in ast.walk(tree)
                       for child in ast.iter_child_nodes(node)}

            def scope(node):
                while node in parents and not isinstance(
                        node, (ast.FunctionDef, ast.Lambda)):
                    node = parents[node]
                return node

            makers = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "stack_layers":
                    definitions.append(path)
                if isinstance(node, ast.Call) and self._name(node.func) == "stack_layers":
                    builder = scope(parents[node])
                    builders.add(f"{path}:{builder.name}")
                    maker = node.args[0]
                    makers.update([maker] if isinstance(maker, ast.Lambda) else [
                        d for d in ast.walk(builder)
                        if isinstance(d, ast.FunctionDef) and d.name == maker.id])
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and self._name(node.func) in self.LAYERS
                        and scope(node) not in makers):
                    offenders.append(f"{path}:{node.lineno}")
        assert definitions == ["models/base.py"]
        assert builders == {"models/__init__.py:build_model",
                            "distributed/model.py:build_dist_model"}
        assert offenders == []

    def test_one_name_to_spec_table(self, trees):
        """No built-in model name keys two tables: ``SPECS`` alone maps
        VA / AGNN / GAT to their layer DAGs and GCN to its spec."""
        tables = [
            f"{path}:{node.lineno}"
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            and any(isinstance(key, ast.Constant) and key.value in self.BUILTINS
                    for key in node.keys)
        ]
        assert [table.split(":")[0] for table in tables] == ["models/attention.py"]
        gone = [
            f"{path}:{getattr(node, 'name', getattr(node, 'id', ''))}"
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if getattr(node, "name", None) in self.GONE
            or (isinstance(node, ast.Name) and node.id in self.GONE)
        ]
        assert gone == []

    def test_only_the_lowering_writes_an_operand_vjp(self, trees):
        """Every built-in Ψ is written once, as a layer DAG: the one
        ``AttentionSpec`` with ``operands_vjp`` in the library is the
        lowering's; the hand-written VJPs are the tests' oracle."""
        writers = {
            path
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and self._name(node.func) == "AttentionSpec"
            and any(keyword.arg == "operands_vjp" for keyword in node.keywords)
        }
        assert writers == {"fusion/lower.py"}
        assert "multihead" not in {field.name for field in dataclasses.fields(AttentionSpec)}

    # -- refused arguments ---------------------------------------------
    @pytest.mark.parametrize("heads", [0, -1])
    def test_heads_below_one_refused(self, small_adjacency, heads):
        with pytest.raises(ValueError, match="heads must be >= 1"):
            build_model("gat", 4, 8, 3, heads=heads)
        with pytest.raises(ValueError, match="heads must be >= 1"):
            distributed_inference("gat", small_adjacency, np.ones((60, 4)), 8, 3, p=4,
                                  heads=heads)

    @pytest.mark.parametrize("arg,dims", [("in_dim", (0, 8, 3)), ("hidden_dim", (4, 0, 3)),
                                          ("out_dim", (4, 8, -1))])
    def test_non_positive_dimensions_refused(self, arg, dims):
        with pytest.raises(ValueError, match=f"^{arg} must be positive"):
            build_model("gat", *dims)

    @pytest.mark.parametrize("model,arg,value", [
        ("gat", "slope", float("nan")), ("agnn", "beta", float("inf")),
        ("agnn", "beta", float("nan")), ("gat", "slope", float("-inf")),
    ])
    def test_non_finite_coefficients_refused(self, model, arg, value):
        """By the lowering, whichever way the DAG reaches it."""
        with pytest.raises(ValueError, match=f"{arg} must be finite, got {value!r}"):
            build_model(model, 6, 8, 3, **{arg: value})
        dag = {"gat": gat_layer_dag, "agnn": agnn_layer_dag}[model](**{arg: value})
        with pytest.raises(ValueError, match=f"{arg} must be finite, got {value!r}"):
            lower_layer_dag(dag)

    @pytest.mark.parametrize("model,arg,value", [
        pytest.param("gat", "slope", float("nan"), id="gat_spec-slope-nan"),
        pytest.param("agnn", "beta", float("inf"), id="agnn_spec-beta-inf"),
        pytest.param("agnn", "beta", float("nan"), id="agnn_spec-beta-nan"),
    ])
    def test_non_finite_coefficients_refused(self, model, arg, value):
        """The model's spec and the builder refuse it, naming the argument."""
        for build in (partial(layer_spec, model), partial(build_model, model, 4, 8, 3)):
            with pytest.raises(ValueError, match=f"{arg} must be finite, got {value!r}"):
                build(**{arg: value})

    @pytest.mark.parametrize("engine", ["distributed_inference", "distributed_train",
                                        "minibatch_train", "dist_local_train"])
    def test_model_arguments_refused_before_any_rank_starts(self, small_adjacency, engine):
        """A ``ValueError`` in the caller's thread: a rank's error would
        reach it as ``RuntimeError``."""
        x, y = np.ones((60, 4)), np.zeros(60, dtype=np.int64)
        run = {
            "distributed_inference": lambda: distributed_inference(
                "VA", small_adjacency, x, 8, 3, p=4, heads=2),
            "distributed_train": lambda: distributed_train(
                "transformer", small_adjacency, x, y, 8, 3, p=4),
            "minibatch_train": lambda: minibatch_train(
                "transformer", small_adjacency, x, y, 8, 3, p=2),
            "dist_local_train": lambda: dist_local_train(
                "transformer", small_adjacency, x, y, 8, 3, p=3),
        }[engine]
        with pytest.raises(ValueError):
            run()

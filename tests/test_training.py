"""Tests for losses, optimisers, trainer and metrics."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.models import build_model, normalize_adjacency
from repro.training import (
    Adam,
    SGD,
    SoftmaxCrossEntropyLoss,
    Trainer,
    accuracy,
)
from repro.training.loss import block_loss_terms, cross_entropy_terms


class TestCrossEntropy:
    def test_value_matches_manual(self, rng):
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, 5)
        loss = SoftmaxCrossEntropyLoss()
        probs = np.exp(logits) / np.exp(logits).sum(1, keepdims=True)
        manual = -np.log(probs[np.arange(5), labels]).mean()
        assert np.isclose(loss.value(logits, labels), manual)

    def test_gradient_numeric(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, 6)
        loss = SoftmaxCrossEntropyLoss()
        grad = loss.gradient(logits, labels)
        eps = 1e-6
        for _ in range(10):
            i, j = rng.integers(0, 6), rng.integers(0, 4)
            up = logits.copy(); up[i, j] += eps
            down = logits.copy(); down[i, j] -= eps
            num = (loss.value(up, labels) - loss.value(down, labels)) / (2 * eps)
            assert np.isclose(grad[i, j], num, atol=1e-5)

    def test_mask_restricts_loss_and_gradient(self, rng):
        logits = rng.normal(size=(8, 3))
        labels = rng.integers(0, 3, 8)
        mask = np.zeros(8, dtype=bool)
        mask[:3] = True
        loss = SoftmaxCrossEntropyLoss(mask)
        grad = loss.gradient(logits, labels)
        assert np.allclose(grad[~mask], 0)
        unmasked = SoftmaxCrossEntropyLoss()
        assert np.isclose(
            loss.value(logits, labels),
            unmasked.value(logits[:3], labels[:3]),
        )

    def test_empty_mask_is_zero(self, rng):
        loss = SoftmaxCrossEntropyLoss(np.zeros(4, dtype=bool))
        logits = rng.normal(size=(4, 2))
        assert loss.value(logits, np.zeros(4, dtype=int)) == 0.0

    def test_stable_for_huge_logits(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.array([[1e4, -1e4], [5e3, 5e3]])
        value = loss.value(logits, np.array([0, 1]))
        assert np.isfinite(value)


class TestSharedLossTerms:
    """One copy of each loss's arithmetic serves the ``Loss`` classes
    (local count) and the partitioned runs (global count)."""

    CASES = [
        # (terms, Loss class, target maker, averaged terms per row)
        (cross_entropy_terms, SoftmaxCrossEntropyLoss,
         lambda rng, n, c: rng.integers(0, c, n), lambda c: 1),
    ]

    @pytest.mark.parametrize("terms, loss_cls, make_target, per_row", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_local_count_is_the_loss_class(
        self, rng, terms, loss_cls, make_target, per_row, dtype
    ):
        h = rng.normal(size=(11, 4)).astype(dtype)
        target = make_target(rng, 11, 4)
        count = 11 * per_row(4)
        total, grad = terms(h, target, count)
        assert total / count == loss_cls().value(h, target)
        expected = loss_cls().gradient(h, target)
        assert expected.dtype == dtype
        assert np.array_equal(grad.astype(dtype), expected)

    @pytest.mark.parametrize("terms, loss_cls, make_target, per_row", CASES)
    def test_blocks_with_the_global_count_add_up(
        self, rng, terms, loss_cls, make_target, per_row
    ):
        h = rng.normal(size=(12, 4))
        target = make_target(rng, 12, 4)
        mask = rng.random(12) < 0.6
        mask[[0, 6]] = True  # both halves hold labelled rows
        count = int(mask.sum()) * per_row(4)
        halves = [
            block_loss_terms(terms, h[rows], target[rows], mask[rows], count)
            for rows in (slice(0, 6), slice(6, 12))
        ]
        loss = loss_cls(mask)
        # The sums associate differently (two halves vs one pass): one
        # ulp of slack; the gradients are the same numbers.
        assert sum(t for t, _ in halves) / count == pytest.approx(
            loss.value(h, target), rel=1e-15
        )
        assert np.array_equal(
            np.concatenate([g for _, g in halves]), loss.gradient(h, target)
        )

    def test_unmasked_block_and_empty_block(self, rng):
        h = rng.normal(size=(5, 3)).astype(np.float32)
        y = rng.integers(0, 3, 5)
        total, grad = block_loss_terms(cross_entropy_terms, h, y, None, 5)
        assert total / 5 == SoftmaxCrossEntropyLoss().value(h, y)
        assert grad.dtype == np.float32
        nothing = np.zeros(5, dtype=bool)
        total, grad = block_loss_terms(cross_entropy_terms, h, y, nothing, 7)
        assert total == 0.0 and not grad.any() and grad.shape == h.shape


class TestOneTrainingStack:
    """Structure: one model class, one copy of the loss arithmetic, one
    SGD, one layer walk, one training step and one sampler (``ast`` scan
    of ``src/repro``)."""

    GONE_DEFS = {
        "apply_gradients", "redistribute", "_block_loss_gradient",
        "_loss_denominator", "distributed_training_step",
        "minibatch_train_pipelined", "to_payload", "from_payload",
    }
    PER_CALL = {"grid", "sequencer", "overlap", "need_input_grad"}

    @pytest.fixture(scope="class")
    def trees(self):
        package = Path(repro.__file__).parent
        return {
            path.relative_to(package).as_posix(): ast.parse(path.read_text())
            for path in sorted(package.rglob("*.py"))
        }

    def test_removed_names_are_defined_nowhere(self, trees):
        offenders = [
            f"{path}:{node.name}"
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if (isinstance(node, ast.ClassDef) and node.name == "DistGnnModel")
            or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in self.GONE_DEFS)
        ]
        assert offenders == []

    def test_log_softmax_is_called_only_by_the_loss_module(self, trees):
        callers = {
            path
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "log_softmax"
        }
        assert callers == {"training/loss.py"}

    @staticmethod
    def _callers(trees, matches):
        """``path:Qual.name`` of every function whose own body (nested
        definitions apart) makes a call whose callee ``matches``."""
        found = set()

        def visit(path, node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                elif isinstance(child, ast.Call) and matches(child.func):
                    found.add(f"{path}:{'.'.join(scope)}")
                visit(path, child, inner)

        for path, tree in trees.items():
            visit(path, tree, ())
        return found

    def test_error_chaining_is_written_once(self, trees):
        """Eq. 4/6's sigma' mask: only the one layer walk applies it."""
        callers = self._callers(
            trees, lambda f: getattr(f, "attr", None) == "grad"
            and getattr(f.value, "attr", None) == "activation",
        )
        assert callers == {"models/base.py:backward_blocks"}

    def test_one_step_updates_parameters(self, trees):
        callers = self._callers(trees, lambda f: getattr(f, "attr", None) == "step")
        assert callers == {"training/trainer.py:train_step"}

    def test_every_training_loop_runs_the_one_step(self, trees):
        callers = self._callers(
            trees, lambda f: getattr(f, "id", getattr(f, "attr", None)) == "train_step"
        )
        assert callers == {
            "training/trainer.py:Trainer.fit.epoch_losses",
            "training/minibatch.py:MinibatchTrainer.fit.epoch_losses",
            "distributed/api.py:distributed_train.program",
            "baselines/dist_local.py:dist_local_train.program",
            "baselines/minibatch.py:minibatch_train.program",
        }

    def test_batch_sources_reach_one_sampler(self, trees):
        """Only the sampling module draws edges itself; the batch sources
        reach it through ``sample_blocks`` (training and the DistDGL-style
        baseline) and ``sample_one_hop`` (serving's per-level descent)."""
        callers = {
            f"{caller}->{entry}"
            for entry in ("sample_edges", "sampling_graph_of", "sample_one_hop", "sample_blocks")
            for caller in self._callers(
                trees, lambda f, entry=entry: getattr(f, "id", getattr(f, "attr", None)) == entry
            )
            if not caller.startswith("tensor/sampling_graph.py:")
        }
        assert callers == {
            "training/minibatch.py:MinibatchTrainer.fit.epoch_losses->sample_blocks",
            "baselines/minibatch.py:minibatch_train.program->sample_blocks",
            "serving/batcher.py:compute_union_rows->sample_one_hop",
        }

    def test_passes_take_no_per_call_binding(self, trees):
        offenders = [
            f"{path}:{node.name}({arg.arg})"
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in ("forward", "backward")
            for arg in node.args.args + node.args.kwonlyargs
            if arg.arg in ("need_input_grad", "sequencer")
            or (path.startswith("distributed/") and arg.arg in self.PER_CALL)
        ]
        assert offenders == []


class TestOptimizers:
    def _quadratic_problem(self):
        """Minimise ||W - target||^2 through the optimiser interface."""

        class FakeModel:
            def __init__(self):
                self.w = np.array([5.0, -3.0])

            def parameters(self):
                return [{"w": self.w}]

        return FakeModel()

    def test_sgd_descends(self):
        model = self._quadratic_problem()
        opt = SGD(lr=0.1)
        for _ in range(200):
            opt.step(model, [{"w": 2 * model.w}])
        assert np.allclose(model.w, 0, atol=1e-6)

    def test_sgd_momentum_accelerates_early(self):
        plain, momentum = self._quadratic_problem(), self._quadratic_problem()
        opt_p, opt_m = SGD(lr=0.01), SGD(lr=0.01, momentum=0.9)
        for _ in range(20):
            opt_p.step(plain, [{"w": 2 * plain.w}])
            opt_m.step(momentum, [{"w": 2 * momentum.w}])
        assert np.abs(momentum.w).sum() < np.abs(plain.w).sum()

    def test_sgd_momentum_converges(self):
        model = self._quadratic_problem()
        opt = SGD(lr=0.01, momentum=0.9)
        for _ in range(800):
            opt.step(model, [{"w": 2 * model.w}])
        assert np.allclose(model.w, 0, atol=1e-4)

    def test_adam_descends(self):
        model = self._quadratic_problem()
        opt = Adam(lr=0.3)
        for _ in range(300):
            opt.step(model, [{"w": 2 * model.w}])
        assert np.allclose(model.w, 0, atol=1e-3)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD(lr=-1)
        with pytest.raises(ValueError):
            SGD(lr=0.1, momentum=1.5)


class TestTrainer:
    @pytest.mark.parametrize("name", ["VA", "AGNN", "GAT", "GCN"])
    def test_models_learn_sbm(self, sbm_data, name):
        a = (
            normalize_adjacency(sbm_data.adjacency)
            if name == "GCN"
            else sbm_data.adjacency
        )
        model = build_model(name, 12, 16, sbm_data.num_classes,
                            num_layers=2, seed=0)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(sbm_data.train_mask), Adam(0.01)
        )
        result = trainer.fit(
            a, sbm_data.features, sbm_data.labels, epochs=40,
            train_mask=sbm_data.train_mask,
        )
        test_acc = trainer.evaluate(
            a, sbm_data.features, sbm_data.labels, sbm_data.test_mask
        )
        assert result.losses[-1] < result.losses[0]
        assert test_acc > 0.8  # planted partition is easily separable

    def test_early_stopping(self, sbm_data):
        model = build_model("GCN", 12, 8, sbm_data.num_classes, num_layers=2)
        a = normalize_adjacency(sbm_data.adjacency)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(sbm_data.train_mask), Adam(0.05)
        )
        result = trainer.fit(
            a, sbm_data.features, sbm_data.labels, epochs=500,
            val_mask=sbm_data.val_mask, patience=5,
        )
        assert len(result.losses) < 500

    def test_patience_without_val_mask_is_rejected(self, sbm_data):
        """Early stopping reads validation accuracy; without a val_mask
        ``patience`` used to be ignored silently."""
        model = build_model("GCN", 12, 8, sbm_data.num_classes, num_layers=2)
        trainer = Trainer(model, SoftmaxCrossEntropyLoss(), SGD(0.01))
        with pytest.raises(ValueError, match="val_mask"):
            trainer.fit(sbm_data.adjacency, sbm_data.features, sbm_data.labels,
                        epochs=3, patience=0)

    def test_one_loss_evaluation_per_epoch(self, sbm_data, monkeypatch):
        """The step reads value and gradient from one evaluation, so the
        log-softmax runs once per epoch."""
        import repro.training.loss as loss_module

        calls = []
        original = loss_module.log_softmax
        monkeypatch.setattr(loss_module, "log_softmax",
                            lambda z: calls.append(1) or original(z))
        model = build_model("GCN", 12, 8, sbm_data.num_classes, num_layers=2)
        Trainer(model, SoftmaxCrossEntropyLoss(), SGD(0.01)).fit(
            sbm_data.adjacency, sbm_data.features, sbm_data.labels, epochs=3)
        assert len(calls) == 3


class TestMetrics:
    def test_accuracy_perfect_and_zero(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0

    def test_accuracy_masked(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels, np.array([True, True, False])) == 1.0

    def test_empty_selection(self):
        assert accuracy(np.empty((0, 2)), np.empty(0, dtype=int)) == 0.0


class TestOptimizerExtensions:
    def _model(self):
        class FakeModel:
            def __init__(self):
                self.w = np.array([4.0, -4.0])

            def parameters(self):
                return [{"w": self.w}]

        return FakeModel()

    def test_weight_decay_shrinks_parameters(self):
        model = self._model()
        opt = SGD(lr=0.1, weight_decay=0.5)
        for _ in range(50):
            opt.step(model, [{"w": np.zeros(2)}])  # zero task gradient
        assert np.abs(model.w).max() < 0.5  # pure decay pulls to zero

    def test_clip_norm_bounds_step(self):
        model = self._model()
        before = model.w.copy()
        opt = SGD(lr=1.0, clip_norm=1.0)
        opt.step(model, [{"w": np.array([1e6, -1e6])}])
        step = np.linalg.norm(model.w - before)
        assert step == pytest.approx(1.0, rel=1e-6)

    def test_clip_skips_non_finite_gradients(self):
        model = self._model()
        before = model.w.copy()
        opt = SGD(lr=1.0, clip_norm=1.0)
        opt.step(model, [{"w": np.array([np.inf, 1.0])}])
        assert np.array_equal(model.w, before)

    def test_va_training_stabilised_by_clipping(self, sbm_data):
        """The VA model's unnormalised scores explode under plain SGD;
        clipping keeps the run finite and learning."""
        model = build_model("VA", 12, 16, sbm_data.num_classes,
                            num_layers=2, seed=0)
        trainer = Trainer(
            model,
            SoftmaxCrossEntropyLoss(sbm_data.train_mask),
            Adam(0.01, clip_norm=5.0),
        )
        result = trainer.fit(
            sbm_data.adjacency, sbm_data.features, sbm_data.labels,
            epochs=30,
        )
        assert np.isfinite(result.losses[-1])
        assert result.losses[-1] < result.losses[0]

    def test_invalid_extension_arguments(self):
        with pytest.raises(ValueError):
            SGD(lr=0.1, weight_decay=-1)
        with pytest.raises(ValueError):
            Adam(lr=0.1, clip_norm=0)

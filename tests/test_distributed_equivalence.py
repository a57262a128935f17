"""Distributed-vs-single-node equivalence — the library's core guarantee.

The 1.5D global-formulation execution must produce the same numbers as
the single-node models for every built-in spec (VA; AGNN with fixed and
learnable beta; GAT with one head, and with three — concatenated hidden,
averaged last; GCN), for inference and full-batch training, on p = 1, 4
and 9 ranks, including vertex counts that do not divide evenly and rows
that are empty in some blocks or in all of them. The two differ by
summation order only — a row's softmax is merged from per-block row
statistics — within the tolerances written below.
"""

import numpy as np
import pytest

from repro.distributed.api import distributed_inference, distributed_train
from repro.distributed.partition import block_range
from repro.fusion import DagLayer
from repro.graphs import synthetic_classification
from repro.models import GnnModel, build_model, normalize_adjacency
from repro.tensor.csr import CSRMatrix
from repro.training import SGD, SoftmaxCrossEntropyLoss, Trainer
from repro.util.rng import make_rng

#: Test id -> (model name, model keywords).
CASES = {
    "VA": ("VA", {}),
    "AGNN": ("AGNN", {}),
    "AGNN-learnable-beta": ("AGNN", {"learnable_beta": True}),
    "GAT": ("GAT", {}),
    "GAT-3-heads": ("GAT", {"heads": 3}),
    "GCN": ("GCN", {}),
}
#: Written tolerances, relative: outputs to max(1, |reference|), losses
#: per epoch to max(1, |loss|). float32 is measured at <= 2.4e-7 / 1.2e-8
#: on ``problem``; the margin covers other graphs and seeds.
TOL = {np.float64: (1e-10, 1e-8), np.float32: (1e-5, 1e-5)}
GRIDS = (1, 4, 9)


@pytest.fixture(scope="module")
def problem():
    data = synthetic_classification(n=123, feature_dim=7, seed=2)
    return data


@pytest.fixture(scope="module")
def sparse():
    """45 vertices, about two entries a row: at p = 9 (blocks of five)
    most rows are empty in some of their grid row's blocks, and rows 7
    and 30 (with any others the draw leaves bare) in all of them."""
    rng = np.random.default_rng(11)
    dense = (rng.random((45, 45)) < 0.05) * rng.uniform(0.5, 1.5, (45, 45))
    dense[[7, 30]] = 0
    a = CSRMatrix.from_dense(dense)
    held = sum(
        a.extract_block(0, 45, *block_range(45, 3, j)).row_lengths() > 0
        for j in range(3)
    )
    assert held[7] == held[30] == 0 and ((held > 0) & (held < 3)).any()
    return a, rng.normal(size=(45, 7)), rng.integers(0, 4, 45)


def adjacency_for(name, data):
    return (
        normalize_adjacency(data.adjacency)
        if name == "GCN"
        else data.adjacency
    )


def inference_gap(case, a, h, p, num_layers=3):
    """Largest output difference, relative to max(1, |reference|)."""
    name, kw = CASES[case]
    reference = build_model(
        name, h.shape[1], 8, 4, num_layers=num_layers, seed=5, dtype=h.dtype, **kw
    ).forward(a, h, training=False)
    result = distributed_inference(
        name, a, h, 8, 4, num_layers=num_layers, p=p, seed=5, dtype=h.dtype, **kw
    )
    return np.abs(result.output - reference).max() / max(1.0, np.abs(reference).max())


def training_gap(case, a, h, labels, p, mask=None, epochs=4, lr=0.005):
    """Largest per-epoch loss difference of two-layer training, relative."""
    name, kw = CASES[case]
    model = build_model(name, h.shape[1], 8, 4, num_layers=2, seed=5, dtype=h.dtype, **kw)
    reference = Trainer(model, SoftmaxCrossEntropyLoss(mask), SGD(lr)).fit(
        a, h, labels, epochs=epochs
    ).losses
    result = distributed_train(
        name, a, h, labels, 8, 4, num_layers=2, p=p, epochs=epochs, lr=lr,
        mask=mask, seed=5, dtype=h.dtype, **kw,
    )
    assert len(result.losses) == epochs
    return max(abs(r - d) / max(1.0, abs(r)) for r, d in zip(reference, result.losses))


class TestInferenceEquivalence:
    @pytest.mark.parametrize("p", GRIDS)
    @pytest.mark.parametrize("name", CASES)
    def test_matches_single_node(self, problem, name, p):
        a = adjacency_for(CASES[name][0], problem)
        h = problem.features.astype(np.float64)
        assert inference_gap(name, a, h, p) < TOL[np.float64][0]

    def test_single_rank_has_zero_volume(self, problem):
        result = distributed_inference(
            "GAT", problem.adjacency, problem.features, 8, 4, p=1, seed=0
        )
        assert result.stats.max_bytes_sent == 0

    def test_communication_recorded_for_multi_rank(self, problem):
        result = distributed_inference(
            "GAT", problem.adjacency, problem.features, 8, 4, p=4, seed=0
        )
        assert result.stats.max_words_sent > 0
        phases = result.stats.phase_bytes()
        assert phases.get("redistribute", 0) > 0
        assert phases.get("psi", 0) > 0


class TestTrainingEquivalence:
    @pytest.mark.parametrize("name", CASES)
    def test_loss_trajectories_match(self, problem, name):
        """Four epochs at p = 1, 4 and 9: the first loss is the forward,
        the later ones went through every gradient."""
        a = adjacency_for(CASES[name][0], problem)
        h = problem.features.astype(np.float64)
        for p in GRIDS:
            gap = training_gap(name, a, h, problem.labels, p, mask=problem.train_mask)
            assert gap < TOL[np.float64][1], p

    def test_p9_training(self, problem):
        a = problem.adjacency
        h = problem.features.astype(np.float64)
        model = build_model("GAT", 7, 8, 4, num_layers=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(problem.train_mask), SGD(0.01)
        )
        reference = trainer.fit(a, h, problem.labels, epochs=3)
        result = distributed_train(
            "GAT", a, h, problem.labels, 8, 4, num_layers=2, p=9, epochs=3,
            lr=0.01, mask=problem.train_mask, seed=5, dtype=np.float64,
        )
        assert np.allclose(reference.losses, result.losses, rtol=1e-9)

    def test_training_output_matches_forward(self, problem):
        """Final collected output equals a fresh model trained identically."""
        a = problem.adjacency
        h = problem.features.astype(np.float64)
        result = distributed_train(
            "AGNN", a, h, problem.labels, 8, 4, num_layers=2, p=4,
            epochs=2, lr=0.01, mask=problem.train_mask, seed=5,
            dtype=np.float64,
        )
        model = build_model("AGNN", 7, 8, 4, num_layers=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(problem.train_mask), SGD(0.01)
        )
        # result.output is the forward output of the *last* epoch, i.e.
        # before the final weight update: one update in.
        trainer.fit(a, h, problem.labels, epochs=1)
        expected = model.forward(a, h, training=False)
        assert result.output.shape == expected.shape == (123, 4)
        gap = np.abs(result.output - expected).max() / max(1.0, np.abs(expected).max())
        assert gap < TOL[np.float64][0]


class TestDerivedSpec:
    """The spec a ``DagLayer`` lowers from its layer DAG — no operand code,
    no VJP and no distributed code written for it — trains at p = 4."""

    @pytest.mark.parametrize("model", ["va", "agnn", "gat"])
    def test_trains_at_p4_like_the_single_node_stack(self, problem, model):
        # Unit-norm rows keep VA's unbounded dot-product scores tame.
        h = problem.features.astype(np.float64)
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        seeds, act = make_rng(5), "elu" if model == "gat" else "relu"
        single = GnnModel([
            DagLayer(model, 7, 8, act, fused=True, seed=seeds),
            DagLayer(model, 8, 4, "identity", fused=True, seed=seeds),
        ])
        mask = problem.train_mask
        reference = Trainer(single, SoftmaxCrossEntropyLoss(mask), SGD(0.005)).fit(
            problem.adjacency, h, problem.labels, epochs=4).losses
        result = distributed_train(
            single.layers[0].spec, problem.adjacency, h, problem.labels, 8, 4,
            num_layers=2, p=4, epochs=4, lr=0.005, mask=mask, seed=5, dtype=np.float64,
        )
        assert reference[-1] < reference[0]
        gap = max(abs(r - d) / max(1.0, abs(r)) for r, d in zip(reference, result.losses))
        assert gap < TOL[np.float64][1]


class TestFloat32:
    @pytest.mark.parametrize("name", CASES)
    def test_within_the_written_tolerance(self, problem, name):
        """Inference (three layers) and four epochs of training in
        float32 at p = 1, 4 and 9. Unit-norm features keep VA's unbounded
        dot-product scores finite in float32."""
        a = adjacency_for(CASES[name][0], problem)
        h = problem.features / np.linalg.norm(problem.features, axis=1, keepdims=True)
        h = h.astype(np.float32)
        out_tol, loss_tol = TOL[np.float32]
        for p in GRIDS:
            assert inference_gap(name, a, h, p) < out_tol, p
            gap = training_gap(name, a, h, problem.labels, p, mask=problem.train_mask)
            assert gap < loss_tol, p


class TestEmptyRows:
    @pytest.mark.parametrize("name", CASES)
    def test_rows_empty_in_some_blocks_or_all(self, sparse, name):
        """p = 9 on the sparse pattern: a block's empty rows add nothing to
        the merged softmax, and a row empty across its whole grid row
        divides by 1, as the single-node sweep's empty row does."""
        a, h, labels = sparse
        assert inference_gap(name, a, h, 9, num_layers=2) < TOL[np.float64][0]
        assert training_gap(name, a, h, labels, 9) < TOL[np.float64][1]

    def test_a_row_scored_below_exps_range(self, sparse):
        """AGNN with beta = 2000 on features where one row's neighbours
        all point away from it: each of its scores is below -1000, so
        exp() of it minus any shift but the row's own max underflows.
        Only a merge whose row max skips the blocks where the row is
        empty (the sweep reports a shift of 0 there) keeps its output."""
        a, h, _ = sparse
        held = sum(a.extract_block(0, 45, *block_range(45, 3, j)).row_lengths() > 0
                   for j in range(3))
        row = next(r for r in np.flatnonzero((held > 0) & (held < 3))
                   if r not in a.indices[a.indptr[r]:a.indptr[r + 1]])
        h = h.copy()
        h[a.indices[a.indptr[row]:a.indptr[row + 1]]] = -h[row]
        reference = build_model("AGNN", 7, 8, 4, num_layers=1, beta=2000.0,
                                seed=5, dtype=np.float64).forward(a, h, training=False)
        result = distributed_inference("AGNN", a, h, 8, 4, num_layers=1, p=9,
                                       beta=2000.0, seed=5, dtype=np.float64)
        assert np.abs(reference[row]).max() > 0.1
        gap = np.abs(result.output - reference).max() / max(1.0, np.abs(reference).max())
        assert gap < TOL[np.float64][0]


class TestDistributedValidation:
    def test_non_square_p_rejected(self, problem):
        with pytest.raises(ValueError, match="perfect square"):
            distributed_inference(
                "VA", problem.adjacency, problem.features, 8, 4, p=6, seed=0
            )

    def test_bad_loss_name(self, problem):
        # Rejected by the driver, before any rank starts.
        with pytest.raises(ValueError, match="loss must be one of"):
            distributed_train(
                "VA", problem.adjacency,
                problem.features.astype(np.float64), problem.labels,
                8, 4, p=4, loss="hinge", seed=0,
            )


class TestMultiHeadEquivalence:
    @pytest.mark.parametrize("p", [1, 4])
    def test_multihead_gat_inference(self, problem, p):
        h = problem.features.astype(np.float64)
        reference = build_model(
            "GAT", 7, 8, 4, num_layers=2, heads=3, seed=5, dtype=np.float64
        ).forward(problem.adjacency, h, training=False)
        result = distributed_inference(
            "GAT", problem.adjacency, h, 8, 4, num_layers=2, p=p, seed=5,
            dtype=np.float64, heads=3,
        )
        scale = max(1.0, np.abs(reference).max())
        assert np.abs(result.output - reference).max() / scale < 1e-10

    def test_multihead_gat_training(self, problem):
        h = problem.features.astype(np.float64)
        model = build_model("GAT", 7, 8, 4, num_layers=2, heads=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(problem.train_mask), SGD(0.01)
        )
        reference = trainer.fit(problem.adjacency, h, problem.labels,
                                epochs=3)
        result = distributed_train(
            "GAT", problem.adjacency, h, problem.labels, 8, 4,
            num_layers=2, p=4, epochs=3, lr=0.01, mask=problem.train_mask,
            seed=5, dtype=np.float64, heads=2,
        )
        assert np.allclose(reference.losses, result.losses, rtol=1e-9)

    def test_multihead_requires_gat(self, problem):
        # Refused in the caller's thread, before any rank starts.
        with pytest.raises(ValueError, match="multiple heads need a Psi on H W"):
            distributed_inference(
                "VA", problem.adjacency, problem.features, 8, 4, p=4,
                seed=0, heads=2,
            )

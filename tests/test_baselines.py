"""Tests for the local-formulation baselines (DGL/DistDGL stand-ins)."""

import numpy as np
import pytest

from repro.baselines import dist_local
from repro.baselines import minibatch as baseline_minibatch
from repro.baselines.dist_local import (
    build_partition,
    dist_local_inference,
    dist_local_train,
)
from tests.reference_message_passing import (
    LocalGraph,
    local_agnn_layer,
    local_gat_layer,
    local_va_layer,
)
from repro.baselines.minibatch import MiniBatchConfig, minibatch_train
from repro.graphs import synthetic_classification
from repro.models import build_model, normalize_adjacency
from repro.runtime import run_spmd
from repro.tensor.megakernel import attention_forward
from repro.training import SGD, SoftmaxCrossEntropyLoss, Trainer
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def problem():
    return synthetic_classification(n=123, feature_dim=7, seed=2)


class TestLocalVsGlobalFormulation:
    """Section 2.2 vs Section 4: the two views must agree numerically."""

    def test_va(self, rng, small_adjacency):
        h = rng.normal(size=(60, 5))
        w = rng.normal(size=(5, 4))
        graph = LocalGraph.single_node(small_adjacency, h)
        local = local_va_layer(graph, w)
        global_out, _ = attention_forward(small_adjacency, "dot", h @ w, x_src=h)
        assert np.allclose(local, global_out, atol=1e-9)

    def test_agnn(self, rng, small_adjacency):
        h = rng.normal(size=(60, 5))
        w = rng.normal(size=(5, 4))
        graph = LocalGraph.single_node(small_adjacency, h)
        local = local_agnn_layer(graph, w, beta=1.7)
        global_out, _ = attention_forward(
            small_adjacency, "cosine", h @ w, x_src=h,
            norms=np.sqrt((h * h).sum(axis=1)), beta=1.7,
        )
        assert np.allclose(local, global_out, atol=1e-9)

    def test_gat(self, rng, small_adjacency):
        h = rng.normal(size=(60, 5))
        w = rng.normal(size=(5, 4))
        a_src = rng.normal(size=4)
        a_dst = rng.normal(size=4)
        graph = LocalGraph.single_node(small_adjacency, h)
        local = local_gat_layer(graph, w, a_src, a_dst)
        global_out, _ = attention_forward(
            small_adjacency, "add", h @ w, u=h @ w @ a_src, v=h @ w @ a_dst
        )
        assert np.allclose(local, global_out, atol=1e-9)

    def test_update_all_rejects_unknown_reducer(self, rng, small_adjacency):
        graph = LocalGraph.single_node(small_adjacency,
                                       rng.normal(size=(60, 2)))
        with pytest.raises(NotImplementedError):
            graph.update_all(np.zeros((small_adjacency.nnz, 2)),
                             reducer="max")


def _engine_cases(name_p_id):
    """Every model x p in {1, 3, 4} x {binary, weighted adjacency}, each
    ``pytest.param(name, p, weighted)`` with id ``name_p_id(name, p)``,
    suffixed ``-weighted`` on a weighted adjacency."""
    return [
        pytest.param(
            name, p, weighted,
            id=name_p_id(name, p) + ("-weighted" if weighted else ""),
        )
        for weighted in (False, True)
        for p in (1, 3, 4)
        for name in ("VA", "AGNN", "GAT", "GCN", "GIN")
    ]


def _adjacency(problem, name, weighted):
    """The problem's graph, optionally with stored weights U(0.5, 2);
    GCN's is degree-normalised."""
    a = problem.adjacency
    if weighted:
        a = a.with_data(make_rng(9).uniform(0.5, 2.0, a.nnz))
    return normalize_adjacency(a) if name == "GCN" else a


class TestDistLocalEngine:
    @pytest.mark.parametrize(
        "name, p, weighted", _engine_cases(lambda name, p: f"{name}-{p}")
    )
    def test_inference_matches_single_node(self, problem, name, p, weighted):
        a = _adjacency(problem, name, weighted)
        h = problem.features.astype(np.float64)
        reference = build_model(
            name, 7, 8, 4, num_layers=3, seed=5, dtype=np.float64
        ).forward(a, h, training=False)
        out, stats = dist_local_inference(
            name, a, h, 8, 4, num_layers=3, p=p, seed=5, dtype=np.float64
        )
        scale = max(1.0, np.abs(reference).max())
        assert np.abs(out - reference).max() / scale < 1e-10
        if p > 1:
            assert stats.phase_bytes().get("halo", 0) > 0

    # p = 4, the engine's default rank count, goes unnamed in the id.
    @pytest.mark.parametrize(
        "name, p, weighted",
        _engine_cases(lambda name, p: name if p == 4 else f"{name}-{p}"),
    )
    def test_training_matches_single_node(self, problem, name, p, weighted):
        np.seterr(over="ignore", invalid="ignore")
        a = _adjacency(problem, name, weighted)
        h = problem.features.astype(np.float64)
        model = build_model(name, 7, 8, 4, num_layers=2, seed=5,
                            dtype=np.float64)
        trainer = Trainer(
            model, SoftmaxCrossEntropyLoss(problem.train_mask), SGD(0.005)
        )
        reference = trainer.fit(a, h, problem.labels, epochs=3)
        losses, _ = dist_local_train(
            name, a, h, problem.labels, 8, 4, num_layers=2, p=p, epochs=3,
            lr=0.005, mask=problem.train_mask, seed=5, dtype=np.float64,
        )
        for ref, got in zip(reference.losses, losses):
            assert abs(ref - got) / max(1.0, abs(ref)) < 1e-8

    @pytest.mark.parametrize("entry", ["inference", "train"])
    def test_multi_hop_layer_is_rejected_before_any_rank(
        self, problem, monkeypatch, entry
    ):
        """One halo exchange per layer reaches one hop: SGC's K-hop
        propagation would read a truncated neighbourhood."""
        monkeypatch.setattr(
            dist_local, "run_spmd",
            lambda *args, **kwargs: pytest.fail("a rank started"),
        )
        a, h = problem.adjacency, problem.features
        with pytest.raises(ValueError, match="SGC"):
            if entry == "inference":
                dist_local_inference("SGC", a, h, 8, 4, num_layers=2, p=3)
            else:
                dist_local_train("SGC", a, h, problem.labels, 8, 4,
                                 num_layers=2, p=3)

    @pytest.mark.parametrize("case", ["short-labels", "class-out-of-range", "short-features"])
    def test_malformed_inputs_are_rejected_before_any_rank(self, problem, monkeypatch, case):
        """Each used to surface as ``rank r failed: IndexError``."""
        monkeypatch.setattr(
            dist_local, "run_spmd",
            lambda *args, **kwargs: pytest.fail("a rank started"),
        )
        a, h, labels = problem.adjacency, problem.features, problem.labels
        if case == "short-labels":
            with pytest.raises(ValueError, match="labels has length 10"):
                dist_local_train("GAT", a, h, labels[:10], 8, 4, num_layers=2, p=3)
        elif case == "class-out-of-range":
            with pytest.raises(ValueError, match=r"labels .* in \[0, 4\)"):
                dist_local_train("GAT", a, h, np.full(len(labels), 9), 8, 4,
                                 num_layers=2, p=3)
        else:
            with pytest.raises(ValueError, match="features"):
                dist_local_inference("GAT", a, h[:-1], 8, 4, num_layers=2, p=3)

    def test_halo_plan_counts(self, problem):
        """The halo plan must request exactly the distinct remote
        neighbours of the owned rows."""
        a = problem.adjacency
        n = a.shape[0]

        def program(comm):
            part = build_partition(comm, a, n)
            dense = a.to_dense()
            remote = set()
            for i in range(part.r0, part.r1):
                for j in np.nonzero(dense[i])[0]:
                    if not part.r0 <= j < part.r1:
                        remote.add(int(j))
            assert set(part.halo_ids.tolist()) == remote
            assert int(part.recv_counts.sum()) == len(remote)
            return True

        assert all(run_spmd(3, program, timeout=20).values)

    def test_halo_volume_grows_with_density(self):
        """Denser graphs → bigger halos: the Omega(nkd/p) behaviour."""
        from repro.graphs import erdos_renyi
        from repro.graphs.prep import prepare_adjacency

        h = np.zeros((128, 8), dtype=np.float32)
        sparse_a = prepare_adjacency(erdos_renyi(128, 300, seed=0))
        dense_a = prepare_adjacency(erdos_renyi(128, 3000, seed=0))
        _, sparse_stats = dist_local_inference(
            "GCN", normalize_adjacency(sparse_a), h, 8, 4, p=4, seed=0
        )
        _, dense_stats = dist_local_inference(
            "GCN", normalize_adjacency(dense_a), h, 8, 4, p=4, seed=0
        )
        assert (
            dense_stats.phase_bytes()["halo"]
            > sparse_stats.phase_bytes()["halo"]
        )


class TestMiniBatch:
    def test_training_reduces_loss(self, problem):
        """Each rank's loss is taken on its 16 targets only, so two single
        iterations differ by noise: learning shows in the trend."""
        losses, _ = minibatch_train(
            "GCN", normalize_adjacency(problem.adjacency), problem.features,
            problem.labels, 16, 4, num_layers=2, p=4, iterations=40, lr=0.05,
            config=MiniBatchConfig(batch_size=64, fanouts=(5, 5)),
        )
        assert np.mean(losses[-8:]) < np.mean(losses[:8])

    def test_full_fanout_baseline_trains(self, problem):
        """``None`` takes every neighbour, as the shared sampler's rule has it;
        the baseline's own ``f < 1`` rule refused to build such a config."""
        losses, stats = minibatch_train(
            "GAT", problem.adjacency, problem.features, problem.labels,
            8, 4, num_layers=2, p=2, iterations=2,
            config=MiniBatchConfig(batch_size=32, fanouts=(None, None)),
        )
        assert len(losses) == 2 and all(np.isfinite(losses))
        assert all(s.flops.by_label["sampling"] > 0 for s in stats.per_rank)

    def test_sampling_flops_charged(self, problem):
        _, stats = minibatch_train(
            "GAT", problem.adjacency, problem.features, problem.labels,
            8, 4, num_layers=2, p=4, iterations=1,
            config=MiniBatchConfig(batch_size=32, fanouts=(4, 4)),
        )
        labels = set()
        for rank_stats in stats.per_rank:
            labels |= set(rank_stats.flops.by_label)
        assert "sampling" in labels
        phases = stats.phase_bytes()
        assert phases.get("fetch", 0) > 0
        assert phases.get("gradsync", 0) > 0

    def test_short_labels_are_rejected_before_any_rank(self, problem, monkeypatch):
        monkeypatch.setattr(
            baseline_minibatch, "run_spmd",
            lambda *args, **kwargs: pytest.fail("a rank started"),
        )
        with pytest.raises(ValueError, match="labels has length 10"):
            minibatch_train("GAT", problem.adjacency, problem.features,
                            problem.labels[:10], 8, 4, num_layers=2, p=2)

    def test_multi_hop_layer_is_rejected_before_any_rank(self, problem, monkeypatch):
        """A block is one sampled hop: SGC's K-hop propagation would read a
        truncated neighbourhood."""
        monkeypatch.setattr(
            baseline_minibatch, "run_spmd",
            lambda *args, **kwargs: pytest.fail("a rank started"),
        )
        with pytest.raises(ValueError, match="SGC"):
            minibatch_train("SGC", problem.adjacency, problem.features,
                            problem.labels, 8, 4, num_layers=2, p=2)

    def test_fanouts_need_one_per_layer(self, problem):
        """Four fan-outs for a two-layer model used to sample four hops
        and return a loss."""
        with pytest.raises(ValueError, match="need one per layer"):
            minibatch_train("GAT", problem.adjacency, problem.features,
                            problem.labels, 8, 4, num_layers=2, p=2,
                            config=MiniBatchConfig(fanouts=(3, 3, 3, 3)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MiniBatchConfig(batch_size=0)
        with pytest.raises(ValueError):
            MiniBatchConfig(fanouts=())
        for bad in (-1, 2.5, True, "4"):
            with pytest.raises(ValueError, match="fanouts"):
                MiniBatchConfig(fanouts=(4, bad))

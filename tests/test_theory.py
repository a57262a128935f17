"""Tests for the Section-7 communication-volume predictors, including
verification against *measured* traffic of both engines."""

import numpy as np
import pytest

from repro.baselines.dist_local import dist_local_inference
from repro.distributed.api import distributed_inference
from repro.graphs import erdos_renyi
from repro.graphs.prep import prepare_adjacency
from repro.theory import (
    crossover_density,
    erdos_renyi_local_words,
    exact_local_halo_words,
    global_layer_words,
    predict_training_words,
)


class TestClosedForms:
    def test_global_scales_inverse_sqrt_p(self):
        v4 = global_layer_words(10000, 16, 4)
        v16 = global_layer_words(10000, 16, 16)
        # nk/sqrt(p) halves from p=4 to p=16 (k^2 term is negligible).
        assert v16 == pytest.approx(v4 / 2, rel=0.1)

    def test_local_scales_inverse_p_before_cap(self):
        v4 = erdos_renyi_local_words(10000, 16, 4, 1e-5)
        v8 = erdos_renyi_local_words(10000, 16, 8, 1e-5)
        assert v8 < v4

    def test_local_capped_regime_grows_toward_nk(self):
        """Once the halo saturates (dense graph), more ranks fetch more
        of the graph — the cap rises with (p-1)/p."""
        v4 = erdos_renyi_local_words(10000, 16, 4, 0.5)
        v8 = erdos_renyi_local_words(10000, 16, 8, 0.5)
        assert v8 > v4

    def test_local_caps_at_nk(self):
        n, k, p = 1000, 16, 4
        assert erdos_renyi_local_words(n, k, p, 0.9) <= n * k

    def test_single_rank_is_free(self):
        assert global_layer_words(1000, 16, 1) == 0
        assert erdos_renyi_local_words(1000, 16, 1, 0.1) == 0

    def test_er_volume_increases_with_density(self):
        low = erdos_renyi_local_words(2000, 16, 4, 0.0001)
        high = erdos_renyi_local_words(2000, 16, 4, 0.01)
        assert high > low

    def test_crossover_density(self):
        assert crossover_density(1000, 16) == pytest.approx(4 / 1000)

    def test_global_beats_local_above_crossover(self):
        """d in omega(sqrt p): the paper's headline comparison."""
        n, k, p = 4096, 16, 64
        q = 64 / n  # mean degree 64 >> sqrt(64)
        assert global_layer_words(n, k, p) < erdos_renyi_local_words(n, k, p, q)

    def test_training_prediction_dispatch(self):
        """Every layer's global training volume, dispatched on the model."""
        gat = predict_training_words(1000, 16, 4, 3)
        assert gat == 3 * global_layer_words(1000, 16, 4, training=True)
        assert predict_training_words(1000, 16, 4, 3, model="gcn") < gat


class TestMeasuredVsPredicted:
    """Measured traffic must track the closed forms within small factors."""

    def test_exact_local_halo_matches_measurement(self):
        a = prepare_adjacency(erdos_renyi(128, 2000, seed=0))
        k, p, layers = 8, 4, 2
        predicted = exact_local_halo_words(a, p, k)
        h = np.zeros((128, k), dtype=np.float32)
        _, stats = dist_local_inference("GCN", a, h, k, k, num_layers=layers,
                                        p=p, seed=0)
        halo_words = stats.phase_bytes()["halo"] // 4
        # Per layer the engine sends exactly the predicted halo.
        assert halo_words == pytest.approx(layers * predicted, rel=0.01)

    def test_global_volume_tracks_nk_over_sqrt_p(self):
        k = 8
        words = {}
        for n in (128, 256):
            a = prepare_adjacency(erdos_renyi(n, 8 * n, seed=0))
            h = np.zeros((n, k), dtype=np.float32)
            result = distributed_inference("GCN", a, h, k, k, num_layers=2,
                                           p=4, seed=0)
            words[n] = result.stats.max_words_sent
        # Doubling n should roughly double the volume (linear in n).
        ratio = words[256] / words[128]
        assert 1.6 < ratio < 2.4

    def test_er_local_prediction_tracks_measurement(self):
        n, k, p = 256, 8, 4
        for q in (0.02, 0.1):
            m = int(q * n * n)
            a = prepare_adjacency(erdos_renyi(n, m, seed=1))
            h = np.zeros((n, k), dtype=np.float32)
            _, stats = dist_local_inference("GCN", a, h, k, k, num_layers=1,
                                            p=p, seed=0)
            measured = stats.phase_bytes()["halo"] // 4
            predicted = erdos_renyi_local_words(n, k, p, q)
            assert measured == pytest.approx(predicted, rel=0.35)

    def test_global_vs_local_gap_shrinks_with_sparsity(self):
        """The Fig. 7 (right) shape: lower density → smaller gap."""
        n, k, p = 256, 8, 4
        gaps = {}
        for q in (0.005, 0.08):
            m = int(q * n * n)
            a = prepare_adjacency(erdos_renyi(n, m, seed=1))
            h = np.zeros((n, k), dtype=np.float32)
            g = distributed_inference("GCN", a, h, k, k, num_layers=2, p=p,
                                      seed=0).stats.max_words_sent
            _, stats = dist_local_inference("GCN", a, h, k, k, num_layers=2,
                                            p=p, seed=0)
            l = stats.max_words_sent
            gaps[q] = l / g
        assert gaps[0.08] > gaps[0.005]

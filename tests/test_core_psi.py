"""Tests for the Psi operators and their VJPs (Sections 4.1 / 5).

Psi is what the fused sweep of :mod:`repro.tensor.megakernel` scores:
``attention_scores`` materialises it, and ``attention_backward`` is its
VJP. The oracles here are the dense formulas and central differences.
"""

import numpy as np
import pytest

from repro.tensor.megakernel import (
    attention_backward,
    attention_forward,
    attention_scores,
)
from repro.tensor.segment import segment_max


@pytest.fixture
def setup(rng, small_adjacency):
    h = rng.normal(size=(small_adjacency.shape[0], 6))
    return small_adjacency, h


def _norms(h):
    return np.sqrt(np.einsum("ij,ij->i", h, h))


def _gat_operands(hp, a_src, a_dst):
    return {"u": hp @ a_src, "v": hp @ a_dst}


class TestPsiForward:
    def test_va_matches_masked_gram(self, setup):
        a, h = setup
        s = attention_scores(a, "dot", x_src=h)
        full = h @ h.T
        expected = a.to_dense() * full
        assert np.allclose(s.to_dense(), expected)

    def test_agnn_is_softmaxed_cosine(self, setup):
        a, h = setup
        s = attention_scores(a, "cosine", x_src=h, norms=_norms(h))
        # Rows are probability distributions over neighbourhoods.
        assert np.allclose(s.row_sum(), 1.0)
        # Before the softmax the scores are cosines, in [-1, 1].
        cos = attention_scores(
            a, "cosine", x_src=h, norms=_norms(h), softmax=False
        )
        assert np.all(np.abs(cos.data) <= 1 + 1e-9)
        unit = h / _norms(h)[:, None]
        assert np.allclose(cos.to_dense(), a.to_dense() * (unit @ unit.T))

    def test_agnn_beta_sharpness(self, setup):
        """Larger beta concentrates attention (higher max prob per row)."""
        a, h = setup
        s1 = attention_scores(a, "cosine", x_src=h, norms=_norms(h), beta=1.0)
        s5 = attention_scores(a, "cosine", x_src=h, norms=_norms(h), beta=5.0)
        m1 = segment_max(s1.data, a.indptr, identity=0)
        m5 = segment_max(s5.data, a.indptr, identity=0)
        assert m5.mean() > m1.mean()

    def test_gat_rows_normalised(self, setup, rng):
        a, h = setup
        w = rng.normal(size=(6, 4))
        s = attention_scores(
            a, "add", **_gat_operands(h @ w, *rng.normal(size=(2, 4)))
        )
        assert np.allclose(s.row_sum(), 1.0)
        assert s.data.shape == (a.nnz,)

    def test_gat_matches_manual_construction(self, setup, rng):
        a, h = setup
        w = rng.normal(size=(6, 4))
        a_src = rng.normal(size=4)
        a_dst = rng.normal(size=4)
        hp = h @ w
        s = attention_scores(
            a, "add", slope=0.2, **_gat_operands(hp, a_src, a_dst)
        )
        u = hp @ a_src
        v = hp @ a_dst
        raw = u[:, None] + v[None, :]
        logits = np.where(raw > 0, raw, 0.2 * raw)
        mask = a.to_dense() != 0
        exp = np.where(mask, np.exp(logits - logits.max()), 0)
        expected = exp / np.maximum(exp.sum(1, keepdims=True), 1e-300)
        assert np.allclose(s.to_dense(), np.where(mask, expected, 0), atol=1e-6)

    def test_scores_are_what_the_sweep_aggregates(self, setup, rng):
        """``attention_forward`` is ``attention_scores`` times ``y``, stacked
        heads included, without ever holding the scores."""
        a, h = setup
        y = rng.normal(size=(a.shape[1], 3, 5))
        ops = {"u": rng.normal(size=(60, 3)), "v": rng.normal(size=(60, 3))}
        s = attention_scores(a, "add", **ops)
        z, _ = attention_forward(a, "add", y, **ops)
        assert s.data.shape == (a.nnz, 3)
        for head in range(3):
            dense = a.with_data(s.data[:, head]).to_dense()
            assert np.allclose(z[:, head], dense @ y[:, head])


def _numeric_vjp(psi_fn, h, ds, eps=1e-6):
    """Finite-difference d(sum(S.data * ds))/dH."""
    grad = np.zeros_like(h)
    for i in range(h.shape[0]):
        for j in range(h.shape[1]):
            h[i, j] += eps
            up = float(np.dot(psi_fn(h), ds))
            h[i, j] -= 2 * eps
            down = float(np.dot(psi_fn(h), ds))
            h[i, j] += eps
            grad[i, j] = (up - down) / (2 * eps)
    return grad


def _exits_given_ds(a, kind, ds, **ops):
    """The sweep's gradient exits for a *given* score gradient ``dS``: with
    ``y = I`` the sampled product ``dz[r] . y[c]`` is ``dz[r, c]``, so a
    dense ``dz`` holding ``dS`` on the pattern seeds exactly ``dS``."""
    y = np.eye(a.shape[1])
    dz = a.with_data(ds).to_dense()
    _, stats = attention_forward(a, kind, y, **ops)
    return attention_backward(a, kind, y, dz, stats=stats, **ops)


class TestPsiVJPs:
    def test_va_vjp_numeric(self, rng, small_adjacency):
        a = small_adjacency
        h = rng.normal(size=(a.shape[0], 3))
        ds = rng.normal(size=a.nnz)
        exits = _exits_given_ds(a, "dot", ds, x_src=h)
        analytic = exits["dRow"] + exits["dCol"]
        numeric = _numeric_vjp(
            lambda hh: attention_scores(a, "dot", x_src=hh).data, h, ds
        )
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_agnn_vjp_numeric(self, rng, small_adjacency):
        a = small_adjacency
        h = rng.normal(size=(a.shape[0], 3))
        ds = rng.normal(size=a.nnz)

        def scores(hh, beta=1.4):
            return attention_scores(
                a, "cosine", x_src=hh, norms=_norms(hh), beta=beta
            ).data

        exits = _exits_given_ds(
            a, "cosine", ds, x_src=h, norms=_norms(h), beta=1.4
        )
        # Both endpoints read H; the norm exits chain through n = |h|.
        dnorm = exits["dNormRow"] + exits["dNormCol"]
        analytic = (
            exits["dRow"] + exits["dCol"] + (dnorm / _norms(h))[:, None] * h
        )
        assert np.allclose(analytic, _numeric_vjp(scores, h, ds), atol=1e-4)
        # beta gradient numerically
        eps = 1e-6
        up = float(np.dot(scores(h, 1.4 + eps), ds))
        down = float(np.dot(scores(h, 1.4 - eps), ds))
        assert exits["dCoef"].shape == (1,)
        assert np.isclose(exits["dCoef"][0], (up - down) / (2 * eps), atol=1e-4)

    def test_agnn_beta_gradient_survives_beta_zero(self, rng, small_adjacency):
        """At beta = 0 every score is 0 and dRow / dCol / dNorm* vanish;
        the ``dCoef`` exit is summed from the cosines, so it does not."""
        a = small_adjacency
        h = rng.normal(size=(a.shape[0], 3))
        ds = rng.normal(size=a.nnz)
        ops = {"x_src": h, "norms": _norms(h)}
        exits = _exits_given_ds(a, "cosine", ds, beta=0.0, **ops)
        eps = 1e-6
        up, down = (
            float(np.dot(attention_scores(a, "cosine", beta=b, **ops).data, ds))
            for b in (eps, -eps)
        )
        assert not exits["dRow"].any() and not exits["dNormRow"].any()
        assert abs(exits["dCoef"][0]) > 1e-3
        assert np.isclose(exits["dCoef"][0], (up - down) / (2 * eps), atol=1e-4)

    def test_gat_vjp_numeric(self, rng, small_adjacency):
        a = small_adjacency
        k = 3
        hp = rng.normal(size=(a.shape[0], k))
        a_src = rng.normal(size=k)
        a_dst = rng.normal(size=k)
        ds = rng.normal(size=a.nnz)

        def scores(x):
            return attention_scores(
                a, "add", **_gat_operands(x, a_src, a_dst)
            ).data

        exits = _exits_given_ds(
            a, "add", ds, **_gat_operands(hp, a_src, a_dst)
        )
        du, dv = exits["dU"], exits["dV"]
        dhp = np.outer(du, a_src) + np.outer(dv, a_dst)
        assert np.allclose(dhp, _numeric_vjp(scores, hp, ds), atol=1e-4)
        eps = 1e-6
        for vec, grad in ((a_src, hp.T @ du), (a_dst, hp.T @ dv)):
            for i in range(k):
                vec[i] += eps
                up = float(np.dot(scores(hp), ds))
                vec[i] -= 2 * eps
                down = float(np.dot(scores(hp), ds))
                vec[i] += eps
                assert np.isclose(grad[i], (up - down) / (2 * eps), atol=1e-4)

"""GIN — Graph Isomorphism Network (Xu et al.), the Phi-as-MLP case.

The paper (Section 4.4): "In some models, for example GIN, :math:`\\Phi`
is an MLP. This corresponds to a series of multiplications with
different parameter matrices, interleaved with non-linearities." One
GIN layer is

.. math:: H^{out} = \\mathrm{MLP}\\big((1 + \\epsilon)\\,H +
          \\mathcal{A} H\\big)

— a C-GNN (the aggregation coefficients are constants) whose update is
a two-layer MLP. Including it exercises the library's claim that the
generic pipeline covers :math:`\\Phi` beyond single projections, with a
full manual backward pass like every other model here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.models.base import GnnLayer
from repro.core.activations import get_activation
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import mm, spmm
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import glorot, make_rng

__all__ = ["GINLayer"]


@dataclass
class _GINCache:
    a: CSRMatrix
    h: np.ndarray           # H[rows]
    combined: np.ndarray   # (1+eps) H[rows] + A H
    hidden_pre: np.ndarray  # combined @ W1
    hidden: np.ndarray      # inner_act(hidden_pre)
    z: np.ndarray           # hidden @ W2
    rows: np.ndarray | None


class GINLayer(GnnLayer):
    """One GIN layer with a 2-layer MLP update.

    Parameters
    ----------
    in_dim, hidden_dim, out_dim:
        MLP dimensions (``W1: in x hidden``, ``W2: hidden x out``).
    epsilon:
        The self-weighting scalar; trainable when ``learnable_epsilon``.
    activation:
        Output non-linearity; the MLP's inner activation is ReLU as in
        the GIN paper.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        epsilon: float = 0.0,
        learnable_epsilon: bool = True,
        activation: str = "relu",
        seed: int | np.random.Generator | None = 0,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__(activation)
        rng = make_rng(seed)
        self.w1 = glorot(rng, (in_dim, hidden_dim), dtype)
        self.w2 = glorot(rng, (hidden_dim, out_dim), dtype)
        self.epsilon = np.array(epsilon, dtype=dtype)
        self.learnable_epsilon = learnable_epsilon
        self.inner = get_activation("relu")
        self.in_dim = in_dim
        self.out_dim = out_dim

    def forward(
        self,
        a: CSRMatrix,
        h: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
        rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, _GINCache | None]:
        aggregated = spmm(a, h, counter=counter)
        own = h if rows is None else h[rows]
        combined = (1.0 + float(self.epsilon)) * own + aggregated
        counter.add(2 * own.size, "gin_combine")
        hidden_pre = mm(combined, self.w1, counter=counter)
        hidden = self.inner.fn(hidden_pre)
        z = mm(hidden, self.w2, counter=counter)
        h_next = self.activation.fn(z)
        if not training:
            return h_next, None
        return h_next, _GINCache(
            a=a, h=own, combined=combined, hidden_pre=hidden_pre,
            hidden=hidden, z=z, rows=rows,
        )

    def backward(
        self,
        cache: _GINCache,
        g: np.ndarray,
        counter: FlopCounter = null_counter(),
        input_grad: bool = True,
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        d_w2 = mm(cache.hidden.T, g, counter=counter)
        d_hidden = mm(g, self.w2.T, counter=counter)
        d_hidden_pre = d_hidden * self.inner.grad(cache.hidden_pre)
        d_w1 = mm(cache.combined.T, d_hidden_pre, counter=counter)
        d_combined = mm(d_hidden_pre, self.w1.T, counter=counter)
        grads = {"w1": d_w1, "w2": d_w2}
        if self.learnable_epsilon:
            # An exactly rounded sum: rows of zeros (a square hop's
            # non-destination rows) cannot change it.
            grads["epsilon"] = np.array(
                math.fsum((d_combined * cache.h).ravel().tolist()), dtype=self.epsilon.dtype
            )
        if not input_grad:
            return None, grads
        # combined = (1+eps) H[rows] + A H.
        dh = spmm(cache.a.transpose(), d_combined, counter=counter)
        d_own = (1.0 + float(self.epsilon)) * d_combined
        if cache.rows is None:
            dh = d_own + dh
        else:
            dh[cache.rows] += d_own
        return dh, grads

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"w1": self.w1, "w2": self.w2}
        if self.learnable_epsilon:
            params["epsilon"] = self.epsilon
        return params

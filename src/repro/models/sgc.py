"""SGC — Simple Graph Convolution (Wu et al.), a C-GNN the paper cites.

SGC collapses a K-layer GCN into a single projection over
pre-propagated features:

.. math:: Z = \\mathcal{A}^K H W, \\qquad H^{out} = \\mathrm{softmax}(Z)

The propagation :math:`\\mathcal{A}^K H` contains no parameters, so it
is computed once (K SpMMs) and cached; training then reduces to a
linear model — the cheapest possible "GNN" and a useful lower bound in
the benchmark suite. In the paper's taxonomy this is the extreme C-GNN
case: :math:`\\Psi` is a constant and :math:`\\Phi` a single projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import GnnLayer, GnnModel
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import mm, spmm
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import glorot, make_rng

__all__ = ["SGCLayer", "sgc_model", "propagate"]


def propagate(
    a: CSRMatrix,
    h: np.ndarray,
    hops: int,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """K-hop feature propagation :math:`\\mathcal{A}^K H` (no parameters).

    ``a`` must be pre-normalised (use
    :func:`repro.models.gcn.normalize_adjacency`).
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    for _hop in range(hops):
        h = spmm(a, h, counter=counter)
    return h


@dataclass
class _SGCCache:
    a: CSRMatrix
    propagated: np.ndarray
    z: np.ndarray


class SGCLayer(GnnLayer):
    """The single SGC projection layer over K-hop-propagated features.

    The layer performs the propagation inside ``forward`` but caches it
    keyed on the input's identity, so repeated training epochs over the
    same features pay for it exactly once — SGC's defining trick.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hops: int = 2,
        activation: str = "identity",
        seed: int | np.random.Generator | None = 0,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__(activation)
        if hops < 0:
            raise ValueError("hops must be non-negative")
        self.weight = glorot(make_rng(seed), (in_dim, out_dim), dtype)
        self.hops = hops
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._prop_key: int | None = None
        self._propagated: np.ndarray | None = None

    def forward(
        self,
        a: CSRMatrix,
        h: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
        rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, _SGCCache | None]:
        if rows is not None and self.hops != 1:
            # A hop with rows is one step of propagation, not K.
            raise ValueError(f"a hop with destination rows propagates once; this SGC "
                             f"layer propagates {self.hops} hops")
        key = (id(a), id(h))
        if self._prop_key != key:
            self._propagated = propagate(a, h, self.hops, counter=counter)
            self._prop_key = key
        propagated = self._propagated
        z = mm(propagated, self.weight, counter=counter)
        h_next = self.activation.fn(z)
        if not training:
            return h_next, None
        return h_next, _SGCCache(a=a, propagated=propagated, z=z)

    def backward(
        self,
        cache: _SGCCache,
        g: np.ndarray,
        counter: FlopCounter = null_counter(),
        input_grad: bool = True,
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        d_weight = mm(cache.propagated.T, g, counter=counter)
        if not input_grad:  # SGC is a first layer: the usual case
            return None, {"weight": d_weight}
        # Through A^K: K transposed SpMMs.
        dh = mm(g, self.weight.T, counter=counter)
        a_t = cache.a.transpose()
        for _hop in range(self.hops):
            dh = spmm(a_t, dh, counter=counter)
        return dh, {"weight": d_weight}

    def parameters(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight}


def sgc_model(
    in_dim: int,
    out_dim: int,
    hops: int = 2,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
) -> GnnModel:
    """A one-layer SGC model (K-hop propagation + linear projection)."""
    return GnnModel(
        [SGCLayer(in_dim, out_dim, hops=hops, seed=seed, dtype=dtype)]
    )

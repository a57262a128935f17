"""Distributed GNN model: layer orchestration on the process grid.

The distributed twin of :class:`repro.models.base.GnnModel`. The
forward pass threads column-replicated feature blocks through the
layers (each layer ends with the reduce+redistribute, so no extra
``redistribute`` hook is needed); the backward pass chains errors with
:math:`G^{l-1} = \\sigma'(Z^{l-1}) \\odot \\Gamma^l` exactly as in the
single-node model, on blocks. Because parameters and their gradients
are replicated, the optimiser step runs identically on every rank.

Backend note: construct the model *inside* the rank function (layers
hold per-rank state and communicator references, neither of which may
cross a process boundary). Only the rank function and its kwargs are
pickled for the process backend — the model itself never is, so this
class works unchanged on both the thread and the process fabric.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.distributed.layers import (
    DistAGNNLayer,
    DistGATLayer,
    DistGCNLayer,
    DistGnnLayer,
    DistVALayer,
)
from repro.distributed.ops import OpSequencer
from repro.runtime.grid import ProcessGrid
from repro.tensor.csr import CSRMatrix
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import make_rng

__all__ = ["DistGnnModel", "build_dist_model"]


class DistGnnModel:
    """A stack of distributed layers bound to a process grid.

    Construct *inside* the SPMD rank function, after the grid exists;
    the same constructor arguments (in particular ``seed``) on every
    rank guarantee replicated parameters.
    """

    def __init__(
        self,
        grid: ProcessGrid,
        layers: Sequence[DistGnnLayer],
        overlap: bool = True,
    ) -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.grid = grid
        self.layers = list(layers)
        self.sequencer = OpSequencer()
        self.overlap = overlap
        self._caches: list[Any] | None = None

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # ------------------------------------------------------------------
    def forward(
        self,
        a_block: CSRMatrix,
        h_block: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
    ) -> np.ndarray:
        """Full forward pass; returns the output block :math:`H^L_j`."""
        caches: list[Any] = []
        for layer in self.layers:
            h_block, cache = layer.forward(
                self.grid, a_block, h_block, self.sequencer,
                counter=counter, training=training, overlap=self.overlap,
            )
            caches.append(cache)
        self._caches = caches if training else None
        return h_block

    # ------------------------------------------------------------------
    def backward(
        self,
        d_h_out_block: np.ndarray,
        counter: FlopCounter = null_counter(),
    ) -> list[dict[str, np.ndarray]]:
        """Full backward pass from the loss gradient block.

        ``d_h_out_block`` is :math:`\\nabla_{H^L}\\mathcal{L}`
        restricted to this rank's column block (replicated down the
        column, like every feature block). Returns replicated per-layer
        gradients.
        """
        if self._caches is None:
            raise RuntimeError("backward requires a prior forward(training=True)")
        grads: list[dict[str, np.ndarray]] = [None] * len(self.layers)  # type: ignore[list-item]
        gamma = d_h_out_block
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            cache = self._caches[index]
            g_block = gamma * layer.activation.grad(cache.z_block)
            gamma, grads[index] = layer.backward(
                self.grid, cache, g_block, self.sequencer,
                counter=counter, need_input_grad=index > 0,
                overlap=self.overlap,
            )
        return grads

    # ------------------------------------------------------------------
    def apply_gradients(
        self, grads: list[dict[str, np.ndarray]], lr: float
    ) -> None:
        """Replicated SGD step on every layer."""
        for layer, layer_grads in zip(self.layers, grads):
            layer.apply_gradients(layer_grads, lr)

    def parameters(self) -> list[dict[str, np.ndarray]]:
        return [layer.parameters() for layer in self.layers]

    def zero_caches(self) -> None:
        self._caches = None


def build_dist_model(
    grid: ProcessGrid,
    name: str,
    in_dim: int,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    activation: str | None = None,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
    overlap: bool = True,
    **layer_kwargs,
) -> DistGnnModel:
    """Construct a distributed model by name (VA / AGNN / GAT / GCN).

    Mirrors :func:`repro.models.build_model` — same dims, same seeds,
    same activations — so the two produce numerically identical results
    given the same inputs, which the equivalence tests rely on.
    Layers run comm/compute-overlapped by default; ``overlap=False`` is
    the synchronous parity oracle (results and traffic are bit-identical
    either way).
    """
    layer_cls = {
        "va": DistVALayer,
        "agnn": DistAGNNLayer,
        "gat": DistGATLayer,
        "gcn": DistGCNLayer,
    }.get(name.lower())
    if layer_cls is None:
        raise ValueError(f"unknown model {name!r}; use VA, AGNN, GAT or GCN")
    if activation is None:
        activation = "elu" if name.lower() == "gat" else "relu"
    heads = layer_kwargs.pop("heads", 1)
    if heads > 1 and layer_cls is not DistGATLayer:
        raise ValueError("multi-head execution is a GAT feature")
    # Mirror repro.models.attention's stacking loop: hidden layers
    # concatenate their heads, the final (linear) layer averages them.
    rng = make_rng(seed)
    layers: list[DistGnnLayer] = []
    width = in_dim
    for i in range(num_layers):
        last = i + 1 == num_layers
        if layer_cls is DistGATLayer:
            layer_kwargs.update(
                heads=heads, combine="mean" if last else "concat"
            )
        layer = layer_cls(
            width,
            out_dim if last else hidden_dim,
            activation="identity" if last else activation,
            seed=rng,
            dtype=dtype,
            **layer_kwargs,
        )
        layers.append(layer)
        width = layer.out_dim
    return DistGnnModel(grid, layers, overlap=overlap)

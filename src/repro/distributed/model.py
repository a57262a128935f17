"""Distributed GNN model: a plain ``GnnModel`` of grid-bound layers.

There is no distributed model class. ``GnnModel.forward`` threads
column-replicated feature blocks through the layers (each ends with its
own reduce+redistribute) and ``GnnModel.backward`` chains errors with
:math:`G^{l-1} = \\sigma'(Z^{l-1}) \\odot \\Gamma^l` on blocks exactly
as on whole matrices. Parameters and their gradients are replicated, so
any :mod:`repro.training.optim` optimiser steps the model identically on
every rank and :mod:`repro.models.serialize` checkpoints load per rank.

Build the model *inside* the rank function: bound layers hold per-rank
state and a reference to the rank's communicator, so one model object
belongs to exactly one rank thread.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.layers import (
    DistAGNNLayer,
    DistGATLayer,
    DistGCNLayer,
    DistGnnLayer,
    DistVALayer,
)
from repro.distributed.ops import OpSequencer
from repro.models.base import GnnModel
from repro.runtime.grid import ProcessGrid
from repro.util.rng import make_rng

__all__ = ["build_dist_model"]


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
) -> GnnModel:
    """Construct a distributed model by name (VA / AGNN / GAT / GCN).

    Mirrors :func:`repro.models.build_model` — same dims, same seeds,
    same activations — so the two produce numerically identical results
    given the same inputs, which the equivalence tests rely on. Call it
    *inside* the SPMD rank function, after the grid exists; the same
    arguments (in particular ``seed``) on every rank guarantee
    replicated parameters. Every layer is bound to ``grid`` and the
    model's one ``OpSequencer``; the first skips its input-feature
    gradient. Layers run comm/compute-overlapped by default;
    ``overlap=False`` is the synchronous parity oracle (results and
    traffic are bit-identical either way).
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
    sequencer = OpSequencer()
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
        layer.bind(grid, sequencer, overlap=overlap, input_grad=i > 0)
        layers.append(layer)
        width = layer.out_dim
    return GnnModel(layers)

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

from repro.core.formulation import AttentionSpec
from repro.distributed.layers import DistAttentionLayer, DistGCNLayer, DistGnnLayer
from repro.distributed.ops import OpSequencer
from repro.models.attention import GCN, VA, agnn_spec, gat_spec
from repro.models.base import GnnModel
from repro.runtime.grid import ProcessGrid
from repro.util.rng import make_rng

__all__ = ["build_dist_model"]

#: Built-in models by name; keyword arguments are their spec's.
_SPECS = {"va": lambda: VA, "agnn": agnn_spec, "gat": gat_spec, "gcn": lambda: GCN}


def build_dist_model(
    grid: ProcessGrid,
    name: str | AttentionSpec,
    in_dim: int,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    activation: str | None = None,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
    overlap: bool = True,
    heads: int = 1,
    **spec_kwargs,
) -> GnnModel:
    """Construct a distributed model by name (VA / AGNN / GAT / GCN, with
    ``agnn_spec`` / ``gat_spec`` keywords such as ``learnable_beta`` or
    ``slope``) or from an :class:`~repro.core.formulation.AttentionSpec`
    that declares a score ``kind``.

    Mirrors :func:`repro.models.build_model` — same dims, same seeds,
    same activations, hidden layers concatenating their heads and the
    final linear one averaging them — so the two compute the same
    numbers given the same inputs, which the equivalence tests rely on.
    Call it *inside* the SPMD rank function, after the grid exists; the
    same arguments (in particular ``seed``) on every rank guarantee
    replicated parameters. Every layer is bound to ``grid`` and the
    model's one ``OpSequencer``; the first skips its input-feature
    gradient. Layers run comm/compute-overlapped by default;
    ``overlap=False`` is the synchronous parity oracle (results and
    traffic are bit-identical either way).
    """
    if isinstance(name, AttentionSpec):
        if spec_kwargs:
            raise TypeError(f"a spec takes no model keywords, got {sorted(spec_kwargs)}")
        spec = name
    elif name.lower() in _SPECS:
        spec = _SPECS[name.lower()](**spec_kwargs)
    else:
        raise ValueError(f"unknown model {name!r}; use VA, AGNN, GAT or GCN")
    if heads > 1 and not spec.on_projected:
        raise ValueError("multi-head execution is a GAT feature (a Psi on H W)")
    if activation is None:
        activation = "elu" if spec.name == "gat" else "relu"
    rng = make_rng(seed)
    sequencer = OpSequencer()
    layers: list[DistGnnLayer] = []
    width = in_dim
    for i in range(num_layers):
        last = i + 1 == num_layers
        dims = (width, out_dim if last else hidden_dim)
        act = "identity" if last else activation
        if spec is GCN:
            layer = DistGCNLayer(*dims, act, seed=rng, dtype=dtype)
        else:
            layer = DistAttentionLayer(
                *dims, spec, act, heads=heads, combine="mean" if last else "concat",
                seed=rng, dtype=dtype,
            )
        layer.bind(grid, sequencer, overlap=overlap, input_grad=i > 0)
        layers.append(layer)
        width = layer.out_dim
    return GnnModel(layers)

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
belongs to exactly one rank thread. What the layers are is decided where
``build_model`` decides it, by :func:`~repro.models.attention.resolve_spec`
and :func:`~repro.models.base.stack_layers`.
"""

from __future__ import annotations

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.distributed.layers import DistAttentionLayer, DistGCNLayer
from repro.distributed.ops import OpSequencer
from repro.models.attention import GCN, resolve_spec
from repro.models.base import GnnModel, stack_layers
from repro.runtime.grid import ProcessGrid

__all__ = ["build_dist_model"]


def build_dist_model(
    grid: ProcessGrid | None,
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
    """:func:`repro.models.build_model`'s twin: its resolver and stacking
    loop over :class:`DistAttentionLayer` / :class:`DistGCNLayer`, so the
    two draw the same parameters and compute the same numbers. ``name`` is
    VA / AGNN / GAT / GCN (keywords: the spec's) or a spec that declares a
    score ``kind``.

    Call it *inside* the SPMD rank function; the same arguments (``seed``
    above all) on every rank replicate the parameters. Every layer is bound
    to ``grid`` and the model's one ``OpSequencer`` (the layer walk tells
    the first to skip its input-feature gradient); ``overlap=False`` is the
    synchronous parity oracle (bit-identical results and traffic). ``grid=None`` leaves them
    unbound: the entry points build one so, to refuse bad arguments
    before any rank starts.
    """
    spec, hidden_activation = resolve_spec(name, **spec_kwargs)

    def layer(width, out, act, combine, rng):
        if spec is GCN and heads == 1:  # any other count reaches AttentionLayer's checks
            return DistGCNLayer(width, out, act, seed=rng, dtype=dtype)
        return DistAttentionLayer(width, out, spec, act, heads=heads, combine=combine,
                                  seed=rng, dtype=dtype)

    model = stack_layers(layer, in_dim, hidden_dim, out_dim, num_layers,
                         activation or hidden_activation, seed)
    sequencer = OpSequencer()
    for bound in model.layers:
        bound.bind(grid, sequencer, overlap=overlap)
    return model

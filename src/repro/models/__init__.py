"""GNN models with global-formulation forward and backward passes.

The artifact's :class:`GnnLayer`, :class:`GnnModel` and :class:`Loss`
base classes are mirrored here, but where the artifact overloads
forward and backward per model, VA, AGNN, GAT and GCN are one
:class:`AttentionLayer` — Eq. (1) with its backward chain — taking
the model's :math:`\\Psi` as a spec; it caches intermediate results
for training. :func:`build_model` is the one way to build a model:
a name or a spec, stacked by :func:`~repro.models.base.stack_layers`,
whose distributed twin ``repro.distributed.model.build_dist_model``
resolves and stacks the same way.
"""

from repro.core.formulation import AttentionSpec
from repro.models.base import GnnLayer, GnnModel, Loss, stack_layers
from repro.models.attention import GCN, AttentionLayer, layer_spec, resolve_spec
from repro.models.gcn import normalize_adjacency
from repro.models.gin import GINLayer
from repro.models.serialize import load_state_dict, state_dict

__all__ = [
    "GnnLayer",
    "GnnModel",
    "Loss",
    "AttentionLayer",
    "GCN",
    "layer_spec",
    "GINLayer",
    "normalize_adjacency",
    "build_model",
    "state_dict",
    "load_state_dict",
]


def build_model(
    name: str | AttentionSpec,
    in_dim: int,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    seed: int = 0,
    **kwargs,
) -> GnnModel:
    """Construct a model — the entry point of every engine that takes one.

    ``name`` is one of ``"VA"``, ``"AGNN"``, ``"GAT"`` (the paper's
    A-GNNs), ``"GCN"``, ``"GIN"`` (C-GNN comparators),
    case-insensitive — matching and extending the artifact's
    ``--model`` flag — or an :class:`AttentionSpec`, a user's Ψ. An
    attention model takes ``activation=`` (its hidden layers'),
    ``order=``, ``heads=``, ``dtype=`` and its spec's keywords
    (``beta=``, ``learnable_beta=``, ``slope=``); GIN takes
    :class:`GINLayer`'s.
    """
    activation = kwargs.pop("activation", None)
    if isinstance(name, str) and name.lower() == "gin":
        def layer(width, out, act, _combine, rng):
            return GINLayer(width, hidden_dim, out, activation=act, seed=rng, **kwargs)
    else:
        layer_kwargs = {key: kwargs.pop(key) for key in ("order", "heads", "dtype") if key in kwargs}
        spec, hidden_activation = resolve_spec(name, **kwargs)
        activation = activation or hidden_activation

        def layer(width, out, act, combine, rng):
            return AttentionLayer(width, out, spec, act, combine=combine, seed=rng, **layer_kwargs)
    return stack_layers(layer, in_dim, hidden_dim, out_dim, num_layers, activation or "relu", seed)

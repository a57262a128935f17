"""GNN models with global-formulation forward and backward passes.

The artifact's :class:`GnnLayer`, :class:`GnnModel` and :class:`Loss`
base classes are mirrored here, but where the artifact overloads
forward and backward per model, VA, AGNN, GAT and GCN are one
:class:`AttentionLayer` — Eq. (1) with its backward chain — taking
the model's :math:`\\Psi` as a spec; it caches intermediate results
for training. The distributed twins live in ``repro.distributed``.
"""

from repro.models.base import GnnLayer, GnnModel, Loss
from repro.models.attention import (
    GCN,
    VA,
    AttentionLayer,
    agnn_model,
    agnn_spec,
    gat_model,
    gat_spec,
    gcn_model,
    va_model,
)
from repro.models.gcn import normalize_adjacency
from repro.models.gin import GINLayer, gin_model
from repro.models.sgc import SGCLayer, sgc_model
from repro.models.serialize import (
    load_model,
    load_state_dict,
    save_model,
    state_dict,
)

__all__ = [
    "GnnLayer",
    "GnnModel",
    "Loss",
    "AttentionLayer",
    "VA",
    "GCN",
    "agnn_spec",
    "gat_spec",
    "GINLayer",
    "SGCLayer",
    "va_model",
    "agnn_model",
    "gat_model",
    "gcn_model",
    "gin_model",
    "sgc_model",
    "normalize_adjacency",
    "build_model",
    "save_model",
    "load_model",
    "state_dict",
    "load_state_dict",
]


def build_model(
    name: str,
    in_dim: int,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    seed: int = 0,
    **kwargs,
) -> GnnModel:
    """Construct a model by name — the benchmark drivers' entry point.

    ``name`` is one of ``"VA"``, ``"AGNN"``, ``"GAT"`` (the paper's
    A-GNNs), ``"GCN"``, ``"GIN"``, ``"SGC"`` (C-GNN comparators),
    case-insensitive — matching and extending the artifact's
    ``--model`` flag.
    """
    name_lower = name.lower()
    if name_lower == "sgc":
        # SGC has no hidden layers: one projection over propagated
        # features; `num_layers` becomes the propagation depth.
        return sgc_model(in_dim, out_dim, hops=num_layers, seed=seed,
                         **kwargs)
    factory = {
        "va": va_model,
        "agnn": agnn_model,
        "gat": gat_model,
        "gcn": gcn_model,
        "gin": gin_model,
    }.get(name_lower)
    if factory is None:
        raise ValueError(
            f"unknown model {name!r}; use VA, AGNN, GAT, GCN, GIN or SGC"
        )
    return factory(
        in_dim, hidden_dim, out_dim, num_layers=num_layers, seed=seed, **kwargs
    )

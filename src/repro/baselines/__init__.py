"""Local-formulation (message-passing) baseline engines.

The paper compares against DGL / DistDGL, which execute A-GNNs through
the *local* formulation: per-edge message functions and per-vertex
aggregations (DGL's generalized SDDMM/SpMM programming model), with a
1D vertex partition and neighbour-feature halo exchanges when
distributed. These engines reproduce that execution model from scratch:

* :mod:`repro.baselines.dist_local` — the distributed full-batch local
  engine: 1D partition, halo exchange of :math:`\\Theta(nkd/p)` words
  per layer (the Section-7 lower bound for the local view), forward and
  backward: a batch source for the one
  :func:`~repro.training.trainer.train_step` over ``build_model``'s
  layers, with an own+halo block as every layer's hop.
* :mod:`repro.baselines.minibatch` — DistDGL-style mini-batch training
  over the shared sampler's per-layer blocks, with remote feature
  fetches, into the same step.

The Section-2.2 oracle — the local formulations of VA / AGNN / GAT on a
DGL-flavoured ``apply_edges`` / ``update_all`` engine — is test code
(``tests/reference_message_passing.py``).
"""

from repro.baselines.dist_local import (
    dist_local_inference,
    dist_local_train,
)
from repro.baselines.minibatch import (
    MiniBatchConfig,
    minibatch_train,
)

__all__ = [
    "dist_local_inference",
    "dist_local_train",
    "MiniBatchConfig",
    "minibatch_train",
]

"""A-stationary 1.5D distributed GNN execution (Section 6.3).

The distribution scheme, verbatim from the paper: the adjacency matrix
gets a 2D distribution on a ``P x P`` process grid (the analysis of
Section 7 slices into ``sqrt(p) x sqrt(p)`` blocks, so the grid is
square); the layer input :math:`H^l` is distributed in ``P`` row
blocks, each replicated ``P`` times down its grid column; the output is
distributed in ``P`` blocks, each split into ``P`` partial sums across
its grid row. Between layers the partial sums are reduced
(ring reduce-scatter along grid rows) and redistributed (a chunk
exchange) back into column-replicated input blocks. Weight matrices and
attention vectors are replicated everywhere.

Modules:

* :mod:`repro.distributed.partition` — block ranges, adjacency block
  extraction, feature distribution/collection.
* :mod:`repro.distributed.ops` — the shared communication patterns:
  diagonal row broadcast, the reduce+redistribute pipeline (which also
  merges a split softmax's denominators), the transpose exchange.
* :mod:`repro.distributed.layers` — ``DistAttentionLayer`` (VA, AGNN,
  GAT or any spec with a score ``kind``: one fused sweep per block) and
  ``DistGCNLayer``, each an ``AttentionLayer`` bound to a rank's grid.
* :mod:`repro.distributed.model` — ``build_dist_model``: stacks those
  layers through ``build_model``'s resolver and loop, binds them to a
  rank's grid and returns the one :class:`~repro.models.base.GnnModel`;
  loss terms and optimisers come from :mod:`repro.training`.
* :mod:`repro.distributed.api` — one-call helpers that run a whole
  distributed inference/training job on the simulated cluster and
  return outputs plus communication statistics.
"""

from repro.distributed.api import distributed_inference
from repro.distributed.partition import (
    block_range,
    block_ranges,
    collect_feature_blocks,
    distribute_adjacency,
    distribute_features,
)

__all__ = [
    "block_range",
    "block_ranges",
    "distribute_adjacency",
    "distribute_features",
    "collect_feature_blocks",
    "distributed_inference",
]

"""Global tensor formulations — the paper's primary contribution.

This package holds the model-agnostic pieces of Sections 3–5:

* :mod:`repro.core.blocks` — the tensor-algebra building blocks of
  Table 2 (``rep``, ``sum``, ``rs``, :math:`X + X^T`, :math:`X X^T`).
* :mod:`repro.core.activations` — element-wise non-linearities with
  derivatives, used by both forward and backward formulations.
* :mod:`repro.core.softmax` — the global graph-softmax formulation of
  Section 4.2 (dense reference and sparse production paths).
* :mod:`repro.core.formulation` — the :math:`\\Psi` spec of Eq. (1),
  :math:`H^{l+1} = \\sigma((\\Phi \\circ \\oplus)(\\Psi, H))`; the
  layer executing it is :class:`repro.models.attention.AttentionLayer`,
  whose built-in operators of Section 4.1 (VA, AGNN, GAT) are specs
  lowered from their layer DAGs onto the fused sweep of
  :mod:`repro.tensor.megakernel`.
"""

from repro.core.activations import Activation, get_activation
from repro.core.blocks import (
    gram,
    matrix_plus_transpose,
    rep,
    rep_t,
    rs,
    sum_cols,
    sum_rows,
)
from repro.core.formulation import AttentionSpec
from repro.core.softmax import graph_softmax, graph_softmax_dense

__all__ = [
    "Activation",
    "get_activation",
    "rep",
    "rep_t",
    "sum_rows",
    "sum_cols",
    "rs",
    "gram",
    "matrix_plus_transpose",
    "graph_softmax",
    "graph_softmax_dense",
    "AttentionSpec",
]

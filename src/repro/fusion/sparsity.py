"""Sparsity and virtual-tensor inference (Section 6.1).

For every node of an :class:`~repro.fusion.dag.OpDag` we infer one of
three storage classes:

``DENSE``
    Materialisable: anything not graph-quadratic (``n x k``, ``k x k``,
    vectors) — and, for completeness, explicitly dense ``n x n``
    requests on tiny graphs.
``SPARSE``
    Shares the adjacency pattern (an output of sampling, or the
    adjacency itself); stored as CSR values.
``VIRTUAL``
    An ``n x n`` *dense* intermediate — e.g. GAT's ``C`` or the
    replicated softmax denominator. "We never instantiate it
    explicitly, and it is instead computed in parts" — the fusion pass
    must eliminate every such node by folding it into a sampled kernel.

The propagation rules follow Table 1's sparsity/density patterns:
element-wise ops with one SPARSE operand sample (output SPARSE);
element-wise ops of VIRTUAL/DENSE ``n x n`` operands stay VIRTUAL;
``matmul`` producing ``n x n`` from dense talls is VIRTUAL; reductions
of SPARSE operands (row sums) are DENSE vectors.
"""

from __future__ import annotations

from enum import Enum

from repro.fusion.dag import BINARY_ELEMENTWISE, UNARY, OpDag

__all__ = ["Sparsity", "infer_sparsity"]


class Sparsity(Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    VIRTUAL = "virtual"


def infer_sparsity(dag: OpDag) -> dict[int, Sparsity]:
    """Classify every node; raises on rules the IR cannot express."""
    cls: dict[int, Sparsity] = {}
    for node in dag.nodes:
        if node.op == "input":
            if node.id in dag.sparse_inputs:
                cls[node.id] = Sparsity.SPARSE
            elif node.shape_kind == "nn":
                cls[node.id] = Sparsity.VIRTUAL
            else:
                cls[node.id] = Sparsity.DENSE
            continue

        in_cls = [cls[i] for i in node.inputs]
        if node.op in BINARY_ELEMENTWISE:
            if Sparsity.SPARSE in in_cls:
                # Sampling: the sparse operand masks the other.
                cls[node.id] = Sparsity.SPARSE
            elif node.shape_kind == "nn":
                cls[node.id] = Sparsity.VIRTUAL
            else:
                cls[node.id] = Sparsity.DENSE
        elif node.op in UNARY or node.op == "transpose":
            cls[node.id] = in_cls[0]
        elif node.op == "matmul":
            if node.shape_kind == "nn":
                # Tall x tall-transposed: graph-quadratic dense result.
                cls[node.id] = Sparsity.VIRTUAL
            else:
                # Includes SpMM/SpMV: a sparse (or transposed-sparse)
                # first operand with a tall/vector second operand
                # produces a non-quadratic, materialisable result.
                cls[node.id] = Sparsity.DENSE
        elif node.op in ("replicate", "replicate_t", "outer"):
            # Graph-quadratic replications are virtual; rank-1 tall
            # outer products (n x k feature gradients) materialise.
            cls[node.id] = (
                Sparsity.VIRTUAL
                if node.shape_kind == "nn"
                else Sparsity.DENSE
            )
        elif node.op == "sample":
            if in_cls[0] is Sparsity.DENSE:
                raise ValueError(
                    "sample needs a virtual or sparse n x n operand"
                )
            cls[node.id] = Sparsity.SPARSE
        elif node.op in ("row_sum", "col_sum", "row_norm", "row_scale"):
            cls[node.id] = Sparsity.DENSE
        else:  # pragma: no cover - guarded by the builder
            raise ValueError(f"no sparsity rule for op {node.op!r}")
    return cls

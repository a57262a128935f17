"""The op-DAG toolchain: sparsity inference, virtual tensors, fusion.

Implements the design flow of Figure 4 and the fusing optimisation of
Section 6.2. A model's :math:`\\Psi` is written as a DAG of tensor ops
(:mod:`repro.fusion.dag`); sparsity inference
(:mod:`repro.fusion.sparsity`) classifies every intermediate as dense,
sparse, or *virtual* (an :math:`n \\times n` dense that must never be
materialised, Section 6.1); the fusion pass (:mod:`repro.fusion.fuse`)
walks the execution DAG, finds paths from a virtual-producing edge to
the sparse sampling that consumes it, and collapses them into
SDDMM-like fused kernels; the interpreter (:mod:`repro.fusion.interp`)
executes either the fused program or a tile-materialising fallback (the
ablation baseline quantifying what fusion buys).

Pre-built DAGs for the paper's three models live in
:mod:`repro.fusion.models`. Reverse-mode autodiff over the IR
(:mod:`repro.fusion.autodiff`) derives the Section-5 backward
formulations from the same forward DAGs. There is one attention
executor: :mod:`repro.fusion.lower` lowers a layer DAG to an
:class:`~repro.core.formulation.AttentionSpec` — score kind, dense
operands and their VJP all derived — which
:class:`~repro.models.attention.AttentionLayer` runs as one compiled
sweep per pass, on one node or on a grid — the built-in VA, AGNN and GAT
included. :class:`repro.fusion.layer.DagLayer` trains models either way,
the interpreter being the oracle, with zero hand-written backward code.
"""

from repro.fusion.autodiff import GradProgram, build_vjp
from repro.fusion.dag import OpDag, OpNode
from repro.fusion.fuse import FusedKernel, FusedProgram, fuse
from repro.fusion.interp import ProgramRunner, execute
from repro.fusion.lower import lower_layer_dag
from repro.fusion.models import (
    agnn_layer_dag,
    agnn_psi_dag,
    gat_layer_dag,
    gat_psi_dag,
    va_layer_dag,
    va_psi_dag,
)
from repro.fusion.sparsity import Sparsity, infer_sparsity

__all__ = [
    "OpDag",
    "OpNode",
    "Sparsity",
    "infer_sparsity",
    "fuse",
    "FusedKernel",
    "FusedProgram",
    "execute",
    "ProgramRunner",
    "GradProgram",
    "build_vjp",
    "DagLayer",
    "lower_layer_dag",
    "va_psi_dag",
    "agnn_psi_dag",
    "gat_psi_dag",
    "va_layer_dag",
    "agnn_layer_dag",
    "gat_layer_dag",
]


def __getattr__(name: str):
    # DagLayer is an AttentionLayer, whose module lowers the built-in specs
    # through this package: the layer is imported on first use.
    if name == "DagLayer":
        from repro.fusion.layer import DagLayer

        return DagLayer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Sparse tensor substrate.

From-scratch COO and CSR sparse matrix formats backed by NumPy arrays,
semiring algebra (Section 4.3 of the paper), segment reductions, and the
compute kernels listed in Table 2 of the paper: SpMM, SDDMM, MM, SpMMM,
MSpMM, plus the masked row softmax used by graph attention.

SpMM picks its kernel from the semiring: the real semiring delegates
to ``scipy.sparse`` (which links against optimised BLAS), mirroring how
the paper's implementation delegates to cuSPARSE/MKL; every other
semiring runs the pure NumPy gather + ``reduceat`` path, which
``spmm_reference`` exposes for all of them as the correctness oracle.
"""

from repro.tensor.coo import COOMatrix
from repro.tensor.csr import CSRMatrix
from repro.tensor.semiring import (
    AVERAGE,
    REAL,
    TROPICAL_MAX,
    TROPICAL_MIN,
    Semiring,
)
from repro.tensor.kernels import (
    mm,
    mspmm,
    sddmm_add,
    sddmm_cosine,
    sddmm_dot,
    spmm,
    spmm_reference,
    spmmm,
)
from repro.tensor.segment import (
    bincount_sum,
    segment_max,
    segment_softmax,
    segment_sum,
)
from repro.tensor.sampling_graph import (
    Block,
    SamplingGraph,
    sample_blocks,
    sample_one_hop,
    sampling_graph_of,
)
from repro.tensor.structure import PatternStructure, lookup_structure

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "Semiring",
    "REAL",
    "TROPICAL_MIN",
    "TROPICAL_MAX",
    "AVERAGE",
    "spmm",
    "spmm_reference",
    "sddmm_dot",
    "sddmm_add",
    "sddmm_cosine",
    "mm",
    "spmmm",
    "mspmm",
    "segment_sum",
    "segment_max",
    "segment_softmax",
    "bincount_sum",
    "PatternStructure",
    "lookup_structure",
    "Block",
    "SamplingGraph",
    "sampling_graph_of",
    "sample_one_hop",
    "sample_blocks",
]

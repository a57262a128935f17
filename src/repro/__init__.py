"""repro — Global tensor formulations for attentional GNNs.

A comprehensive reproduction of *"High-Performance and Programmable
Attentional Graph Neural Networks with Global Tensor Formulations"*
(Besta et al., SC '23).

The package is organised into subsystems mirroring the paper:

``repro.tensor``
    From-scratch sparse tensor substrate: COO/CSR formats, semirings
    (real, tropical min/max, average), and the paper's compute kernels
    (SpMM, SDDMM, SpMMM, MSpMM, masked row softmax).
``repro.core``
    The paper's primary contribution: global tensor formulations —
    the Table-2 building blocks (``rep``, ``sum``, ``rs``, ``sm``), the
    graph softmax, the activations and the :math:`\\Psi` spec of the
    programmable layer :math:`H^{l+1} = \\sigma((\\Phi\\circ\\oplus)(\\Psi(A,H),H))`.
``repro.models``
    The one layer executing that equation, with the per-model
    attention operators :math:`\\Psi` of VA / AGNN / GAT / GCN as specs
    and manual global-formulation forward *and* backward passes
    (Section 5 of the paper).
``repro.fusion``
    The op-DAG toolchain: sparsity inference, virtual tensors, and
    the fusion pass generating SDDMM-like fused kernels (Section 6.2).
``repro.runtime``
    Simulated MPI/BSP runtime: threaded SPMD ranks, collective
    algorithms, per-rank communication-volume accounting and an
    alpha-beta-gamma cost model.
``repro.distributed``
    The A-stationary 1.5D distribution (Section 6.3) and distributed
    implementations of all models, training and inference.
``repro.baselines``
    Local-formulation engines standing in for DGL / DistDGL: the
    Section-2.2 message-passing oracle, the 1D halo-exchange full-batch
    engine (``repro.models`` layers on each rank's own+halo block) and a
    mini-batch sampled trainer.
``repro.graphs``
    Kronecker (Graph500-style), Erdős–Rényi and power-law generators,
    preprocessing and synthetic labelled datasets.
``repro.training``
    Losses, optimisers, a full-batch trainer and metrics.
``repro.theory``
    Closed-form communication-volume predictors (Section 7).
``repro.bench``
    The paper-figure sweep: exact per-rank words and flops plus
    alpha-beta modeled time for every figure's grid. Wall-clock is
    measured outside the package, by ``benchmarks/e2e/run.py``.
"""

from repro._version import __version__

__all__ = ["__version__"]

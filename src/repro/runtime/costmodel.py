"""Alpha-beta-gamma machine model: accounting → modeled time.

On a single host, wall-clock time of the threaded simulation measures
the host, not the simulated cluster. The scaling figures therefore plot
*modeled* execution time computed from the exact per-rank accounting:

.. math:: T = \\max_r \\left( \\frac{F_r}{\\gamma} \\right)
          + \\alpha \\cdot \\max_r M_r + \\beta \\cdot \\max_r B_r

with per-rank flops :math:`F_r`, messages :math:`M_r` and bytes
:math:`B_r` — the standard LogP-style alpha (per-message latency),
beta (per-byte bandwidth) and gamma (flop rate) decomposition the
Section-7 analysis is phrased in. Default parameters approximate the
paper's Cray Aries + P100 platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.stats import RunStats

__all__ = ["MachineParams", "CostModel"]


@dataclass(frozen=True)
class MachineParams:
    """Machine constants of the modeled cluster.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds (Aries-class fabric ≈ 1.5 µs).
    beta:
        Seconds per byte (≈ 10 GB/s effective per-node injection
        bandwidth → 1e-10 s/B).
    flop_rate:
        Sustained flops/s of one node's accelerator on *dense* kernels
        (P100-class ≈ 1 Tflop/s sustained on GEMM).
    sparse_flop_rate:
        Sustained flops/s on *sparse/edge-wise* kernels (SpMM, SDDMM,
        segment softmax). These are memory-bandwidth-bound: a P100
        sustains ~50 Gflop/s on SpMM-class work, a 20x gap to GEMM.
        Modelling this gap is essential — it is why the paper's
        full-batch runtimes grow steeply with edge count at high
        density, letting DistDGL's sampled mini-batches win there.
    """

    alpha: float = 1.5e-6
    beta: float = 1.0e-10
    flop_rate: float = 1.0e12
    sparse_flop_rate: float = 5.0e10

    def __post_init__(self) -> None:
        if min(self.alpha, self.beta, self.flop_rate,
               self.sparse_flop_rate) <= 0:
            raise ValueError("machine parameters must be positive")


#: Piz-Daint-flavoured defaults used by the benchmark harness.
PIZ_DAINT = MachineParams()

#: Flop-counter labels charged at the sparse (memory-bound) rate: the
#: edge kernels, and the vector-wide dense code of a spec (its score
#: operands and their VJP); all other labels (dense GEMMs, the
#: pre-calibrated sampling charge) use the dense rate.
SPARSE_LABELS = frozenset({
    "SpMM", "SDDMM", "softmax", "softmax_bwd", "norms", "operands", "operands_vjp",
})


class CostModel:
    """Convert :class:`RunStats` into modeled execution time."""

    def __init__(self, params: MachineParams = PIZ_DAINT) -> None:
        self.params = params

    def _rank_compute(self, flops_by_label: dict[str, int]) -> float:
        sparse = sum(
            v for k, v in flops_by_label.items() if k in SPARSE_LABELS
        )
        dense = sum(
            v for k, v in flops_by_label.items() if k not in SPARSE_LABELS
        )
        return (
            sparse / self.params.sparse_flop_rate
            + dense / self.params.flop_rate
        )

    def compute_time(self, stats: RunStats) -> float:
        """Critical-path local compute: ``max_r`` of the two-rate sum."""
        return max(
            (self._rank_compute(s.flops.by_label) for s in stats.per_rank),
            default=0.0,
        )

    def communication_time(self, stats: RunStats) -> float:
        """Latency plus bandwidth terms, ``alpha max M_r + beta max B_r``."""
        return (
            self.params.alpha * stats.max_messages_sent
            + self.params.beta * stats.max_bytes_sent
        )

    def time(self, stats: RunStats) -> float:
        """Total modeled time of a *synchronous* execution."""
        return self.compute_time(stats) + self.communication_time(stats)

    def overlapped_time(self, stats: RunStats) -> float:
        """Modeled time when local compute hides the bandwidth term.

        The layers run overlapped by default (``overlap=False`` is the
        parity oracle): each transfer is initiated at its program point
        but blocks only at first use, so the wire and the local kernels
        run concurrently and per phase the cost is
        ``max(compute, beta·B)`` rather than their sum. The
        per-message latency term stays serial — handles are resolved in
        initiation order, so every message's alpha is still paid on the
        critical path.
        """
        bandwidth_s = self.params.beta * stats.max_bytes_sent
        latency_s = self.params.alpha * stats.max_messages_sent
        return max(self.compute_time(stats), bandwidth_s) + latency_s

    def serial_fraction(self, stats: RunStats) -> float:
        """Share of the synchronous modeled time overlap cannot hide.

        ``overlapped_time / time`` — 1.0 means nothing to gain (all
        compute or all latency), values toward 0.5 mean compute and
        bandwidth are balanced and overlap halves the modeled total.
        """
        total = self.time(stats)
        if total == 0.0:
            return 1.0
        return self.overlapped_time(stats) / total

    def breakdown(self, stats: RunStats) -> dict[str, float]:
        """Compute/communication split for reporting.

        ``total_s`` keeps the synchronous sum (``compute_s +
        communication_s``); the overlap projection rides along as
        ``overlapped_s``/``serial_fraction``.
        """
        return {
            "compute_s": self.compute_time(stats),
            "communication_s": self.communication_time(stats),
            "total_s": self.time(stats),
            "overlapped_s": self.overlapped_time(stats),
            "serial_fraction": self.serial_fraction(stats),
        }

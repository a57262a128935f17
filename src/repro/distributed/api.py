"""One-call entry points for distributed execution on the simulated cluster.

These helpers own the SPMD boilerplate: they spin up ``p`` ranks, build
the grid, distribute the adjacency and features, construct replicated
models, run inference or full-batch training, and hand back the
assembled outputs together with the communication statistics that the
benchmark harness converts into modeled time.

Training is a batch source for the one
:func:`~repro.training.trainer.train_step`: a rank's model is a plain
:class:`~repro.models.base.GnnModel`, its adjacency block every layer's
hop, and its loss a :class:`~repro.training.loss.PartitionedLoss` — the
terms over the rank's own feature block, normalised by the global
labelled count, the scalar sums reduced across ranks. Losses and outputs
match the single-node trainer's to summation-order noise — relative
1e-10 in float64 and 1e-5 in float32, the tolerances
``tests/test_distributed_equivalence.py`` writes down. Malformed inputs
are refused with a ``ValueError`` naming the argument before any rank
starts (:func:`~repro.distributed.partition.check_inputs`, the square
grid's ``p``, and the model's own arguments, by one unbound
:func:`build_dist_model`).

Ranks are threads of this process (:func:`repro.runtime.executor.run_spmd`);
the ``backend`` keyword both entry points still carry selects nothing —
see :func:`_check_backend`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.distributed.model import build_dist_model
from repro.distributed.partition import (
    block_range,
    check_inputs,
    collect_feature_blocks,
    distribute_adjacency,
    distribute_features,
)
from repro.models.base import Hop
from repro.runtime.executor import run_spmd
from repro.runtime.grid import square_grid
from repro.runtime.stats import RunStats
from repro.tensor.csr import CSRMatrix
from repro.training.loss import PartitionedLoss, cross_entropy_terms
from repro.training.optim import SGD
from repro.training.trainer import train_step

__all__ = [
    "DistributedResult",
    "distributed_inference",
    "distributed_train",
]

def _check_backend(backend: str) -> None:
    """Refuse anything but ``"thread"``.

    Vestigial: ``benchmarks/e2e`` (``workloads.py``, ``probes.py``)
    passes ``backend="thread"`` and a non-benchmark change may not edit
    that directory, so the keyword outlived the process fabric it used
    to select. It is forwarded nowhere; the next benchmark PR (ROADMAP
    1(c)) drops it there and here.
    """
    if backend != "thread":
        raise ValueError(
            f"backend={backend!r}: the process fabric was removed, ranks "
            'are threads; the only accepted value is "thread"'
        )


def _check_square(p: int) -> None:
    """The 1.5D grid's own rule, beside :func:`check_inputs`."""
    if p < 1 or math.isqrt(p) ** 2 != p:
        raise ValueError(f"p={p}: the 1.5D grid is square, so p must be a perfect square >= 1")


@dataclass
class DistributedResult:
    """Assembled outcome of a distributed run."""

    output: np.ndarray | None
    losses: list[float]
    stats: RunStats


def distributed_inference(
    model_name: str | AttentionSpec,
    a: CSRMatrix,
    features: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    p: int = 4,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
    timeout: float = 120.0,
    backend: str = "thread",
    overlap: bool = True,
    **layer_kwargs,
) -> DistributedResult:
    """Run a full inference pass on ``p`` simulated ranks.

    ``model_name`` is what :func:`build_dist_model` takes: a built-in
    name or an ``AttentionSpec`` that declares a score kind. ``p`` must
    be a perfect square (the Section-7 grid). Returns the assembled
    output features and the run's traffic statistics. The layer
    schedules are comm/compute-overlapped by default and
    ``overlap=False`` is the synchronous parity oracle.
    """
    _check_backend(backend)
    _check_square(p)
    check_inputs(a, features)
    build = partial(build_dist_model, name=model_name, in_dim=features.shape[1],
                    hidden_dim=hidden_dim, out_dim=out_dim, num_layers=num_layers, seed=seed,
                    dtype=dtype, overlap=overlap, **layer_kwargs)
    build(None)  # bad model arguments raise here, before any rank starts

    def program(comm):
        grid = square_grid(comm)
        a_block = distribute_adjacency(a, grid)
        h_block = distribute_features(features, grid)
        model = build(grid)
        out_block = model.forward(a_block, h_block, counter=comm.stats.flops, training=False)
        return collect_feature_blocks(grid, out_block)

    result = run_spmd(p, program, timeout=timeout)
    return DistributedResult(output=result.values[0], losses=[], stats=result.stats)


def distributed_train(
    model_name: str | AttentionSpec,
    a: CSRMatrix,
    features: np.ndarray,
    labels: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    p: int = 4,
    epochs: int = 1,
    lr: float = 0.01,
    mask: np.ndarray | None = None,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
    timeout: float = 300.0,
    collect_output: bool = True,
    backend: str = "thread",
    overlap: bool = True,
    **layer_kwargs,
) -> DistributedResult:
    """Full-batch distributed training for ``epochs`` iterations.

    Each epoch is one forward + backward pass plus a replicated SGD
    step — the paper's measured training unit. Returns the per-epoch
    losses, the final output features (assembled at rank 0 when
    ``collect_output``) and traffic statistics. The layer schedules are
    comm/compute-overlapped by default and ``overlap=False`` is the
    synchronous parity oracle.
    """
    _check_backend(backend)
    _check_square(p)
    check_inputs(a, features, labels, mask, out_dim)
    n = features.shape[0]
    # Globally averaged terms: one per labelled row.
    count = n if mask is None else int(mask.sum())
    build = partial(build_dist_model, name=model_name, in_dim=features.shape[1],
                    hidden_dim=hidden_dim, out_dim=out_dim, num_layers=num_layers, seed=seed,
                    dtype=dtype, overlap=overlap, **layer_kwargs)
    build(None)  # bad model arguments raise here, before any rank starts

    def program(comm):
        # The rank's adjacency block is every layer's hop; the layers
        # communicate inside, and gradients come out replicated, so the
        # step syncs none.
        grid = square_grid(comm)
        a_block = distribute_adjacency(a, grid)
        h_block = distribute_features(features, grid)
        own = slice(*block_range(n, grid.py, grid.col))
        # Feature blocks are replicated down grid columns; count each
        # block's loss contribution exactly once (grid row 0).
        block_loss = PartitionedLoss(cross_entropy_terms, None if mask is None else mask[own],
                                     count, grid.comm.allreduce, counted=grid.row == 0)
        model = build(grid)
        hops, optimizer = [Hop(a_block)] * model.num_layers, SGD(lr)
        losses = [train_step(model, block_loss, optimizer, hops, h_block, labels[own],
                             comm.stats.flops) for _ in range(epochs)]
        out_block = model.output
        model.zero_caches()
        return losses, collect_feature_blocks(grid, out_block) if collect_output else None

    result = run_spmd(p, program, timeout=timeout)
    losses, output = result.values[0]
    return DistributedResult(output=output, losses=losses, stats=result.stats)

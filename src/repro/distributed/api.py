"""One-call entry points for distributed execution on the simulated cluster.

These helpers own the SPMD boilerplate: they spin up ``p`` ranks, build
the grid, distribute the adjacency and features, construct replicated
models, run inference or full-batch training, and hand back the
assembled outputs together with the communication statistics that the
benchmark harness converts into modeled time.

Loss handling is genuinely distributed: each rank evaluates the loss
and its gradient on its own feature block only, with the global
normaliser (labelled-vertex count) and the scalar loss reduced across
ranks — matching the numerics of the single-node trainer exactly, which
the equivalence tests assert.

The rank programs are module-level functions (not closures) so the
same entry points run unchanged on the process-parallel backend:
``distributed_inference(..., backend="process")`` spawns real OS
processes, and the ``REPRO_FABRIC_BACKEND`` environment variable flips
a whole test run without touching call sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.model import build_dist_model
from repro.distributed.partition import (
    block_range,
    collect_feature_blocks,
    distribute_adjacency,
    distribute_features,
)
from repro.runtime.executor import run_spmd
from repro.runtime.grid import square_grid
from repro.runtime.stats import RunStats
from repro.tensor.csr import CSRMatrix
from repro.training.loss import log_softmax

__all__ = [
    "DistributedResult",
    "distributed_inference",
    "distributed_training_step",
    "distributed_train",
]


@dataclass
class DistributedResult:
    """Assembled outcome of a distributed run."""

    output: np.ndarray | None
    losses: list[float]
    stats: RunStats


def _block_loss_gradient(
    loss: str,
    h_block: np.ndarray,
    labels_block: np.ndarray,
    mask_block: np.ndarray | None,
    global_count: int,
) -> tuple[float, np.ndarray]:
    """Local (unreduced) loss sum and gradient block.

    The gradient uses the *global* labelled count as normaliser so the
    concatenated blocks equal the single-node gradient; the returned
    loss is this block's unnormalised sum (callers allreduce and divide).
    """
    if mask_block is None:
        mask_block = np.ones(h_block.shape[0], dtype=bool)
    idx = np.flatnonzero(mask_block)
    grad = np.zeros_like(h_block, dtype=np.float64)
    if idx.size == 0:
        return 0.0, grad.astype(h_block.dtype)
    h = h_block[idx].astype(np.float64)
    y = labels_block[idx]
    if loss == "ce":
        logp = log_softmax(h)
        local_sum = float(-logp[np.arange(idx.size), y].sum())
        g = np.exp(logp)
        g[np.arange(idx.size), y] -= 1.0
        grad[idx] = g / max(global_count, 1)
    elif loss == "mse":
        diff = h - y
        local_sum = float((diff * diff).sum())
        grad[idx] = 2.0 * diff / max(global_count * h.shape[1], 1)
    else:
        raise ValueError("loss must be 'ce' or 'mse'")
    return local_sum, grad.astype(h_block.dtype)


def _loss_denominator(loss: str, mask: np.ndarray | None, n: int,
                      out_dim: int) -> int:
    count = int(mask.sum()) if mask is not None else n
    return count if loss == "ce" else count * out_dim


def _inference_program(
    comm,
    model_name: str,
    a: CSRMatrix,
    features: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    num_layers: int,
    seed: int,
    dtype,
    layer_kwargs: dict,
    overlap: bool = True,
):
    """SPMD rank program for :func:`distributed_inference`.

    Module-level (not a closure) so the spawn-based process backend can
    pickle it by reference; every argument after ``comm`` arrives via
    ``run_spmd`` kwargs, identical on all ranks.
    """
    grid = square_grid(comm)
    a_block = distribute_adjacency(a, grid)
    h_block = distribute_features(features, grid)
    model = build_dist_model(
        grid, model_name, features.shape[1], hidden_dim, out_dim,
        num_layers=num_layers, seed=seed, dtype=dtype, overlap=overlap,
        **layer_kwargs,
    )
    out_block = model.forward(
        a_block, h_block, counter=comm.stats.flops, training=False
    )
    return collect_feature_blocks(grid, out_block)


def distributed_inference(
    model_name: str,
    a: CSRMatrix,
    features: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    p: int = 4,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
    timeout: float = 120.0,
    backend: str | None = None,
    overlap: bool = True,
    **layer_kwargs,
) -> DistributedResult:
    """Run a full inference pass on ``p`` simulated ranks.

    ``p`` must be a perfect square (the Section-7 grid). Returns the
    assembled output features and the run's traffic statistics.
    ``backend`` selects the execution fabric (thread/process, see
    :func:`repro.runtime.executor.run_spmd`); the layer schedules are
    comm/compute-overlapped by default and ``overlap=False`` is the
    synchronous parity oracle.
    """
    result = run_spmd(
        p, _inference_program, timeout=timeout, backend=backend,
        model_name=model_name, a=a, features=features,
        hidden_dim=hidden_dim, out_dim=out_dim, num_layers=num_layers,
        seed=seed, dtype=dtype, layer_kwargs=layer_kwargs, overlap=overlap,
    )
    return DistributedResult(
        output=result.values[0], losses=[], stats=result.stats
    )


def _training_program(
    comm,
    model_name: str,
    a: CSRMatrix,
    features: np.ndarray,
    labels: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    num_layers: int,
    epochs: int,
    lr: float,
    loss: str,
    mask: np.ndarray | None,
    seed: int,
    dtype,
    collect_output: bool,
    denom: int,
    layer_kwargs: dict,
    overlap: bool = True,
):
    """SPMD rank program for :func:`distributed_train` (module-level,
    picklable — see :func:`_inference_program`)."""
    n = features.shape[0]
    grid = square_grid(comm)
    a_block = distribute_adjacency(a, grid)
    h_block = distribute_features(features, grid)
    c0, c1 = block_range(n, grid.py, grid.col)
    labels_block = labels[c0:c1]
    mask_block = None if mask is None else mask[c0:c1]
    model = build_dist_model(
        grid, model_name, features.shape[1], hidden_dim, out_dim,
        num_layers=num_layers, seed=seed, dtype=dtype, overlap=overlap,
        **layer_kwargs,
    )
    losses: list[float] = []
    out_block = None
    for _epoch in range(epochs):
        out_block = model.forward(
            a_block, h_block, counter=comm.stats.flops, training=True
        )
        global_count = denom if loss == "ce" else denom // out_dim
        local_sum, grad_block = _block_loss_gradient(
            loss, out_block, labels_block, mask_block, global_count
        )
        # Feature blocks are replicated down grid columns; count each
        # block's loss contribution exactly once (grid row 0).
        contribution = local_sum if grid.row == 0 else 0.0
        losses.append(
            float(grid.comm.allreduce(np.array(contribution))) / denom
        )
        grads = model.backward(grad_block, counter=comm.stats.flops)
        model.apply_gradients(grads, lr)
    model.zero_caches()
    collected = (
        collect_feature_blocks(grid, out_block) if collect_output else None
    )
    return losses, collected


def distributed_train(
    model_name: str,
    a: CSRMatrix,
    features: np.ndarray,
    labels: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    p: int = 4,
    epochs: int = 1,
    lr: float = 0.01,
    loss: str = "ce",
    mask: np.ndarray | None = None,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
    timeout: float = 300.0,
    collect_output: bool = True,
    backend: str | None = None,
    overlap: bool = True,
    **layer_kwargs,
) -> DistributedResult:
    """Full-batch distributed training for ``epochs`` iterations.

    Each epoch is one forward + backward pass plus a replicated SGD
    step — the paper's measured training unit. Returns the per-epoch
    losses, the final output features (assembled at rank 0 when
    ``collect_output``) and traffic statistics. ``backend`` selects the
    execution fabric (thread/process); the layer schedules are
    comm/compute-overlapped by default and ``overlap=False`` is the
    synchronous parity oracle.
    """
    n = features.shape[0]
    denom = _loss_denominator(loss, mask, n, out_dim)
    result = run_spmd(
        p, _training_program, timeout=timeout, backend=backend,
        model_name=model_name, a=a, features=features, labels=labels,
        hidden_dim=hidden_dim, out_dim=out_dim, num_layers=num_layers,
        epochs=epochs, lr=lr, loss=loss, mask=mask, seed=seed, dtype=dtype,
        collect_output=collect_output, denom=denom,
        layer_kwargs=layer_kwargs, overlap=overlap,
    )
    losses, output = result.values[0]
    return DistributedResult(output=output, losses=losses, stats=result.stats)


def distributed_training_step(
    model_name: str,
    a: CSRMatrix,
    features: np.ndarray,
    labels: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    **kwargs,
) -> DistributedResult:
    """One full-batch training iteration (``epochs=1`` convenience)."""
    kwargs.setdefault("epochs", 1)
    return distributed_train(
        model_name, a, features, labels, hidden_dim, out_dim, **kwargs
    )

"""One-call entry points for distributed execution on the simulated cluster.

These helpers own the SPMD boilerplate: they spin up ``p`` ranks, build
the grid, distribute the adjacency and features, construct replicated
models, run inference or full-batch training, and hand back the
assembled outputs together with the communication statistics that the
benchmark harness converts into modeled time.

Loss handling is genuinely distributed: each rank evaluates the
:mod:`repro.training.loss` terms on its own feature block only,
normalised by the global labelled count, and the scalar sums are reduced
across ranks. Losses and outputs match the single-node trainer's to
summation-order noise — relative 1e-10 in float64 and 1e-5 in float32,
the tolerances ``tests/test_distributed_equivalence.py`` writes down. A
rank's model is a plain :class:`~repro.models.base.GnnModel` stepped by
``training.optim.SGD``. Malformed inputs are refused with a
``ValueError`` naming the argument before any rank starts.

Ranks are threads of this process (:func:`repro.runtime.executor.run_spmd`);
the ``backend`` keyword both entry points still carry selects nothing —
see :func:`_check_backend`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.formulation import AttentionSpec
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
from repro.training.loss import (
    block_loss_terms,
    cross_entropy_terms,
    squared_error_terms,
)
from repro.training.optim import SGD

__all__ = [
    "DistributedResult",
    "distributed_inference",
    "distributed_train",
]

#: ``distributed_train(loss=...)`` names.
_LOSS_TERMS = {"ce": cross_entropy_terms, "mse": squared_error_terms}


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


def _check_inputs(
    a: CSRMatrix,
    features: np.ndarray,
    p: int,
    labels: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    loss: str | None = None,
    out_dim: int | None = None,
) -> None:
    """Refuse a run that would fail inside a rank thread, naming the
    argument: a square ``p`` and adjacency, one feature row per vertex,
    ``labels`` / ``mask`` of length ``n``, and for ``"ce"`` integer
    labels in ``[0, out_dim)`` wherever the mask reads one."""
    if p < 1 or math.isqrt(p) ** 2 != p:
        raise ValueError(f"p={p}: the 1.5D grid is square, so p must be a perfect square >= 1")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"a has shape {a.shape}; the adjacency must be square")
    if np.ndim(features) != 2 or len(features) != n:
        raise ValueError(
            f"features has shape {np.shape(features)}; a {a.shape} adjacency needs ({n}, in_dim)")
    for name, value in (("labels", labels), ("mask", mask)):
        if value is not None and len(value) != n:
            raise ValueError(f"{name} has length {len(value)}; the graph has {n} vertices")
    if loss == "ce":
        read = np.asarray(labels) if mask is None else np.asarray(labels)[np.asarray(mask, bool)]
        if read.ndim != 1 or not np.issubdtype(read.dtype, np.integer) or (
            read.size and (read.min() < 0 or read.max() >= out_dim)
        ):
            raise ValueError(f'labels for loss "ce" must be integer classes in [0, {out_dim})')


@dataclass
class DistributedResult:
    """Assembled outcome of a distributed run."""

    output: np.ndarray | None
    losses: list[float]
    stats: RunStats


def _inference_program(
    comm, a: CSRMatrix, features: np.ndarray, model_args: dict
):
    """SPMD rank program for :func:`distributed_inference`.

    Every argument after ``comm`` arrives via ``run_spmd`` kwargs,
    identical on all ranks. ``model_args`` is what
    :func:`build_dist_model` takes after the rank's grid.
    """
    grid = square_grid(comm)
    a_block = distribute_adjacency(a, grid)
    h_block = distribute_features(features, grid)
    model = build_dist_model(grid, **model_args)
    out_block = model.forward(
        a_block, h_block, counter=comm.stats.flops, training=False
    )
    return collect_feature_blocks(grid, out_block)


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
    _check_inputs(a, features, p)
    model_args = dict(
        name=model_name, in_dim=features.shape[1], hidden_dim=hidden_dim,
        out_dim=out_dim, num_layers=num_layers, seed=seed, dtype=dtype,
        overlap=overlap, **layer_kwargs,
    )
    result = run_spmd(
        p, _inference_program, timeout=timeout,
        a=a, features=features, model_args=model_args,
    )
    return DistributedResult(
        output=result.values[0], losses=[], stats=result.stats
    )


def _training_program(
    comm,
    a: CSRMatrix,
    features: np.ndarray,
    labels: np.ndarray,
    model_args: dict,
    epochs: int,
    lr: float,
    loss: str,
    mask: np.ndarray | None,
    collect_output: bool,
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
    # Globally averaged terms: labelled rows ("ce"), their elements ("mse").
    count = n if mask is None else int(mask.sum())
    if loss == "mse":
        count *= model_args["out_dim"]
    model = build_dist_model(grid, **model_args)
    # Gradients are replicated, so the step is identical on every rank.
    optimizer = SGD(lr)
    losses: list[float] = []
    out_block = None
    for _epoch in range(epochs):
        out_block = model.forward(
            a_block, h_block, counter=comm.stats.flops, training=True
        )
        local_sum, grad_block = block_loss_terms(
            _LOSS_TERMS[loss], out_block, labels_block, mask_block, count
        )
        # Feature blocks are replicated down grid columns; count each
        # block's loss contribution exactly once (grid row 0).
        contribution = local_sum if grid.row == 0 else 0.0
        losses.append(
            float(grid.comm.allreduce(np.array(contribution)))
            / max(count, 1)
        )
        grads = model.backward(grad_block, counter=comm.stats.flops)
        optimizer.step(model, grads)
    model.zero_caches()
    collected = (
        collect_feature_blocks(grid, out_block) if collect_output else None
    )
    return losses, collected


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
    loss: str = "ce",
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
    if loss not in _LOSS_TERMS:
        raise ValueError(
            f"loss must be one of {sorted(_LOSS_TERMS)}, got {loss!r}"
        )
    _check_inputs(a, features, p, labels, mask, loss, out_dim)
    model_args = dict(
        name=model_name, in_dim=features.shape[1], hidden_dim=hidden_dim,
        out_dim=out_dim, num_layers=num_layers, seed=seed, dtype=dtype,
        overlap=overlap, **layer_kwargs,
    )
    result = run_spmd(
        p, _training_program, timeout=timeout,
        a=a, features=features, labels=labels, model_args=model_args,
        epochs=epochs, lr=lr, loss=loss, mask=mask,
        collect_output=collect_output,
    )
    losses, output = result.values[0]
    return DistributedResult(output=output, losses=losses, stats=result.stats)

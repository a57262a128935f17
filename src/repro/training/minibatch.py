"""Sampled mini-batch training engine over layered blocks.

The full-batch :class:`~repro.training.trainer.Trainer` holds every
layer's activations for the whole graph — the memory ceiling the paper
concedes to DistDGL. This module lifts it: training runs on
fan-out-limited mini-batches sampled by
:mod:`repro.tensor.sampling_graph`, so the working set per step is
bounded by the fan-out budget instead of the graph.

:class:`MinibatchTrainer` is a batch source for the full-batch
trainer's epoch loop: per epoch it shuffles the target vertices and
hands each batch's sampled blocks to the one
:func:`~repro.training.trainer.train_step`, which runs the *unchanged*
model layers (``AttentionLayer``'s one row sweep per block,
``DagLayer``-derived, interpreted or fused). A block has one row per
destination over its source frame, and each layer computes exactly
those rows (``rows=dst_positions``); the first layer forms no input
gradient. A block is a cold pattern, and the sweep builds neither its
transpose nor its row-index vector. ``train_step`` and :mod:`repro.models.base`'s
``forward_blocks`` / ``backward_blocks`` are re-exported here.

Bit-identity contract (tested per model in
``tests/test_minibatch.py``): with ``fanout >= max degree`` and one
batch covering every vertex, the sampled loop reproduces the
full-batch trainer's loss curve and final weights *bit-for-bit* —
sampling only reorders nothing, computes nothing differently, and the
compaction map is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.base import GnnModel, Loss, backward_blocks, forward_blocks
from repro.obs.tracer import tracer
from repro.tensor.csr import CSRMatrix
from repro.tensor.sampling_graph import check_fanouts, sample_blocks, vertex_ids
from repro.training.optim import Optimizer
from repro.training.trainer import Trainer, TrainResult, train_step
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import make_rng

__all__ = [
    "MinibatchResult",
    "MinibatchTrainer",
    "train_step",
    "forward_blocks",
    "backward_blocks",
]


@dataclass
class MinibatchResult(TrainResult):
    """Per-epoch history plus the flat per-batch loss trace."""

    batch_losses: list[float] = field(default_factory=list)
    sampled_edges: int = 0


class MinibatchTrainer(Trainer):
    """Drives sampled mini-batch training of an *unchanged* model.

    Parameters
    ----------
    model, loss, optimizer:
        Exactly the full-batch trainer's ingredients. The loss must be
        unmasked: sampled training selects labelled vertices by
        passing them as ``targets`` instead. Every layer must read one
        hop (each block is one sampled hop; SGC with ``hops > 1`` is
        refused).
    fanouts:
        Per-layer neighbour fan-outs (length must equal the model
        depth); ``None`` entries take every neighbour.
    batch_size:
        Target vertices per step.
    shuffle:
        Permute the target order each epoch (disable for the
        bit-identity parity against the full-batch loop).
    seed:
        Sampling/shuffle seed. Each :meth:`fit` call restarts the
        stream, so a run is reproducible from its arguments alone.
    """

    def __init__(
        self,
        model: GnnModel,
        loss: Loss,
        optimizer: Optimizer,
        fanouts: tuple[int | None, ...],
        batch_size: int = 1024,
        shuffle: bool = True,
        seed: int = 0,
    ) -> None:
        fanouts = tuple(fanouts)
        check_fanouts(fanouts, model.num_layers)
        model.require_one_hop("sampled training samples one hop per layer")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if getattr(loss, "mask", None) is not None:
            raise ValueError(
                "sampled training selects labelled vertices via targets; "
                "use an unmasked loss"
            )
        super().__init__(model, loss, optimizer)
        self.fanouts = fanouts
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def fit(
        self,
        a: CSRMatrix,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 1,
        targets: np.ndarray | None = None,
        val_mask: np.ndarray | None = None,
        full_eval: bool = True,
        counter: FlopCounter = null_counter(),
        verbose: bool = False,
    ) -> MinibatchResult:
        """Train for ``epochs`` passes over the (shuffled) targets.

        ``targets`` may be integer vertex ids in ``[0, n)`` or a boolean
        mask (defaults to every vertex); it must select at least one
        vertex. Bad targets raise before any batch trains.
        ``full_eval`` runs a cache-free *full-graph* forward after each
        epoch for train/val accuracy — the standard sampled-training
        protocol (sample to train, full graph to evaluate); disable it
        on graphs beyond the full-batch ceiling.
        """
        targets = _as_target_ids(targets, a.shape[0])
        rng = make_rng(self.seed)
        result = MinibatchResult()

        def epoch_losses(epoch: int) -> list[float]:
            losses: list[float] = []
            with tracer().span("minibatch.epoch", counter=counter, epoch=epoch):
                order = rng.permutation(targets) if self.shuffle else targets
                for start in range(0, order.shape[0], self.batch_size):
                    batch = order[start : start + self.batch_size]
                    with tracer().span("minibatch.sample", vertices=int(batch.shape[0])):
                        blocks = sample_blocks(a, batch, self.fanouts, rng)
                    losses.append(train_step(self.model, self.loss, self.optimizer,
                                             blocks, features, labels, counter=counter))
                    result.sampled_edges += sum(b.sampled_edges for b in blocks)
            result.batch_losses.extend(losses)
            return losses

        return self._epochs(
            result, epochs, epoch_losses,
            lambda: self.model.forward(a, features, training=False) if full_eval else None,
            labels, np.isin(np.arange(a.shape[0]), targets), val_mask, None, verbose,
        )


def _as_target_ids(targets, n: int) -> np.ndarray:
    targets = np.arange(n) if targets is None else np.asarray(targets)
    if targets.dtype == bool:
        if targets.shape != (n,):
            raise ValueError("boolean target mask must have length n")
        targets = np.flatnonzero(targets)
    targets = vertex_ids(targets, n, "targets")
    if targets.size == 0:
        raise ValueError("targets selects no vertex; there is nothing to train on")
    return np.unique(targets)

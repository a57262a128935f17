"""The one training step, and the full-batch trainer.

:func:`train_step` is every batch's gather → forward → loss → backward
→ gradient sync → update. Training modes differ only in the batch
source, the hops, rows and exchange they hand it: the whole graph as
every layer's hop (:class:`Trainer`, one complete forward and backward
pass per epoch — the paper's measured unit of work), sampled blocks
(:mod:`repro.training.minibatch`), a rank's 1.5D adjacency block
(:mod:`repro.distributed.api`), or a DistDGL-style own+halo block or
sampled blocks (:mod:`repro.baselines`). The trainers record per-epoch
loss/metric history and support early stopping on a validation mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.models.base import Exchange, GnnModel, Hop, Loss, backward_blocks, forward_blocks
from repro.obs.tracer import tracer
from repro.tensor.csr import CSRMatrix
from repro.training.metrics import accuracy
from repro.training.optim import Optimizer
from repro.util.counters import FlopCounter, null_counter

__all__ = ["Trainer", "TrainResult", "train_step"]


@dataclass
class TrainResult:
    """History of one training run."""

    losses: list[float] = field(default_factory=list)
    train_accuracies: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_step(
    model: GnnModel,
    loss: Loss,
    optimizer: Optimizer,
    blocks: Sequence[Hop],
    features: np.ndarray,
    labels: np.ndarray,
    counter: FlopCounter = null_counter(),
    exchange: Exchange | None = None,
    sync: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """One training step over one hop per layer; returns the loss.

    Sampled blocks gather their rows locally (``features`` / ``labels``
    are then the *full* matrices and only the sampled rows are touched,
    which mirrors a rank-local feature store); other hops read them as
    given. ``exchange`` goes to the layer walk; ``sync`` maps each
    parameter gradient to its value over the ranks before the update.
    The output rows stay on ``model.output``.
    """
    src_nodes = getattr(blocks[0], "src_nodes", None)
    dst_nodes = getattr(blocks[-1], "dst_nodes", None)
    h0 = features if src_nodes is None else np.ascontiguousarray(features[src_nodes])
    y = labels if dst_nodes is None else labels[dst_nodes]
    with tracer().span("train.step", counter=counter, batch_size=len(y)):
        out, caches = forward_blocks(model, blocks, h0, counter, exchange=exchange)
        value, d_out = loss.evaluate(out, y)
        grads = backward_blocks(model, blocks, caches, d_out, counter, exchange)
        if sync is not None:
            grads = [{name: sync(g) for name, g in layer.items()} for layer in grads]
        optimizer.step(model, grads)
    model.output = out
    return value


class Trainer:
    """Drives full-batch training of a :class:`GnnModel`.

    Parameters
    ----------
    model, loss, optimizer:
        The three training ingredients; the loss must implement
        :class:`repro.models.base.Loss`.
    """

    def __init__(self, model: GnnModel, loss: Loss, optimizer: Optimizer) -> None:
        self.model = model
        self.loss = loss
        self.optimizer = optimizer

    def fit(
        self,
        a: CSRMatrix,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 100,
        train_mask: np.ndarray | None = None,
        val_mask: np.ndarray | None = None,
        patience: int | None = None,
        counter: FlopCounter = null_counter(),
        verbose: bool = False,
    ) -> TrainResult:
        """Train for up to ``epochs`` full-batch iterations.

        ``patience`` enables early stopping on validation accuracy and
        needs ``val_mask``; ``train_mask``/``val_mask`` select labelled
        vertices for the metrics, read off each epoch's training pass
        (the loss carries its own mask).
        """
        hops = [Hop(a)] * self.model.num_layers

        def epoch_losses(epoch: int) -> list[float]:
            with tracer().span("train.epoch", counter=counter, epoch=epoch):
                return [train_step(self.model, self.loss, self.optimizer, hops,
                                   features, labels, counter=counter)]

        return self._epochs(TrainResult(), epochs, epoch_losses, lambda: self.model.output,
                            labels, train_mask, val_mask, patience, verbose)

    def _epochs(self, result: TrainResult, epochs: int, epoch_losses: Callable[[int], list[float]],
                output: Callable[[], np.ndarray | None], labels: np.ndarray,
                train_mask: np.ndarray | None, val_mask: np.ndarray | None,
                patience: int | None, verbose: bool) -> TrainResult:
        """The one epoch loop: ``epoch_losses(epoch)`` trains an epoch
        and returns its batch losses, whose mean is the epoch's loss;
        ``output()`` returns the rows its accuracies read (``None``:
        record none). Regression targets (not 1-D) record NaN."""
        if patience is not None and val_mask is None:
            raise ValueError("patience stops on validation accuracy; pass a val_mask")
        classification = np.asarray(labels).ndim == 1
        best_val, stall = -np.inf, 0
        for epoch in range(epochs):
            losses = epoch_losses(epoch)
            result.losses.append(float(sum(losses) / len(losses)))
            if verbose:  # pragma: no cover - logging aid
                print(f"epoch {epoch:4d}  loss {result.losses[-1]:.4f}")
            out = output()
            if out is None:
                continue
            nan = float("nan")
            result.train_accuracies.append(
                accuracy(out, labels, train_mask) if classification else nan)
            if val_mask is not None:
                val_acc = accuracy(out, labels, val_mask) if classification else nan
                result.val_accuracies.append(val_acc)
                if patience is not None and classification:
                    best_val, stall = (val_acc, 0) if val_acc > best_val else (best_val, stall + 1)
                    if stall > patience:
                        break
        self.model.zero_caches()
        return result

    def evaluate(self, a: CSRMatrix, features: np.ndarray, labels: np.ndarray,
                 mask: np.ndarray | None = None) -> float:
        """Full-graph inference-mode accuracy on ``mask``."""
        out = self.model.forward(a, features, training=False)
        return accuracy(out, labels, mask)

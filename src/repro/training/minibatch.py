"""Sampled mini-batch training engine over layered blocks.

The full-batch :class:`~repro.training.trainer.Trainer` holds every
layer's activations for the whole graph — the memory ceiling the paper
concedes to DistDGL. This module lifts it: training runs on
fan-out-limited mini-batches sampled by
:mod:`repro.tensor.sampling_graph`, so the working set per step is
bounded by the fan-out budget instead of the graph.

Two entry points:

* :class:`MinibatchTrainer` — the training loop: per epoch, shuffle the
  target vertices, sample layered blocks per batch, run
  forward/backward through the *unchanged* model layers
  (``AttentionLayer``'s one row sweep per block, ``DagLayer``-derived,
  interpreted or fused — blocks are square CSR matrices, so every
  execution path applies as-is; a block is a cold pattern, and the sweep
  builds neither its transpose nor its row-index vector), step the
  optimiser, and optionally evaluate on the full graph.
* :func:`train_step` — one batch's forward/backward/update over
  already-sampled blocks, for callers that drive their own loop.

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

from repro.models.base import GnnModel, Loss
from repro.obs.tracer import tracer
from repro.tensor.csr import CSRMatrix
from repro.tensor.sampling_graph import Block, sample_blocks
from repro.training.metrics import accuracy
from repro.training.optim import Optimizer
from repro.training.trainer import TrainResult
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import make_rng

__all__ = [
    "MinibatchResult",
    "MinibatchTrainer",
    "train_step",
    "forward_blocks",
    "backward_blocks",
]

# ----------------------------------------------------------------------
# One batch: forward / backward / update over layered blocks
# ----------------------------------------------------------------------
def forward_blocks(
    model: GnnModel,
    blocks: list[Block],
    h0: np.ndarray,
    counter: FlopCounter = null_counter(),
    training: bool = True,
) -> tuple[np.ndarray, list]:
    """Run the model layer-by-layer over its blocks.

    ``h0`` holds the input features of ``blocks[0].src_nodes``. Each
    layer consumes its block's source rows and the slice
    ``z[dst_positions]`` feeds the next layer (destination vertices are
    the next block's sources by the sampling contract). Returns the
    final destination outputs and the per-layer training caches.
    """
    if len(blocks) != model.num_layers:
        raise ValueError(
            f"got {len(blocks)} blocks for {model.num_layers} layers; "
            "sample with one fan-out per layer"
        )
    caches: list = []
    h = h0
    for layer, block in zip(model.layers, blocks):
        if h.shape[0] != block.num_src:
            raise ValueError(
                "feature rows do not match the block's source set"
            )
        h, cache = layer.forward(
            block.matrix, h, counter=counter, training=training
        )
        caches.append(cache)
        h = h[block.dst_positions]
    return h, caches


def backward_blocks(
    model: GnnModel,
    blocks: list[Block],
    caches: list,
    d_out: np.ndarray,
    counter: FlopCounter = null_counter(),
) -> list[dict[str, np.ndarray]]:
    """Error chaining (Eq. 4/6) through the sampled blocks.

    ``d_out`` is the loss gradient over the last block's destination
    rows; each hop scatters its destination gradient into the block's
    source frame (zeros on non-destination rows — those rows produced
    nothing, so nothing flows back through them), masks with
    :math:`\\sigma'` exactly as the full-batch model does, and the
    layer's input-feature gradient is already aligned with the previous
    block's destination rows.
    """
    grads: list = [None] * model.num_layers
    gamma_dst = d_out
    for index in range(model.num_layers - 1, -1, -1):
        layer = model.layers[index]
        block = blocks[index]
        cache = caches[index]
        gamma = np.zeros(
            (block.num_src,) + gamma_dst.shape[1:], dtype=gamma_dst.dtype
        )
        gamma[block.dst_positions] = gamma_dst
        g = gamma * layer.activation.grad(cache.z)
        gamma_dst, layer_grads = layer.backward(cache, g, counter=counter)
        grads[index] = layer_grads
    return grads


def train_step(
    model: GnnModel,
    loss: Loss,
    optimizer: Optimizer,
    blocks: list[Block],
    features: np.ndarray,
    labels: np.ndarray,
    counter: FlopCounter = null_counter(),
) -> float:
    """One sampled training step; returns the batch loss.

    Features and labels are gathered locally (``features`` is the
    *full* feature matrix; only the sampled source rows are touched),
    which mirrors a rank-local feature store.
    """
    with tracer().span(
        "minibatch.train_step", counter=counter,
        batch_size=int(blocks[-1].dst_nodes.shape[0]),
    ):
        h0 = np.ascontiguousarray(features[blocks[0].src_nodes])
        out, caches = forward_blocks(model, blocks, h0, counter=counter)
        y = labels[blocks[-1].dst_nodes]
        value = loss.value(out, y)
        grads = backward_blocks(
            model, blocks, caches, loss.gradient(out, y), counter=counter
        )
        optimizer.step(model, grads)
    return value


# ----------------------------------------------------------------------
# The training loop
# ----------------------------------------------------------------------
@dataclass
class MinibatchResult(TrainResult):
    """Per-epoch history plus the flat per-batch loss trace."""

    batch_losses: list[float] = field(default_factory=list)
    sampled_edges: int = 0


class MinibatchTrainer:
    """Drives sampled mini-batch training of an *unchanged* model.

    Parameters
    ----------
    model, loss, optimizer:
        Exactly the full-batch trainer's ingredients. The loss must be
        unmasked: sampled training selects labelled vertices by
        passing them as ``targets`` instead.
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
        if len(fanouts) != model.num_layers:
            raise ValueError(
                f"{len(fanouts)} fan-outs for a {model.num_layers}-layer "
                "model; need one per layer"
            )
        if any(f is not None and int(f) < 0 for f in fanouts):
            raise ValueError("fan-outs must be >= 0 (or None for all)")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if getattr(loss, "mask", None) is not None:
            raise ValueError(
                "sampled training selects labelled vertices via targets; "
                "use an unmasked loss"
            )
        self.model = model
        self.loss = loss
        self.optimizer = optimizer
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

        ``targets`` may be vertex ids or a boolean mask (defaults to
        every vertex). ``full_eval`` runs a cache-free *full-graph*
        forward after each epoch for train/val accuracy — the standard
        sampled-training protocol (sample to train, full graph to
        evaluate); disable it on graphs beyond the full-batch ceiling.
        """
        targets = _as_target_ids(targets, a.shape[0])
        rng = make_rng(self.seed)
        result = MinibatchResult()
        classification = np.asarray(labels).ndim == 1
        for epoch in range(epochs):
            with tracer().span("minibatch.epoch", counter=counter, epoch=epoch):
                order = rng.permutation(targets) if self.shuffle else targets
                epoch_losses: list[float] = []
                for start in range(0, order.shape[0], self.batch_size):
                    batch = order[start : start + self.batch_size]
                    with tracer().span(
                        "minibatch.sample", vertices=int(batch.shape[0])
                    ):
                        blocks = sample_blocks(a, batch, self.fanouts, rng)
                    value = train_step(
                        self.model, self.loss, self.optimizer, blocks,
                        features, labels, counter=counter,
                    )
                    result.sampled_edges += sum(
                        b.sampled_edges for b in blocks
                    )
                    epoch_losses.append(value)
            result.batch_losses.extend(epoch_losses)
            result.losses.append(
                float(sum(epoch_losses) / max(len(epoch_losses), 1))
            )
            if full_eval and classification:
                out = self.model.forward(a, features, training=False)
                result.train_accuracies.append(
                    accuracy(out, labels, _as_mask(targets, a.shape[0]))
                )
                if val_mask is not None:
                    result.val_accuracies.append(
                        accuracy(out, labels, val_mask)
                    )
            elif full_eval:
                result.train_accuracies.append(float("nan"))
                if val_mask is not None:
                    result.val_accuracies.append(float("nan"))
            if verbose:  # pragma: no cover - logging aid
                print(
                    f"epoch {epoch:4d}  loss {result.losses[-1]:.4f}  "
                    f"batches {len(epoch_losses)}"
                )
        self.model.zero_caches()
        return result

    # ------------------------------------------------------------------
    def evaluate(
        self,
        a: CSRMatrix,
        features: np.ndarray,
        labels: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> float:
        """Full-graph inference-mode accuracy on ``mask``."""
        out = self.model.forward(a, features, training=False)
        return accuracy(out, labels, mask)

    # ------------------------------------------------------------------
    def predict(
        self,
        a: CSRMatrix,
        features: np.ndarray,
        targets: np.ndarray,
        seed: int | None = None,
    ) -> np.ndarray:
        """Sampled inference: one output row per entry of ``targets``,
        in the caller's order (duplicates allowed).

        Uses the trainer's fan-outs; with full fan-outs this equals the
        full-batch forward rows bit-for-bit (the ego-graph serving
        path's building block).
        """
        seeds, inverse = np.unique(
            np.atleast_1d(np.asarray(targets, dtype=np.int64)),
            return_inverse=True,
        )
        rng = make_rng(self.seed if seed is None else seed)
        blocks = sample_blocks(a, seeds, self.fanouts, rng)
        h0 = np.ascontiguousarray(features[blocks[0].src_nodes])
        out, _ = forward_blocks(
            self.model, blocks, h0, training=False
        )
        return out[inverse]


def _as_target_ids(targets, n: int) -> np.ndarray:
    if targets is None:
        return np.arange(n, dtype=np.int64)
    targets = np.asarray(targets)
    if targets.dtype == bool:
        if targets.shape != (n,):
            raise ValueError("boolean target mask must have length n")
        return np.flatnonzero(targets).astype(np.int64)
    return np.unique(targets.astype(np.int64))


def _as_mask(ids: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask

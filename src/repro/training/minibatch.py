"""Sampled mini-batch training engine over layered blocks.

The full-batch :class:`~repro.training.trainer.Trainer` holds every
layer's activations for the whole graph — the memory ceiling the paper
concedes to DistDGL. This module lifts it: training runs on
fan-out-limited mini-batches sampled by
:mod:`repro.tensor.sampling_graph`, so the working set per step is
bounded by the fan-out budget instead of the graph.

Three entry points:

* :class:`MinibatchTrainer` — the serial loop: per epoch, shuffle the
  target vertices, sample layered blocks per batch, run
  forward/backward through the *unchanged* model layers (hand-fused,
  ``DagLayer``-derived, fused-megakernel — blocks are square CSR
  matrices, so every execution path applies as-is), step the
  optimiser, and optionally evaluate on the full graph.
* :func:`train_step` — one batch's forward/backward/update, shared by
  the serial loop and the pipelined trainer rank so both are the same
  arithmetic, statement for statement.
* :func:`minibatch_train_pipelined` — a two-rank sampler/trainer split
  over the process fabric: rank 0 samples batch ``i + 1`` while rank 1
  trains batch ``i``, pushing serialised blocks through
  ``isend``/``irecv`` handles. Block traffic is attributed to the
  ``sample`` phase of :class:`~repro.runtime.stats.CommStats`; the
  overlapped and rendezvous modes send identical bytes under identical
  phases, so ``by_phase`` is bit-identical and only ``wait_s`` moves —
  the same invariant the 1.5D overlap schedules keep.

Bit-identity contract (tested per model in
``tests/test_minibatch.py``): with ``fanout >= max degree`` and one
batch covering every vertex, the sampled loop reproduces the
full-batch trainer's loss curve and final weights *bit-for-bit* —
sampling only reorders nothing, computes nothing differently, and the
compaction map is the identity. The pipelined split reproduces the
serial loop bit-for-bit in turn (same RNG stream on the sampler rank,
same arithmetic on the trainer rank).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models import build_model
from repro.models.base import GnnModel, Loss
from repro.obs.tracer import tracer
from repro.runtime.communicator import Communicator
from repro.runtime.executor import run_spmd
from repro.runtime.stats import RunStats
from repro.tensor.csr import CSRMatrix
from repro.tensor.sampling_graph import Block, sample_blocks
from repro.training.loss import SoftmaxCrossEntropyLoss
from repro.training.metrics import accuracy
from repro.training.optim import SGD, Adam, Optimizer
from repro.training.trainer import TrainResult
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import make_rng

__all__ = [
    "MinibatchResult",
    "MinibatchTrainer",
    "train_step",
    "forward_blocks",
    "backward_blocks",
    "minibatch_train_pipelined",
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
# Serial loop
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
        """Sampled inference: outputs for ``targets`` only.

        Uses the trainer's fan-outs; with full fan-outs this equals the
        full-batch forward rows bit-for-bit (the ego-graph serving
        path's building block).
        """
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        rng = make_rng(self.seed if seed is None else seed)
        blocks = sample_blocks(a, targets, self.fanouts, rng)
        h0 = np.ascontiguousarray(features[blocks[0].src_nodes])
        out, _ = forward_blocks(
            self.model, blocks, h0, training=False
        )
        return out


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


# ----------------------------------------------------------------------
# Pipelined sampler/trainer split
# ----------------------------------------------------------------------
_SAMPLER_RANK = 0
_TRAINER_RANK = 1


def _pipeline_batches(
    spec: dict, n: int
) -> tuple[np.ndarray, int]:
    """Deterministic target set and per-epoch batch count."""
    targets = _as_target_ids(spec.get("targets"), n)
    per_epoch = -(-targets.shape[0] // spec["batch_size"])
    return targets, per_epoch


def _pipeline_program(
    comm: Communicator,
    adj: tuple,
    features: np.ndarray,
    labels: np.ndarray,
    spec: dict,
):
    """SPMD body of the sampler/trainer split (module-level: picklable).

    Rank 0 samples and pushes serialised blocks under the ``sample``
    phase; rank 1 rebuilds them and runs :func:`train_step`. In
    overlapped mode the trainer posts the next batch's ``irecv``
    before computing the current one and the sampler uses ``isend`` —
    message content, order, tags and phases are identical to the
    rendezvous mode, so ``CommStats.by_phase`` matches bit-for-bit.
    """
    indptr, indices, data, n = adj
    a = CSRMatrix(indptr, indices, data, (n, n))
    targets, per_epoch = _pipeline_batches(spec, n)
    epochs = spec["epochs"]
    total = epochs * per_epoch
    overlap = spec["overlap"]
    fanouts = spec["fanouts"]
    batch_size = spec["batch_size"]

    if comm.rank == _SAMPLER_RANK:
        rng = make_rng(spec["seed"])
        comm.stats.set_phase("sample")
        t = tracer()
        handles = []
        i = 0
        for _epoch in range(epochs):
            order = rng.permutation(targets) if spec["shuffle"] else targets
            for start in range(0, order.shape[0], batch_size):
                batch = order[start : start + batch_size]
                with t.span("pipeline.sample", batch=i):
                    blocks = sample_blocks(a, batch, fanouts, rng)
                    payload = [b.to_payload() for b in blocks]
                with t.span("pipeline.send", batch=i):
                    if overlap:
                        handles.append(
                            comm.isend(payload, _TRAINER_RANK, tag=("mb", i))
                        )
                    else:
                        comm.send(payload, _TRAINER_RANK, tag=("mb", i))
                i += 1
        with t.span("pipeline.flush"):
            for handle in handles:
                handle.wait()
        return None

    model = build_model(
        spec["model"], features.shape[1], spec["hidden_dim"],
        spec["out_dim"], num_layers=spec["num_layers"],
        seed=spec["model_seed"], dtype=spec["dtype"],
    )
    loss = SoftmaxCrossEntropyLoss()
    optimizer = _build_optimizer(spec)
    losses: list[float] = []
    comm.stats.set_phase("compute")
    t = tracer()
    pending = None
    if overlap and total:
        pending = comm.irecv(_SAMPLER_RANK, tag=("mb", 0))
    for i in range(total):
        with t.span("pipeline.recv", batch=i):
            if overlap:
                payload = pending.wait()
                if i + 1 < total:
                    # Post the next receive *before* computing this
                    # batch: the transfer of batch i+1 (and the
                    # sampler's work on it) proceeds while train_step
                    # runs.
                    pending = comm.irecv(_SAMPLER_RANK, tag=("mb", i + 1))
            else:
                payload = comm.recv(_SAMPLER_RANK, tag=("mb", i))
        blocks = [Block.from_payload(p) for p in payload]
        losses.append(
            train_step(
                model, loss, optimizer, blocks, features, labels,
                counter=comm.stats.flops,
            )
        )
    model.zero_caches()
    return losses


def _build_optimizer(spec: dict) -> Optimizer:
    kind = spec.get("optimizer", "sgd")
    if kind == "sgd":
        return SGD(lr=spec["lr"])
    if kind == "adam":
        return Adam(lr=spec["lr"])
    raise ValueError(f"unknown optimizer {kind!r}")


def minibatch_train_pipelined(
    model_name: str,
    a: CSRMatrix,
    features: np.ndarray,
    labels: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    fanouts: tuple[int | None, ...],
    num_layers: int = 3,
    batch_size: int = 1024,
    epochs: int = 1,
    lr: float = 0.01,
    optimizer: str = "sgd",
    targets: np.ndarray | None = None,
    shuffle: bool = True,
    seed: int = 0,
    model_seed: int = 0,
    dtype: np.dtype | type = np.float32,
    overlap: bool = True,
    backend: str | None = None,
    timeout: float = 120.0,
) -> tuple[list[float], RunStats]:
    """Two-rank pipelined sampled training; returns (batch losses, stats).

    Rank 0 is the sampler, rank 1 the trainer, overlapped by default
    (the pipeline exists to overlap sampling with compute;
    ``overlap=False`` is the rendezvous parity oracle). The result is
    bit-identical to :class:`MinibatchTrainer` with the same spec —
    the split moves *where* sampling runs, not what it computes.
    """
    if len(tuple(fanouts)) != num_layers:
        raise ValueError("need one fan-out per layer")
    spec = {
        "model": model_name,
        "hidden_dim": int(hidden_dim),
        "out_dim": int(out_dim),
        "num_layers": int(num_layers),
        "fanouts": tuple(fanouts),
        "batch_size": int(batch_size),
        "epochs": int(epochs),
        "lr": float(lr),
        "optimizer": optimizer,
        "targets": None if targets is None else np.asarray(targets),
        "shuffle": bool(shuffle),
        "seed": int(seed),
        "model_seed": int(model_seed),
        "dtype": np.dtype(dtype).type,
        "overlap": bool(overlap),
    }
    adj = (a.indptr, a.indices, a.data, a.shape[0])
    result = run_spmd(
        2, _pipeline_program, timeout=timeout, backend=backend,
        adj=adj, features=np.ascontiguousarray(features),
        labels=np.ascontiguousarray(labels), spec=spec,
    )
    return result.values[_TRAINER_RANK], result.stats

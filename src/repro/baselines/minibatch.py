"""DistDGL-style mini-batch training with neighbour sampling.

The paper's main baseline runs *mini-batch* training: each iteration
samples a batch of target vertices and an L-hop fan-out-limited
neighbourhood, fetches the features of sampled remote vertices, and
trains on the induced block — processing "many orders of magnitude
fewer vertices" than a full batch. This engine reproduces that cost
profile:

* each rank draws ``batch_size / p`` targets from its own 1D partition;
* :func:`~repro.tensor.sampling_graph.sample_blocks` — the sampler
  every batch source shares — draws one message-flow block per layer
  with that layer's fan-out cap, outward from the targets (structure
  lookups are local, as in DistDGL's partitioned graph store with local
  sampling servers); each block holds only the *sampled* edges, one row
  per destination, so its edge count is bounded by the fan-out budget,
  not by graph density;
* features of the first block's sources owned by other ranks are
  fetched (``alltoall``), charging :math:`k` words per remote vertex;
* the one :func:`~repro.training.trainer.train_step` runs forward +
  backward over the blocks and takes the loss on the targets only, as
  DGL does, and weight gradients are allreduce-averaged (data-parallel
  training, as DistDGL does).

Loss/accuracy semantics of sampled training differ from full-batch by
construction (the sampling-induced information loss the paper cites);
the benchmark figures compare *per-iteration runtime*, which is what
this engine reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.distributed.partition import block_range, check_inputs, split_by_owner
from repro.models import build_model
from repro.runtime.communicator import Communicator
from repro.runtime.executor import run_spmd
from repro.runtime.stats import RunStats
from repro.tensor.csr import CSRMatrix
from repro.tensor.sampling_graph import check_fanouts, is_fanout, sample_blocks
from repro.training.loss import SoftmaxCrossEntropyLoss
from repro.training.optim import SGD
from repro.training.trainer import train_step
from repro.util.rng import make_rng

__all__ = ["MiniBatchConfig", "minibatch_train"]

#: Flop-equivalents charged per sampled edge. Neighbour sampling is a
#: CPU-side pointer-chasing + feature-slicing pipeline (DistDGL's
#: sampler and dataloader); measured DGL/DistDGL end-to-end sampling
#: throughputs are on the order of 2e7 edges/s per node, versus ~1e12
#: dense flops/s on the accelerator — i.e. one sampled edge costs as
#: much machine time as ~5e4 dense flops. Without this charge the cost
#: model would credit mini-batch training with GPU-speed sampling,
#: which is not how DistDGL behaves (and not why the paper's full-batch
#: runs win at low density).
SAMPLING_FLOPS_PER_EDGE = 50_000


@dataclass
class MiniBatchConfig:
    """Sampling configuration (defaults follow common DistDGL setups)."""

    batch_size: int = 1024
    fanouts: tuple[int | None, ...] = (10, 10, 10)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not self.fanouts or not all(map(is_fanout, self.fanouts)):
            raise ValueError(f"fanouts must be integers >= 0 (or None for all), "
                             f"got {self.fanouts!r}")


def minibatch_train(
    model_name: str | AttentionSpec,
    a: CSRMatrix,
    features: np.ndarray,
    labels: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    p: int = 4,
    iterations: int = 1,
    lr: float = 0.01,
    config: MiniBatchConfig | None = None,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
    timeout: float = 300.0,
) -> tuple[list[float], RunStats]:
    """Run ``iterations`` mini-batch training steps on ``p`` ranks.

    Returns per-iteration mean losses (across ranks) and the traffic
    statistics. Remote-feature fetch volume is recorded under the
    ``fetch`` phase, gradient synchronisation under ``gradsync``.
    ``model_name`` is a name or spec, as :func:`build_model` takes.
    ``config.fanouts`` needs one fan-out per layer, and malformed inputs,
    model arguments included, are refused before any rank starts.
    """
    config = config or MiniBatchConfig(fanouts=tuple([10] * num_layers))
    check_inputs(a, features, labels, out_dim=out_dim)
    check_fanouts(config.fanouts, num_layers)
    n = features.shape[0]
    h = np.asarray(features, dtype=dtype)
    build = partial(build_model, model_name, features.shape[1], hidden_dim, out_dim,
                    num_layers=num_layers, seed=seed, dtype=dtype)
    # Bad model arguments raise here, before any rank starts.
    build().require_one_hop("the mini-batch engine samples one hop per layer")

    def program(comm: Communicator):
        rng = make_rng(config.seed * 7919 + comm.rank)
        r0, r1 = block_range(n, comm.size, comm.rank)
        local_batch = max(1, config.batch_size // comm.size)
        model = build()
        loss, optimizer = SoftmaxCrossEntropyLoss(), SGD(lr)

        def average(grad: np.ndarray) -> np.ndarray:
            # Data-parallel: each rank's loss is its own block's mean.
            comm.stats.set_phase("gradsync")
            return comm.allreduce(grad) / comm.size

        losses = []
        for _it in range(iterations):
            comm.stats.set_phase("sample")
            targets = rng.integers(r0, r1, local_batch, dtype=np.int64)
            blocks = sample_blocks(a, targets, config.fanouts, rng)
            sampled_edges = sum(block.sampled_edges for block in blocks)
            comm.stats.flops.add(SAMPLING_FLOPS_PER_EDGE * sampled_edges, "sampling")

            comm.stats.set_phase("fetch")
            # Fetch features of the first layer's sources from their owners.
            requests = split_by_owner(blocks[0].src_nodes, n, comm.size)
            requests[comm.rank] = requests[comm.rank][:0]
            incoming = comm.alltoall(requests)
            comm.alltoall([np.ascontiguousarray(features[req]) for req in incoming])
            # (The returned arrays model the wire transfer; feature
            # values themselves are globally addressable in-process, and
            # train_step gathers the block's rows.)
            comm.stats.set_phase("compute")
            value = train_step(model, loss, optimizer, blocks, h, labels,
                               comm.stats.flops, sync=average)
            losses.append(float(comm.allreduce(np.array(value))) / comm.size)
        return losses

    result = run_spmd(p, program, timeout=timeout)
    return result.values[0], result.stats

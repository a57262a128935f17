"""Distributed full-batch *local-formulation* engine (the DistDGL model).

This is the communication pattern the paper's theory (Section 7) and
the Fig.-7 verification experiments attribute to the local view:

* **1D vertex partition** — rank ``r`` owns a contiguous block of
  vertices, their feature rows, and their adjacency rows.
* **Halo exchange per layer** — aggregating a vertex needs the feature
  vectors of *all* its neighbours, so each rank fetches every distinct
  remote neighbour's current features each layer. Per-rank volume is
  :math:`\\Theta(k \\cdot \\#\\text{remote neighbours})`, which is
  :math:`\\Omega(nkd/p)` in the worst case and
  :math:`O(n^2 k q / p)` on Erdős–Rényi graphs — precisely the bounds
  the global formulation beats when :math:`d \\in \\omega(\\sqrt{p})`.
* **Backward reverse halo** — gradients destined for remote features
  travel back to their owners; weight gradients are allreduced.

The engine decides where data lives; the layer decides what is
computed. Every rank builds the same ``build_model`` stack (parameters
replicated by seed) and is a batch source for the one
:func:`~repro.training.trainer.train_step`: every layer's hop is one
*own+halo block* — the owned adjacency rows over the local id space
``[own; halo]``, the owned vertices its destinations (the
:class:`repro.tensor.sampling_graph.Block` layout, so each layer reads
both edge endpoints from ``[H_own; H_halo]`` and computes the owned rows
only) — and :func:`halo_exchange` / :func:`halo_reverse` are its
exchange pair.
Mathematics are therefore the single-node model's (the equivalence
tests assert it); only the distribution differs — which is exactly the
comparison the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.distributed.partition import block_range, check_inputs, split_by_owner
from repro.models import build_model
from repro.models.base import Hop, forward_blocks
from repro.runtime.communicator import Communicator
from repro.runtime.executor import run_spmd
from repro.runtime.stats import RunStats
from repro.tensor.csr import CSRMatrix
from repro.training.loss import PartitionedLoss, cross_entropy_terms
from repro.training.optim import SGD
from repro.training.trainer import train_step

__all__ = ["dist_local_inference", "dist_local_train", "LocalPartition"]


@dataclass
class LocalPartition:
    """One rank's static partition state (built once at setup).

    Attributes
    ----------
    r0, r1:
        Owned vertex range.
    block:
        The ``(n_own, n_own + n_halo)`` CSR of the owned adjacency rows,
        columns remapped to the owned-plus-halo local id space.
    halo_ids:
        Global ids of remote neighbours, sorted; local id of
        ``halo_ids[t]`` is ``n_own + t``.
    send_lists:
        ``send_lists[s]`` = *local* indices (within the owned block) of
        the vertices rank ``s`` needs from us each layer.
    recv_counts:
        Number of halo vertices we receive from each rank, in rank
        order (halo_ids is grouped by owner because it is sorted).
    """

    r0: int
    r1: int
    block: CSRMatrix
    halo_ids: np.ndarray
    send_lists: list[np.ndarray]
    recv_counts: np.ndarray

    @property
    def n_own(self) -> int:
        return self.r1 - self.r0


def build_partition(
    comm: Communicator, a: CSRMatrix, n: int
) -> LocalPartition:
    """Slice the adjacency and negotiate the (static) halo plan.

    The index negotiation is one alltoall of integer id lists; it is
    charged to the ``setup`` phase so benchmarks can separate it from
    the per-epoch traffic (DistDGL likewise partitions offline).
    """
    comm.stats.set_phase("setup")
    p = comm.size
    r0, r1 = block_range(n, p, comm.rank)
    rows = a.extract_block(r0, r1, 0, n)

    owned = (rows.indices >= r0) & (rows.indices < r1)
    halo_ids = np.unique(rows.indices[~owned])
    # Remap columns: owned -> [0, n_own); halo -> n_own + rank in halo_ids.
    remapped = np.empty(rows.nnz, dtype=np.int64)
    remapped[owned] = rows.indices[owned] - r0
    remapped[~owned] = (r1 - r0) + np.searchsorted(
        halo_ids, rows.indices[~owned]
    )
    block = CSRMatrix(rows.indptr, remapped, rows.data, (r1 - r0, (r1 - r0) + halo_ids.shape[0]))

    # Group halo ids by owner; negotiate send lists.
    requests = split_by_owner(halo_ids, n, p)
    recv_counts = np.array([len(wanted) for wanted in requests], dtype=np.int64)
    incoming = comm.alltoall(requests)
    send_lists = [np.asarray(req, dtype=np.int64) - r0 for req in incoming]
    comm.stats.set_phase("default")
    return LocalPartition(
        r0=r0, r1=r1, block=block, halo_ids=halo_ids,
        send_lists=send_lists, recv_counts=recv_counts,
    )


def halo_exchange(
    comm: Communicator, part: LocalPartition, h_own: np.ndarray
) -> np.ndarray:
    """Fetch remote neighbour features: the local view's per-layer cost.

    Returns the extended feature table ``[H_own; H_halo]`` in local-id
    order. Per-rank send volume is ``k * sum_s |send_lists[s]|`` words.
    """
    payloads = [
        np.ascontiguousarray(h_own[idx]) for idx in part.send_lists
    ]
    return np.concatenate([h_own, *comm.alltoall(payloads)], axis=0)


def halo_reverse(
    comm: Communicator, part: LocalPartition, grad_ext: np.ndarray
) -> np.ndarray:
    """Return gradients of remote features to their owners and fold in.

    The adjoint of :func:`halo_exchange`: the halo slice of
    ``grad_ext`` is split by owner, alltoall'ed back, and accumulated
    into the owned slice at the indices each rank had requested.
    """
    n_own = part.n_own
    grad_own = grad_ext[:n_own].copy()
    halo_grad = grad_ext[n_own:]
    splits = np.cumsum(part.recv_counts)[:-1]
    payloads = [np.ascontiguousarray(c) for c in np.split(halo_grad, splits)]
    received = comm.alltoall(payloads)
    for idx, grad in zip(part.send_lists, received):
        if idx.size:
            np.add.at(grad_own, idx, grad)
    return grad_own


def _rank_setup(model_name, a, features, hidden_dim, out_dim, num_layers, seed, dtype):
    """What each rank calls first: its partition, ``build_model``
    replica (parameters replicated by seed), owned input rows, the
    own+halo block as every layer's hop and the halo exchange pair
    (traffic labelled ``"halo"``, the rest ``"compute"``). Bad model
    arguments raise here, before any rank starts."""
    build = partial(build_model, model_name, features.shape[1], hidden_dim, out_dim,
                    num_layers=num_layers, seed=seed, dtype=dtype)
    build()

    def setup(comm: Communicator):
        part = build_partition(comm, a, features.shape[0])

        def halo(move):
            def run(rows: np.ndarray) -> np.ndarray:
                comm.stats.set_phase("halo")
                rows = move(comm, part, rows)
                comm.stats.set_phase("compute")
                return rows
            return run

        hops = [Hop(part.block, np.arange(part.n_own))] * num_layers
        h_own = np.ascontiguousarray(features[part.r0 : part.r1]).astype(dtype)
        return part, build(), hops, (halo(halo_exchange), halo(halo_reverse)), h_own

    return setup


def dist_local_inference(
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
):
    """Full inference under the local formulation on ``p`` ranks.

    Returns ``(output, RunStats)``; the output rows are gathered at
    rank 0 in vertex order.
    """
    check_inputs(a, features)
    setup = _rank_setup(model_name, a, features, hidden_dim, out_dim, num_layers, seed, dtype)

    def program(comm: Communicator):
        _, model, hops, exchange, h_own = setup(comm)
        out, _ = forward_blocks(model, hops, h_own, comm.stats.flops,
                                training=False, exchange=exchange)
        gathered = comm.gather(out, root=0)
        return np.concatenate(gathered, axis=0) if comm.rank == 0 else None

    result = run_spmd(p, program, timeout=timeout)
    return result.values[0], result.stats


def dist_local_train(
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
) -> tuple[list[float], RunStats]:
    """Full-batch training under the local formulation.

    Cross-entropy on (masked) vertices; per-epoch losses returned with
    the traffic statistics. Numerics match the single-node trainer (the
    equivalence tests assert it), so runtime/volume differences against
    :func:`repro.distributed.api.distributed_train` isolate the
    formulation, exactly as in the paper's comparison.
    """
    check_inputs(a, features, labels, mask, out_dim)
    setup = _rank_setup(model_name, a, features, hidden_dim, out_dim, num_layers, seed, dtype)
    count = len(features) if mask is None else int(mask.sum())

    def program(comm: Communicator):
        part, model, hops, exchange, h_own = setup(comm)
        own = slice(part.r0, part.r1)
        # A rank's loss is its owned rows' share of the global mean, so
        # the weight gradients sum over the ranks.
        loss = PartitionedLoss(cross_entropy_terms, None if mask is None else mask[own],
                               count, comm.allreduce)
        optimizer = SGD(lr)
        return [train_step(model, loss, optimizer, hops, h_own, labels[own], comm.stats.flops,
                           exchange, sync=comm.allreduce) for _ in range(epochs)]

    result = run_spmd(p, program, timeout=timeout)
    return result.values[0], result.stats

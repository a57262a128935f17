"""Named SPMD rank programs the test modules hand to ``run_spmd``."""

from __future__ import annotations

import numpy as np


def collective_roundtrip(comm, n: int = 50_000):
    """Exercise allreduce + allgather + barrier; returns a checksum."""
    x = np.full(n, float(comm.rank + 1))
    total = comm.allreduce(x)
    blocks = comm.allgather(np.array([comm.rank * 10.0]))
    comm.barrier()
    return float(total[0]) + sum(float(b[0]) for b in blocks)


def crash_on_rank_one(comm):
    """Rank 1 raises; everyone else blocks until the abort unblocks them."""
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.recv(1, tag="never-sent")


def deadlock_rank_zero(comm):
    """Rank 0 waits for a message nobody sends (with a decoy pending)."""
    if comm.rank == 0:
        comm.recv(1, tag="missing")
    else:
        comm.send(np.ones(4), 0, tag="decoy")
        comm.recv(0, tag="reply-never-sent")


def self_deadlock(comm):
    """Deterministic single-rank deadlock: a decoy self-send is pending
    while the rank waits on a tag nobody uses."""
    comm.send(np.ones(4), comm.rank, tag="decoy")
    comm.recv(comm.rank, tag="missing")


def traced_sends(comm):
    """A few phase-labelled sends for trace plumbing tests."""
    comm.stats.set_phase("alpha")
    comm.bcast(np.zeros(64, dtype=np.float32), root=0)
    comm.stats.set_phase("beta")
    comm.allreduce(np.ones(8))
    return comm.stats.messages_sent


def ring_collectives(comm, stray_rank: int | None = None):
    """Ring collectives (every rank sends the same sequence) under two
    phases; ``stray_rank`` labels its second phase differently — same
    traffic, another code path."""
    comm.stats.set_phase("setup")
    comm.allgather(np.full(2, float(comm.rank)))
    comm.stats.set_phase("stray" if comm.rank == stray_rank else "work")
    for _ in range(3):
        comm.alltoall([np.full(2, float(d)) for d in range(comm.size)])
    return True


def isend_then_deadlock(comm):
    """Rank 1's pending *isend* must appear in rank 0's deadlock report."""
    if comm.rank == 0:
        comm.recv(1, tag="missing")
    else:
        comm.isend(np.ones(4), 0, tag="decoy")
        comm.recv(0, tag="reply-never-sent")


def waity_pingpong(comm, sleep_s: float = 0.15):
    """Rank 0 blocks on a receive rank 1 delays — creates real wait_s."""
    import time as _time

    comm.stats.set_phase("stall")
    if comm.rank == 0:
        payload = comm.recv(1, tag="late")
        return float(payload.sum())
    _time.sleep(sleep_s)
    comm.send(np.ones(8), 0, tag="late")
    return 0.0


def traced_span_work(comm):
    """Open spans rank-side so tracing plumbing can be asserted."""
    from repro.obs.tracer import tracer

    with tracer().span("child.step", rank=comm.rank):
        comm.stats.set_phase("work")
        comm.allreduce(np.ones(8))
    return len(tracer().spans)


def dist_model_adam_train(comm, a, features, labels, state, epochs: int = 3):
    """Checkpoint-load a distributed GAT and train it with Adam.

    ``build_dist_model`` returns the one ``GnnModel``, so the shared
    serialiser, loss terms and any optimiser drive it inside a rank
    program. Returns ``(losses, state_dict)`` from every rank.
    """
    from repro.distributed.model import build_dist_model
    from repro.distributed.partition import (
        block_range,
        distribute_adjacency,
        distribute_features,
    )
    from repro.models import load_state_dict, state_dict
    from repro.runtime import square_grid
    from repro.training import Adam
    from repro.training.loss import block_loss_terms, cross_entropy_terms

    n = features.shape[0]
    grid = square_grid(comm)
    a_block = distribute_adjacency(a, grid)
    h_block = distribute_features(features, grid)
    c0, c1 = block_range(n, grid.py, grid.col)
    model = build_dist_model(
        grid, "gat", features.shape[1], 8, 3, num_layers=2, seed=0,
        dtype=np.float64, heads=2,
    )
    load_state_dict(model, state)
    optimizer = Adam(0.01)
    losses = []
    for _ in range(epochs):
        out = model.forward(a_block, h_block)
        local, grad = block_loss_terms(
            cross_entropy_terms, out, labels[c0:c1], None, n
        )
        total = comm.allreduce(np.array(local if grid.row == 0 else 0.0))
        losses.append(float(total) / n)
        optimizer.step(model, model.backward(grad))
    return losses, state_dict(model)

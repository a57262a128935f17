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

The per-edge compute reuses the DGL-flavoured primitives of
:mod:`repro.baselines.message_passing`; mathematics are identical to
the global formulation (the equivalence tests assert it), only the
distribution differs — which is exactly the comparison the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.activations import (
    get_activation,
    leaky_relu,
    leaky_relu_grad,
)
from repro.distributed.partition import block_range
from repro.models.attention import draw_parameters, gat_spec
from repro.runtime.communicator import Communicator
from repro.runtime.executor import run_spmd
from repro.runtime.stats import RunStats
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import sddmm_dot, spmm
from repro.tensor.segment import (
    bincount_sum,
    expand_segments,
    segment_softmax,
    segment_sum,
)
from repro.training.loss import block_loss_terms, cross_entropy_terms
from repro.util.rng import make_rng

__all__ = ["dist_local_inference", "dist_local_train", "LocalPartition"]


@dataclass
class LocalPartition:
    """One rank's static partition state (built once at setup).

    Attributes
    ----------
    r0, r1:
        Owned vertex range.
    pattern:
        Owned adjacency rows with columns remapped into the
        owned-plus-halo local id space ``[0, n_own + n_halo)``.
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
    pattern: CSRMatrix
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
    pattern = CSRMatrix(
        rows.indptr, remapped, rows.data,
        (r1 - r0, (r1 - r0) + halo_ids.shape[0]),
    )

    # Group halo ids by owner; negotiate send lists.
    boundaries = [block_range(n, p, s) for s in range(p)]
    requests = []
    recv_counts = np.zeros(p, dtype=np.int64)
    for s in range(p):
        s0, s1 = boundaries[s]
        wanted = halo_ids[(halo_ids >= s0) & (halo_ids < s1)]
        recv_counts[s] = wanted.shape[0]
        requests.append(wanted)
    incoming = comm.alltoall(requests)
    send_lists = [np.asarray(req, dtype=np.int64) - r0 for req in incoming]
    comm.stats.set_phase("default")
    return LocalPartition(
        r0=r0, r1=r1, pattern=pattern, halo_ids=halo_ids,
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
    received = comm.alltoall(payloads)
    halo = (
        np.concatenate(received, axis=0)
        if part.halo_ids.size
        else np.empty((0, h_own.shape[1]), dtype=h_own.dtype)
    )
    return np.concatenate([h_own, halo], axis=0)


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


# ----------------------------------------------------------------------
# Per-model layer math on the (own-rows x extended-cols) pattern
# ----------------------------------------------------------------------
def _forward_layer(
    model: str,
    part: LocalPartition,
    h_own: np.ndarray,
    h_ext: np.ndarray,
    params: dict[str, np.ndarray],
    counter,
) -> tuple[np.ndarray, dict]:
    """One local-formulation layer forward; returns (Z_own, cache)."""
    pattern = part.pattern
    weight = params["weight"]
    rows = pattern.expand_rows()
    cols = pattern.indices
    cache: dict = {"h_own": h_own, "h_ext": h_ext}
    if model == "gcn":
        hp = h_ext @ weight
        z = spmm(pattern, hp, counter=counter)
        cache.update(hp=hp)
        return z, cache
    if model == "va":
        scores = pattern.data * sddmm_dot(pattern, h_own, h_ext, counter=counter)
    elif model == "agnn":
        norms_own = np.sqrt(np.einsum("ij,ij->i", h_own, h_own))
        norms_ext = np.sqrt(np.einsum("ij,ij->i", h_ext, h_ext))
        dots = sddmm_dot(pattern, h_own, h_ext, counter=counter)
        cos = dots / np.maximum(norms_own[rows] * norms_ext[cols], 1e-12)
        scores = segment_softmax(cos, pattern.indptr)
        cache.update(cos=cos, norms_own=norms_own, norms_ext=norms_ext)
    elif model == "gat":
        hp_own = h_own @ weight
        hp_ext = h_ext @ weight
        u = hp_own @ params["a_src"]
        v = hp_ext @ params["a_dst"]
        raw = u[rows] + v[cols]
        scores = segment_softmax(leaky_relu(raw, 0.2), pattern.indptr)
        cache.update(hp_own=hp_own, hp_ext=hp_ext, raw=raw)
    else:
        raise ValueError(f"unknown model {model!r}")
    counter.add(7 * pattern.nnz, "local_scores")
    s = pattern.with_data(scores)
    cache.update(s=s)
    if model == "gat":
        z = spmm(s, cache["hp_ext"], counter=counter)
    else:
        hp = h_ext @ weight
        z = spmm(s, hp, counter=counter)
        cache.update(hp=hp)
    return z, cache


def _backward_layer(
    model: str,
    part: LocalPartition,
    cache: dict,
    g: np.ndarray,
    params: dict[str, np.ndarray],
    counter,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """One layer backward.

    Returns ``(d_own, d_ext, param_grads_local)``: the gradient w.r.t.
    this rank's owned input rows (aggregator role), the gradient w.r.t.
    the extended feature table (neighbour role — its halo slice travels
    back via :func:`halo_reverse`), and this rank's *local contribution*
    to the parameter gradients (caller allreduces).
    """
    pattern = part.pattern
    weight = params["weight"]
    h_own, h_ext = cache["h_own"], cache["h_ext"]
    rows = pattern.expand_rows()
    cols = pattern.indices
    if model == "gcn":
        stg = spmm(pattern.transpose(), g, counter=counter)
        d_weight = h_ext.T @ stg
        d_ext = stg @ weight.T
        d_own = np.zeros_like(h_own)
        return d_own, d_ext, {"weight": d_weight}

    s = cache["s"]
    if model == "gat":
        hp_ext = cache["hp_ext"]
        ds = sddmm_dot(pattern, g, hp_ext, counter=counter)
        inner = segment_sum(s.data * ds, pattern.indptr)
        dlog = s.data * (ds - expand_segments(inner, pattern.indptr))
        draw = dlog * leaky_relu_grad(cache["raw"], 0.2)
        du = segment_sum(draw, pattern.indptr)
        dv = bincount_sum(cols, draw, pattern.shape[1])
        dhp_own = np.outer(du, params["a_src"])
        dhp_ext = spmm(s.transpose(), g, counter=counter) + np.outer(
            dv, params["a_dst"]
        )
        d_weight = h_own.T @ dhp_own + h_ext.T @ dhp_ext
        da_src = cache["hp_own"].T @ du
        da_dst = hp_ext.T @ dv
        return (
            dhp_own @ weight.T,
            dhp_ext @ weight.T,
            {"weight": d_weight, "a_src": da_src, "a_dst": da_dst},
        )

    hp = cache["hp"]
    stg = spmm(s.transpose(), g, counter=counter)
    d_weight = h_ext.T @ stg
    d_ext = stg @ weight.T
    ds = sddmm_dot(pattern, g, hp, counter=counter)
    if model == "va":
        de = ds * pattern.data
        n_mat = pattern.with_data(de)
        d_own = spmm(n_mat, h_ext, counter=counter)
        d_ext = d_ext + spmm(n_mat.transpose(), h_own, counter=counter)
        return d_own, d_ext, {"weight": d_weight}
    if model == "agnn":
        inner = segment_sum(s.data * ds, pattern.indptr)
        dc = s.data * (ds - expand_segments(inner, pattern.indptr))
        norms_own = np.maximum(cache["norms_own"], 1e-12)
        norms_ext = np.maximum(cache["norms_ext"], 1e-12)
        d_mat = pattern.with_data(dc / (norms_own[rows] * norms_ext[cols]))
        d_own = spmm(d_mat, h_ext, counter=counter)
        d_ext = d_ext + spmm(d_mat.transpose(), h_own, counter=counter)
        dcc = dc * cache["cos"]
        rc = segment_sum(dcc, pattern.indptr)
        cc = bincount_sum(cols, dcc, pattern.shape[1])
        d_own -= (rc / norms_own**2)[:, None] * h_own
        d_ext -= (cc / norms_ext**2)[:, None] * h_ext
        return d_own, d_ext, {"weight": d_weight}
    raise ValueError(f"unknown model {model!r}")


def _build_params(
    model: str, dims: list[int], seed: int, dtype
) -> list[dict[str, np.ndarray]]:
    """Replicated parameters, drawn exactly as the global models' are."""
    rng = make_rng(seed)
    psi_init = gat_spec().init if model == "gat" else None
    params = []
    for i in range(len(dims) - 1):
        weight, psi = draw_parameters(
            rng, dims[i], dims[i + 1], 1, dtype, psi_init
        )
        params.append({"weight": weight, **psi})
    return params


def _activations(model: str, num_layers: int, activation: str | None):
    if activation is None:
        activation = "elu" if model == "gat" else "relu"
    return [
        get_activation(activation if i + 1 < num_layers else "identity")
        for i in range(num_layers)
    ]


def dist_local_inference(
    model_name: str,
    a: CSRMatrix,
    features: np.ndarray,
    hidden_dim: int,
    out_dim: int,
    num_layers: int = 3,
    p: int = 4,
    seed: int = 0,
    activation: str | None = None,
    dtype: np.dtype | type = np.float32,
    timeout: float = 120.0,
):
    """Full inference under the local formulation on ``p`` ranks.

    Returns ``(output, RunStats)``; the output rows are gathered at
    rank 0 in vertex order.
    """
    model = model_name.lower()
    n = features.shape[0]
    dims = [features.shape[1]] + [hidden_dim] * (num_layers - 1) + [out_dim]
    acts = _activations(model, num_layers, activation)

    def program(comm: Communicator):
        part = build_partition(comm, a, n)
        params = _build_params(model, dims, seed, dtype)
        h_own = np.ascontiguousarray(features[part.r0 : part.r1]).astype(dtype)
        for layer_index in range(num_layers):
            comm.stats.set_phase("halo")
            h_ext = halo_exchange(comm, part, h_own)
            comm.stats.set_phase("compute")
            z, _ = _forward_layer(
                model, part, h_own, h_ext, params[layer_index],
                comm.stats.flops,
            )
            h_own = acts[layer_index].fn(z)
        gathered = comm.gather(h_own, root=0)
        return np.concatenate(gathered, axis=0) if comm.rank == 0 else None

    result = run_spmd(p, program, timeout=timeout)
    return result.values[0], result.stats


def dist_local_train(
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
    mask: np.ndarray | None = None,
    seed: int = 0,
    activation: str | None = None,
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
    model = model_name.lower()
    n = features.shape[0]
    dims = [features.shape[1]] + [hidden_dim] * (num_layers - 1) + [out_dim]
    acts = _activations(model, num_layers, activation)
    global_count = int(mask.sum()) if mask is not None else n

    def program(comm: Communicator):
        part = build_partition(comm, a, n)
        params = _build_params(model, dims, seed, dtype)
        h_in = np.ascontiguousarray(features[part.r0 : part.r1]).astype(dtype)
        labels_own = labels[part.r0 : part.r1]
        mask_own = None if mask is None else mask[part.r0 : part.r1]
        losses = []
        for _epoch in range(epochs):
            # Forward, caching per layer.
            h_own = h_in
            caches = []
            for li in range(num_layers):
                comm.stats.set_phase("halo")
                h_ext = halo_exchange(comm, part, h_own)
                comm.stats.set_phase("compute")
                z, cache = _forward_layer(
                    model, part, h_own, h_ext, params[li], comm.stats.flops
                )
                cache["z"] = z
                caches.append(cache)
                h_own = acts[li].fn(z)
            # Loss + gradient on owned rows.
            local_sum, gamma = block_loss_terms(
                cross_entropy_terms, h_own, labels_own, mask_own, global_count
            )
            losses.append(
                float(comm.allreduce(np.array(local_sum))) / max(global_count, 1)
            )
            # Backward with reverse halo exchanges.
            for li in range(num_layers - 1, -1, -1):
                comm.stats.set_phase("compute")
                g = gamma * acts[li].grad(caches[li]["z"])
                d_own, d_ext, local_grads = _backward_layer(
                    model, part, caches[li], g, params[li], comm.stats.flops
                )
                grads = {
                    name: comm.allreduce(value)
                    for name, value in local_grads.items()
                }
                for name, value in grads.items():
                    params[li][name] -= lr * value.astype(dtype)
                if li > 0:
                    comm.stats.set_phase("halo")
                    gamma = d_own + halo_reverse(comm, part, d_ext)
        return losses

    result = run_spmd(p, program, timeout=timeout)
    return result.values[0], result.stats

"""Distributed GNN layers on the 1.5D A-stationary schedule.

Each layer is the SPMD twin of its single-node counterpart in
``repro.models`` under the same :class:`~repro.models.base.GnnLayer`
contract (a stack of them is a plain ``GnnModel``): identical
mathematics, with the Table-2 kernels applied to local blocks and the
four communication patterns of :mod:`repro.distributed.ops` carrying the
cross-rank data flow. The communication structure per layer (square
``P x P`` grid, block size ``b = n / P``):

========================  =======================================
operation                 per-rank volume (words)
========================  =======================================
diagonal row broadcast    ``O(b k)`` (VA/AGNN/GAT forward+backward)
softmax row reductions    ``O(b log p)``   (feature-free)
reduce + redistribute     ``2 b k``
transpose exchange        ``b k``          (backward only)
weight-gradient reduce    ``O(k^2 log p)``
========================  =======================================

summing to the paper's :math:`O(nk/\\sqrt{p} + k^2)` per layer.

Rather than interleaving communicator calls and math by hand, each
layer *declares* its forward and backward passes as a
:class:`~repro.distributed.schedule.CommSchedule` — an ordered list of
:class:`~repro.distributed.schedule.Compute` kernels and labelled
:class:`~repro.distributed.schedule.Transfer` patterns. The base class
drives the shared scheduler, which runs the transfers overlapped with
the local kernels scheduled between a transfer and its first consumer
by default; ``overlap=False`` waits on every transfer at once and is the
parity oracle. Transfer initiation order is identical in both modes, so
traffic counters and tag streams never diverge.

What every model shares is declared once in the base: the replicated
parameters (drawn and named exactly as the single-node
:class:`~repro.models.attention.AttentionLayer` does), the forward
epilogue :math:`\\Psi H'` → reduce+redistribute, and the backward
prologue (row broadcast of ``G``, :math:`\\Psi^T G`,
:math:`H^T \\cdot`, weight-gradient allreduce). A model contributes
the steps of its Ψ.

Replication invariant: input feature blocks, weights, and every
backward output are identical across the ranks of a grid column; all
code paths preserve this bit-for-bit (NumPy kernels are deterministic),
which the distributed-equivalence tests assert.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.core.activations import leaky_relu, leaky_relu_grad
from repro.core.formulation import PsiInitFn
from repro.distributed.ops import (
    OpSequencer,
    distributed_row_softmax,
    distributed_row_softmax_backward,
)
from repro.distributed.schedule import (
    CommSchedule,
    Compute,
    Transfer,
)
from repro.models.attention import (
    agnn_spec,
    draw_parameters,
    gat_spec,
    head_major,
    named_parameters,
    projection,
    split_heads,
)
from repro.models.base import GnnLayer
from repro.runtime.grid import ProcessGrid
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import mm, sddmm_add, sddmm_dot, spmm
from repro.tensor.segment import bincount_sum, segment_sum
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import make_rng

__all__ = [
    "DistGnnLayer",
    "DistVALayer",
    "DistAGNNLayer",
    "DistGATLayer",
    "DistGCNLayer",
]

Step = Compute | Transfer


def _masked(c: dict[str, Any], values: np.ndarray) -> np.ndarray:
    """:math:`\\mathcal{A} \\odot` on the local block's ``(nnz,)`` / ``(nnz, heads)``
    values: the score before the softmax, and again in its VJP."""
    data = c["a_block"].data
    return values * data.reshape((-1,) + (1,) * (values.ndim - 1))


@dataclass
class _DistLayerCache:
    """Training cache of one distributed layer.

    ``z`` is the pre-activation block the model chains errors through;
    ``ctx`` holds the forward context entries the backward schedule
    reads and seeds its context.
    """

    z: np.ndarray
    ctx: dict[str, Any]


class DistGnnLayer(GnnLayer):
    """Base class: replicated parameters + schedule-driven SPMD passes.

    Parameters are initialised from an explicit ``seed`` so that every
    rank constructs bit-identical replicas — the distributed equivalent
    of the paper's "weight matrices W and vectors a are replicated
    across all processes". They are drawn, stored and named exactly as
    :class:`~repro.models.attention.AttentionLayer` does it (``weight``
    plus Ψ's own from ``psi_init``; ``head{i}.*`` views of head-major
    stacks for several heads), which is what makes the two comparable
    parameter for parameter.

    Subclasses declare their data flow via :meth:`_forward_steps` /
    :meth:`_backward_steps`, built around the shared
    :meth:`_forward_epilogue` and :meth:`_backward_prologue`; the
    concrete :meth:`forward` and :meth:`backward` drivers here execute
    those schedules, apply the activation, and assemble the
    cache/gradients. Where and how a layer runs is bound once, by
    :meth:`bind`, not passed per call; an unbound layer holds
    parameters only.
    """

    #: Schedule label (``"<name>.forward"`` / ``"<name>.backward"``).
    name: ClassVar[str]
    #: ctx keys (beyond ``a_block``/``h_block``/``s_block``) the
    #: backward schedule reads; recorded into the training cache.
    forward_cache_keys: ClassVar[tuple[str, ...]] = ()

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        seed: int | np.random.Generator | None = 0,
        dtype: np.dtype | type = np.float32,
        psi_init: PsiInitFn | None = None,
        heads: int = 1,
    ) -> None:
        super().__init__(activation)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.heads = heads
        self.weight, self.psi_params = draw_parameters(
            make_rng(seed), in_dim, out_dim, heads, dtype, psi_init
        )

    def bind(
        self,
        grid: ProcessGrid,
        sequencer: OpSequencer,
        overlap: bool = True,
        input_grad: bool = True,
    ) -> None:
        """Attach this rank's grid and the model's one ``sequencer``.

        ``overlap=False`` is the synchronous parity oracle;
        ``input_grad=False`` (a model's first layer) skips the
        input-feature gradient and its transfers in :meth:`backward`.
        """
        self.grid = grid
        self.sequencer = sequencer
        self.overlap = overlap
        self.input_grad = input_grad

    # ------------------------------------------------------------------
    def forward(
        self,
        a_block: CSRMatrix,
        h_block: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
    ) -> tuple[np.ndarray, _DistLayerCache | None]:
        """Compute the next column-replicated feature block.

        ``h_block`` is this rank's input block :math:`H_j`; the return
        value is :math:`H^{l+1}_j` (post-activation, already reduced
        and redistributed) plus a training cache exposing ``z``.
        """
        ctx: dict[str, Any] = {
            "grid": self.grid, "a_block": a_block,
            "h_block": h_block, "counter": counter,
        }
        CommSchedule(self._forward_steps(), name=f"{self.name}.forward").run(
            self.grid, self.sequencer, ctx, overlap=self.overlap
        )
        h_next = self.activation.fn(ctx["z_block"])
        if not training:
            return h_next, None
        keys = ("a_block", "h_block", "s_block") + self.forward_cache_keys
        return h_next, _DistLayerCache(
            ctx["z_block"], {key: ctx[key] for key in keys}
        )

    # ------------------------------------------------------------------
    def backward(
        self,
        cache: _DistLayerCache,
        g_block: np.ndarray,
        counter: FlopCounter = null_counter(),
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        """SPMD backward: ``g_block`` is :math:`dL/dZ` restricted to
        block ``j`` (column-replicated). Returns the input-feature
        gradient block (or ``None`` when bound with
        ``input_grad=False``) and replicated parameter gradients.
        """
        ctx = {
            **cache.ctx, "grid": self.grid, "counter": counter,
            "g_block": g_block,
        }
        CommSchedule(
            self._backward_steps(self.input_grad),
            name=f"{self.name}.backward",
        ).run(self.grid, self.sequencer, ctx, overlap=self.overlap)
        psi_grads = {
            name: ctx[f"d_{name}"].astype(param.dtype, copy=False)
            for name, param in self.psi_params.items()
        }
        return ctx["gamma"] if self.input_grad else None, named_parameters(
            head_major(ctx["d_weight"], self.heads), psi_grads, self.heads
        )

    # ------------------------------------------------------------------
    @abstractmethod
    def _forward_steps(self) -> list[Step]:
        """Declare the forward pass; must produce ``s_block`` and
        ``z_block``."""

    @abstractmethod
    def _backward_steps(self, need_input_grad: bool) -> list[Step]:
        """Declare the backward pass; must produce ``d_weight``, a
        ``d_<name>`` per Ψ parameter, and ``gamma`` when
        ``need_input_grad``."""

    # -- the steps every model shares ----------------------------------
    def _project(self) -> Compute:
        """:math:`H' = H W` on the local block. It reads nothing remote,
        so it runs while an earlier broadcast is in flight."""
        return Compute("hp", lambda c: mm(
            c["h_block"], projection(self.weight), counter=c["counter"]))

    def _forward_epilogue(self, out: str = "z_block") -> list[Step]:
        """:math:`\\Psi H'` partial sums, reduced and redistributed into
        the next layer's input distribution."""
        return [
            Compute("partial", lambda c: spmm(
                c["s_block"], c["hp"], counter=c["counter"])),
            Transfer(out, "redistribute", "partial", phase="redistribute"),
        ]

    def _backward_prologue(self) -> list[Step]:
        """Eq. 13 for a Ψ that does not depend on ``W``: broadcast the
        output gradient along the grid row, then
        :math:`dW = H^T (\\Psi^T G)` summed over the grid."""
        return [
            Transfer("g_row", "row_bcast", "g_block", phase="backward"),
            Compute("stg_partial", lambda c: spmm(
                c["s_block"].transpose(), c["g_row"], counter=c["counter"]
            ), needs=("g_row",)),
            Compute("dw_local", lambda c: mm(
                c["h_block"].T, c["stg_partial"], counter=c["counter"])),
            Transfer("d_weight", "allreduce", "dw_local", phase="backward"),
        ]

    # ------------------------------------------------------------------
    def parameters(self) -> dict[str, np.ndarray]:
        """Replicated parameters by name."""
        return named_parameters(self.weight, self.psi_params, self.heads)


# ----------------------------------------------------------------------
# Vanilla attention
# ----------------------------------------------------------------------
class DistVALayer(DistGnnLayer):
    """Distributed VA layer: one fused SDDMM + one SpMM + redistribution."""

    name = "va"
    forward_cache_keys = ("h_row", "hp")

    def _forward_steps(self) -> list[Step]:
        return [
            Transfer("h_row", "row_bcast", "h_block", phase="psi"),
            self._project(),
            Compute("dots", lambda c: sddmm_dot(
                c["a_block"], c["h_row"], c["h_block"], counter=c["counter"]
            ), needs=("h_row",)),
            Compute("s_block", lambda c: c["a_block"].with_data(
                _masked(c, c["dots"]))),
            *self._forward_epilogue(),
        ]

    def _backward_steps(self, need_input_grad: bool) -> list[Step]:
        steps = self._backward_prologue()
        if need_input_grad:
            steps += [
                # The Eq.-14 score gradient and its two feature terms
                # run under the weight-gradient allreduce.
                Compute("ds", lambda c: sddmm_dot(
                    c["a_block"], c["g_row"], c["hp"], counter=c["counter"])),
                Compute("n_block", lambda c: c["a_block"].with_data(
                    _masked(c, c["ds"]))),
                Compute("row_partial", lambda c: spmm(
                    c["n_block"], c["h_block"], counter=c["counter"])),
                Transfer("row_term", "row_allreduce", "row_partial",
                         phase="backward"),
                Compute("col_partial", lambda c: spmm(
                    c["n_block"].transpose(), c["h_row"],
                    counter=c["counter"],
                ) + mm(c["stg_partial"], self.weight.T,
                       counter=c["counter"])),
                Transfer("col_term", "col_allreduce", "col_partial",
                         phase="backward"),
                Transfer("row_t", "transpose", "row_term", phase="backward"),
                Compute("gamma", lambda c: c["col_term"] + c["row_t"],
                        needs=("col_term", "row_t")),
            ]
        return steps


# ----------------------------------------------------------------------
# AGNN
# ----------------------------------------------------------------------
class DistAGNNLayer(DistGnnLayer):
    """Distributed AGNN layer (cosine attention + distributed softmax)."""

    name = "agnn"
    forward_cache_keys = (
        "h_row", "hp", "cos_values", "norms_row", "norms_col", "denom",
    )

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        beta: float = 1.0,
        learnable_beta: bool = False,
        eps: float = 1e-12,
        seed: int | np.random.Generator | None = 0,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__(
            in_dim, out_dim, activation, seed, dtype,
            psi_init=agnn_spec(beta, learnable_beta).init,
        )
        self.beta = beta
        self.eps = eps

    def _beta(self) -> float:
        """The propagation temperature: trained, or the fixed one."""
        return float(self.psi_params.get("beta", self.beta))

    def _forward_steps(self) -> list[Step]:
        def norms_row(c):
            norms = np.sqrt(np.einsum("ij,ij->i", c["h_row"], c["h_row"]))
            c["counter"].add(4 * c["h_block"].size, "norms")
            return norms

        def soft(c):
            values = distributed_row_softmax(
                c["grid"], c["a_block"],
                _masked(c, self._beta() * c["cos_values"]),
            )
            c["counter"].add(7 * c["a_block"].nnz, "softmax")
            return values

        return [
            Transfer("h_row", "row_bcast", "h_block", phase="psi"),
            # Column norms and the projection only read local blocks —
            # both overlap the broadcast.
            Compute("norms_col", lambda c: np.sqrt(
                np.einsum("ij,ij->i", c["h_block"], c["h_block"]))),
            self._project(),
            Compute("norms_row", norms_row, needs=("h_row",)),
            Compute("dots", lambda c: sddmm_dot(
                c["a_block"], c["h_row"], c["h_block"], counter=c["counter"])),
            Compute("denom", lambda c: np.maximum(
                c["norms_row"][c["a_block"].expand_rows()]
                * c["norms_col"][c["a_block"].indices],
                self.eps,
            )),
            Compute("cos_values", lambda c: c["dots"] / c["denom"]),
            Compute("soft", soft, phase="softmax"),
            Compute("s_block", lambda c: c["a_block"].with_data(c["soft"])),
            *self._forward_epilogue(),
        ]

    def _backward_steps(self, need_input_grad: bool) -> list[Step]:
        steps = self._backward_prologue() + [
            Compute("ds", lambda c: sddmm_dot(
                c["a_block"], c["g_row"], c["hp"], counter=c["counter"])),
            Compute("dt", lambda c: _masked(
                c, distributed_row_softmax_backward(
                    c["grid"], c["a_block"], c["s_block"].data, c["ds"]
                )), phase="backward"),
        ]
        if "beta" in self.psi_params:
            steps += [
                Compute("d_beta_local", lambda c: np.array(
                    np.dot(c["dt"], c["cos_values"]))),
                Transfer("d_beta", "allreduce", "d_beta_local",
                         phase="backward"),
            ]
        if need_input_grad:
            def corrections(c):
                # Diagonal corrections of the cosine Jacobian.
                norms_row = np.maximum(c["norms_row"], self.eps)
                norms_col = np.maximum(c["norms_col"], self.eps)
                c["row_term"] = (
                    c["row_sum"]
                    - (c["rc"] / (norms_row**2))[:, None] * c["h_row"]
                )
                c["col_term"] = (
                    c["col_sum"]
                    - (c["cc"] / (norms_col**2))[:, None] * c["h_block"]
                )
                c["counter"].add(8 * c["a_block"].nnz, "agnn_vjp")

            steps += [
                Compute("dc", lambda c: self._beta() * c["dt"]),
                # Forward already gathered/clipped the per-edge norm
                # products (``denom``).
                Compute("d_mat", lambda c: c["a_block"].with_data(
                    c["dc"] / c["denom"])),
                Compute("row_partial", lambda c: spmm(
                    c["d_mat"], c["h_block"], counter=c["counter"])),
                Transfer("row_sum", "row_allreduce", "row_partial",
                         phase="backward"),
                Compute("col_partial", lambda c: spmm(
                    c["d_mat"].transpose(), c["h_row"], counter=c["counter"]
                ) + mm(c["stg_partial"], self.weight.T,
                       counter=c["counter"])),
                Transfer("col_sum", "col_allreduce", "col_partial",
                         phase="backward"),
                Compute("dcc", lambda c: c["dc"] * c["cos_values"]),
                Compute("rc_local", lambda c: segment_sum(
                    c["dcc"], c["a_block"].indptr)),
                Transfer("rc", "row_allreduce", "rc_local",
                         phase="backward"),
                Compute("cc_local", lambda c: bincount_sum(
                    c["a_block"].indices, c["dcc"], c["a_block"].shape[1])),
                Transfer("cc", "col_allreduce", "cc_local",
                         phase="backward"),
                Compute(None, corrections,
                        needs=("row_sum", "col_sum", "rc", "cc")),
                Transfer("row_t", "transpose", "row_term", phase="backward"),
                Compute("gamma", lambda c: c["col_term"] + c["row_t"],
                        needs=("row_t",)),
            ]
        return steps


# ----------------------------------------------------------------------
# GAT, any head count
# ----------------------------------------------------------------------
class DistGATLayer(DistGnnLayer):
    """Distributed GAT layer with ``heads`` attention heads.

    The projected features :math:`H' = H W` are computed locally
    (``W`` is replicated); the row-side block :math:`H'_i` is what gets
    broadcast along the grid row — one broadcast covers both the
    additive SDDMM (:math:`u_i + v_j`) and the backward pass.

    Several heads travel together: every communication step carries
    the flat ``(b, heads*d)`` stack of all heads — a single row
    broadcast, one distributed softmax over stacked ``(nnz, heads)``
    logits, one reduce+redistribute and one transpose exchange per
    layer step — so a layer sends the same number of messages whatever
    its head count, which :class:`~repro.runtime.stats.CommStats` makes
    observable. One head hands the kernels plain 2-D operands. Because
    Ψ depends on ``W``, the weight gradient folds in Ψ's rank-1 terms
    and the shared backward prologue does not apply.
    """

    name = "gat"
    forward_cache_keys = ("hp", "hp_row", "raw_values")

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        heads: int = 1,
        combine: str = "concat",
        activation: str = "elu",
        slope: float = 0.2,
        seed: int | np.random.Generator | None = 0,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        if combine not in ("concat", "mean"):
            raise ValueError("combine must be 'concat' or 'mean'")
        super().__init__(
            in_dim, out_dim, activation, seed, dtype,
            psi_init=gat_spec(slope).init, heads=heads,
        )
        self.slope = slope
        self.combine = combine
        self.head_dim = out_dim
        self.out_dim = out_dim * heads if combine == "concat" else out_dim

    # -- head layout: flat (b, heads*d) on the wire, split for kernels.
    # One head takes the BLAS matrix-vector products; the stacked forms
    # are their per-head einsum equivalents.
    def _split(self, x: np.ndarray) -> np.ndarray:
        return split_heads(x, self.heads)

    def _logit_term(self, hp: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Per-head :math:`H' a`: ``(b,)``, or ``(b, heads)`` stacked."""
        if self.heads == 1:
            return hp @ a
        return np.einsum("nhd,hd->nh", self._split(hp), a)

    def _vector_grad(self, hp: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Per-head :math:`H'^T d` — the adjoint of :meth:`_logit_term`."""
        if self.heads == 1:
            return hp.T @ d
        return np.einsum("nhd,nh->hd", self._split(hp), d)

    def _averaged(self) -> bool:
        """Heads are averaged, so Z and dL/dZ are one head wide."""
        return self.heads > 1 and self.combine == "mean"

    @staticmethod
    def _rank1(d: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Per-head ``outer(d_h, a_h)``, flat ``(b, heads*d)``."""
        return (d[..., None] * a).reshape(d.shape[0], -1)

    # ------------------------------------------------------------------
    def _forward_steps(self) -> list[Step]:
        a_src, a_dst = self.psi_params["a_src"], self.psi_params["a_dst"]

        def u(c):
            result = self._logit_term(c["hp_row"], a_src)
            c["counter"].add(4 * c["hp"].size, "gat_uv")
            return result

        def soft(c):
            # Stacked (nnz, heads) logits: one distributed softmax (two
            # feature-free allreduces) normalises all heads.
            values = distributed_row_softmax(
                c["grid"], c["a_block"], c["logits"]
            )
            c["counter"].add(6 * c["raw_values"].size, "softmax")
            return values

        steps = [
            self._project(),
            # ONE row broadcast carries every head's projected block.
            Transfer("hp_row", "row_bcast", "hp", phase="psi"),
            # The destination scores only need the local block — they
            # overlap the broadcast of the source-side block.
            Compute("v", lambda c: self._logit_term(c["hp"], a_dst)),
            Compute("u", u, needs=("hp_row",)),
            Compute("raw_values", lambda c: sddmm_add(
                c["a_block"], c["u"], c["v"], counter=c["counter"])),
            Compute("logits", lambda c: _masked(c, leaky_relu(
                c["raw_values"], self.slope))),
            Compute("soft", soft, phase="softmax"),
            Compute("s_block", lambda c: c["a_block"].with_data(c["soft"])),
            # ONE reduce+redistribute of the flat (b, heads*d) partials.
            *self._forward_epilogue(
                "z_heads" if self._averaged() else "z_block"
            ),
        ]
        if self._averaged():
            steps.append(Compute("z_block", lambda c: self._split(
                c["z_heads"]).mean(axis=1)))
        return steps

    def _backward_steps(self, need_input_grad: bool) -> list[Step]:
        a_src, a_dst = self.psi_params["a_src"], self.psi_params["a_dst"]

        def g_heads(c):
            # Mean combine: each head sees dL/dZ_h = g / heads.
            g = c["g_block"] / self.heads
            return np.ascontiguousarray(np.broadcast_to(
                g[:, None, :], (g.shape[0], self.heads, self.head_dim)
            )).reshape(g.shape[0], -1)

        def draw(c):
            result = _masked(c, c["dlogits"]) * leaky_relu_grad(
                c["raw_values"], self.slope
            )
            c["counter"].add(4 * result.size, "gat_vjp")
            return result

        # Attention-vector gradients: contribute each complete block
        # exactly once (grid column 0 / grid row 0 / diagonal), then
        # sum — one allreduce carries all heads' gradients.
        def d_a_src_local(c):
            if c["grid"].col == 0:
                return self._vector_grad(c["hp_row"], c["du"])
            return np.zeros_like(a_src, dtype=c["du"].dtype)

        def d_a_dst_local(c):
            if c["grid"].row == 0:
                return self._vector_grad(c["hp"], c["dv"])
            return np.zeros_like(a_dst, dtype=c["dv"].dtype)

        def col_partial(c):
            return c["stg_partial"] + (
                c["dst_rank1"] if c["grid"].row == 0
                else np.zeros_like(c["stg_partial"])
            )

        # Weight gradient dW = H^T dH' from single-count parts; one
        # (in, heads*d) allreduce serves every head.
        def dw_local(c):
            grid = c["grid"]
            dw = mm(c["h_block"].T, c["stg_partial"], counter=c["counter"])
            if grid.row == 0:
                dw = dw + c["h_block"].T @ c["dst_rank1"]
            if grid.row == grid.col:
                dw = dw + c["h_block"].T @ c["src_rank1"]
            return dw

        steps: list[Step] = []
        g_src = "g_block"
        if self._averaged():
            steps.append(Compute("g_heads", g_heads))
            g_src = "g_heads"
        steps += [
            # ONE row broadcast of the stacked output gradient.
            Transfer("g_row", "row_bcast", g_src, phase="backward"),
            Compute("ds", lambda c: sddmm_dot(
                c["a_block"], self._split(c["g_row"]), self._split(c["hp"]),
                counter=c["counter"],
            ), needs=("g_row",)),
            Compute("dlogits", lambda c: distributed_row_softmax_backward(
                c["grid"], c["a_block"], c["s_block"].data, c["ds"]
            ), phase="backward"),
            Compute("draw", draw),
            Compute("du_local", lambda c: segment_sum(
                c["draw"], c["a_block"].indptr)),
            Transfer("du", "row_allreduce", "du_local", phase="backward"),
            Compute("dv_local", lambda c: bincount_sum(
                c["a_block"].indices, c["draw"], c["a_block"].shape[1])),
            Transfer("dv", "col_allreduce", "dv_local", phase="backward"),
            # S^T G reads neither du nor dv — it runs under both
            # score-gradient allreduces.
            Compute("stg_partial", lambda c: spmm(
                c["s_block"].transpose(), c["g_row"], counter=c["counter"])),
            Compute("d_a_src_local", d_a_src_local, needs=("du",)),
            Transfer("d_a_src", "allreduce", "d_a_src_local",
                     phase="backward"),
            Compute("d_a_dst_local", d_a_dst_local, needs=("dv",)),
            Transfer("d_a_dst", "allreduce", "d_a_dst_local",
                     phase="backward"),
            Compute("dst_rank1", lambda c: self._rank1(c["dv"], a_dst)),
            Compute("src_rank1", lambda c: self._rank1(c["du"], a_src)),
            Compute("col_partial", col_partial),
            # ONE allreduce of the stacked column terms (dH' via cols).
            Transfer("col_term", "col_allreduce", "col_partial",
                     phase="backward"),
            Compute("dw_local", dw_local),
            Transfer("d_weight", "allreduce", "dw_local", phase="backward"),
        ]
        if need_input_grad:
            steps += [
                # ONE transpose exchange of the stacked row terms
                # (src_rank1 is complete locally).
                Transfer("row_t", "transpose", "src_rank1",
                         phase="backward"),
                Compute("dhp", lambda c: c["col_term"] + c["row_t"],
                        needs=("col_term", "row_t")),
                Compute("gamma", lambda c: mm(
                    c["dhp"], projection(self.weight).T,
                    counter=c["counter"])),
            ]
        return steps


# ----------------------------------------------------------------------
# GCN (C-GNN special case)
# ----------------------------------------------------------------------
class DistGCNLayer(DistGnnLayer):
    """Distributed GCN layer: pure SpMM + MM, no attention traffic.

    ``a_block`` must be the block of the pre-normalised adjacency — it
    *is* Ψ. One inference layer costs exactly one broadcast-free SpMM
    plus the reduce+redistribute — the minimal-communication case of
    Section 8.4.
    """

    name = "gcn"

    def _forward_steps(self) -> list[Step]:
        return [
            self._project(),
            Compute("s_block", lambda c: c["a_block"]),
            *self._forward_epilogue(),
        ]

    def _backward_steps(self, need_input_grad: bool) -> list[Step]:
        steps = self._backward_prologue()
        if need_input_grad:
            steps += [
                Compute("gamma_local", lambda c: mm(
                    c["stg_partial"], self.weight.T, counter=c["counter"])),
                Transfer("gamma", "col_allreduce", "gamma_local",
                         phase="backward"),
            ]
        return steps

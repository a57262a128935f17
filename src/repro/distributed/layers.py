"""Distributed GNN layers on the 1.5D A-stationary schedule (Section 6.3).

A distributed layer *is* an :class:`~repro.models.attention.AttentionLayer`
bound to a rank's grid — the same code draws, stores and names its
parameters, and a stack of them is a plain ``GnnModel``. Its passes are
:class:`~repro.distributed.schedule.CommSchedule` s of local ``Compute``
kernels and labelled ``Transfer`` patterns, overlapped by default;
``overlap=False`` is the parity oracle, with the same traffic.
:class:`DistAttentionLayer` runs any spec that declares a score ``kind`` —
VA, AGNN, GAT with any head count, a user's — as one fused sweep
(``megakernel.attention_forward`` / ``attention_backward``) per block and
pass, with no distributed code per model; :class:`DistGCNLayer` is the
general route's one case, :math:`\\Psi = A`. Per-rank words per layer
(square ``P x P`` grid, block size ``b = n / P``, ``h`` heads, width ``k``):

=============================  ==========================================
diagonal row broadcast         ``O(b k)``; backward ``+ 2 b h`` row terms
softmax row-max allreduce      ``O(b h log p)``   (feature-free)
reduce + redistribute          ``2 b (k + h)``
row, column allreduce          ``O(b k log p)`` each   (backward)
transpose exchange             ``b k``   (backward)
parameter-gradient allreduce   ``O(k^2 log p)``, one
=============================  ==========================================

summing to the paper's :math:`O(nk/\\sqrt{p} + k^2)`.

*Forward: a split softmax.* Each block's sweep normalises a row by its own
``(shift, denom)``; the blocks merge as FlashAttention merges tiles. One
``max`` allreduce along the grid row gives the row's shift ``m`` (a block
holding none of the row, which the sweep reports as ``(0, 1)``, is masked
out); each block rescales ``z · denom`` and ``denom`` by ``exp(shift - m)``;
the denominators ride the reduce-scatter as ``h`` extra columns and divide
each reduced chunk before the redistribute. *Backward.* Given the merged
``(m, denom)``, each block's sweep recomputes the global Ψ. The one
cross-block quantity, the row inner :math:`\\sum_e \\psi_e d\\psi_e = dz \\cdot
z`, is appended with ``denom`` to the row broadcast of ``G`` by the diagonal
rank, which holds row block ``i`` complete. *The spec, per side.*
Row-endpoint operands (``x_src``, ``u``, ``norms``) are ``spec.operands`` of
the broadcast row block, column-endpoint ones (``x_dst``, ``v``,
``norms_dst``) of the local block. ``spec.operands_vjp`` is linear in the
sweep's exits, so it runs once per side with the other side zeroed: the row
side's input gradient sums along the grid row, the column side's along the
column, every parameter-gradient partial in one allreduce. Nothing
edge-sized is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.distributed.ops import OpSequencer
from repro.distributed.schedule import CommSchedule, Compute, Transfer
from repro.models.attention import (
    EXITS, GCN, AttentionLayer, block_operands, head_major, named_parameters, projection,
    split_heads)
from repro.runtime.grid import ProcessGrid
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import mm, spmm
from repro.tensor.megakernel import SweepStats, attention_backward, attention_forward
from repro.util.counters import FlopCounter, null_counter

__all__ = ["DistGnnLayer", "DistAttentionLayer", "DistGCNLayer"]

Step = Compute | Transfer

def _side_exits(exits: dict[str, np.ndarray], side: int) -> dict[str, np.ndarray]:
    """The exits of one endpoint side (0 row, 1 column), the other side's
    read-only zeros; ``dCoef`` rides with the row side."""
    out = {}
    for pair in EXITS:
        if pair[side] in exits:
            kept = out[pair[side]] = exits[pair[side]]
            out[pair[1 - side]] = np.broadcast_to(np.zeros((), kept.dtype), kept.shape)
    if "dCoef" in exits:
        out["dCoef"] = exits["dCoef"] * (side == 0)
    return out


@dataclass
class _DistLayerCache:
    """``z``, the pre-activation block the model chains errors through,
    and the forward context entries the backward schedule reads."""

    z: np.ndarray
    ctx: dict[str, Any]


class DistGnnLayer(AttentionLayer):
    """An attention layer whose passes run on a rank's blocks.

    Every rank draws bit-identical parameter replicas from the same
    ``seed``. Subclasses declare ``_forward_steps`` (leaving ``z_block``)
    and ``_backward_steps(input_grad)`` (leaving ``d_weight``, ``psi_grads``
    when Psi has parameters and, with ``input_grad``, ``gamma``). Where and
    how a layer runs is bound once, by :meth:`bind`.
    """

    #: Context entries the backward schedule reads, kept by the forward.
    cached: tuple[str, ...] = ("a_block", "h_block")

    def bind(self, grid: ProcessGrid, sequencer: OpSequencer, overlap: bool = True) -> None:
        """Attach this rank's grid and the model's one ``sequencer``.
        ``overlap=False`` is the synchronous parity oracle."""
        self.grid, self.sequencer, self.overlap = grid, sequencer, overlap

    def forward(
        self, a_block: CSRMatrix, h_block: np.ndarray,
        counter: FlopCounter = null_counter(), training: bool = True,
        rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, _DistLayerCache | None]:
        """:math:`H^{l+1}_j` (post-activation, redistributed) from this
        rank's input block :math:`H_j`, and a training cache. The rank's
        adjacency block is its whole hop: there are no ``rows``."""
        if rows is not None:
            raise ValueError("a 1.5D layer's hop is its adjacency block; it takes no rows")
        ctx = {"grid": self.grid, "a_block": a_block, "h_block": h_block, "counter": counter}
        self._run(self._forward_steps(), ctx, "forward")
        h_next = self.activation.fn(ctx["z_block"])
        if not training:
            return h_next, None
        return h_next, _DistLayerCache(
            ctx["z_block"], {key: ctx[key] for key in self.cached if key in ctx})

    def backward(
        self, cache: _DistLayerCache, g_block: np.ndarray, counter: FlopCounter = null_counter(),
        input_grad: bool = True,
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        """The input-gradient block (``None`` without ``input_grad``) and the
        replicated parameter gradients from :math:`dL/dZ` on block ``j``."""
        ctx = {**cache.ctx, "grid": self.grid, "counter": counter, "g_block": g_block}
        self._run(self._backward_steps(input_grad), ctx, "backward")
        return ctx["gamma"] if input_grad else None, named_parameters(
            head_major(ctx["d_weight"], self.heads), ctx.get("psi_grads", {}), self.heads)

    def _run(self, steps: list[Step], ctx: dict[str, Any], direction: str) -> None:
        CommSchedule(steps, name=f"{self.spec.name}.{direction}").run(
            self.grid, self.sequencer, ctx, overlap=self.overlap)

    def _project(self) -> Compute:
        """:math:`H' = H W` on the local block, which reads nothing remote."""
        return Compute("hp", lambda c: mm(
            c["h_block"], projection(self.weight), counter=c["counter"]))


class DistAttentionLayer(DistGnnLayer):
    """A spec that declares a score ``kind``, one sweep per block and pass
    (module docstring). ``spec``, ``heads`` and ``combine`` are
    :class:`~repro.models.attention.AttentionLayer`'s, at its default
    ``order`` and semiring. Every transfer carries the flat ``(b, heads *
    d)`` stack of all heads, so a layer sends as many messages whatever its
    head count."""

    cached = DistGnnLayer.cached + (
        "hp", "x_row", "ops_row", "ops_col", "shift", "z_heads", "denom")

    def __init__(
        self, in_dim: int, out_dim: int, spec: AttentionSpec, activation: str = "relu",
        heads: int = 1, combine: str = "concat",
        seed: int | np.random.Generator | None = 0, dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__(in_dim, out_dim, spec, activation, heads=heads, combine=combine,
                         seed=seed, dtype=dtype)
        if spec.kind is None:
            raise ValueError(f"{spec.name}: the distributed sweep needs a spec with a kind")
        self.softmax = spec.kind != "dot" if spec.softmax is None else bool(spec.softmax)
        #: The context entry Psi reads on the local block.
        self.x = "hp" if spec.on_projected else "h_block"

    def _forward_steps(self) -> list[Step]:
        spec, heads = self.spec, self.heads

        def operands(key):
            return lambda c: spec.operands(
                split_heads(c[key], heads), self.psi_params, c["counter"])

        def sweep(c):
            z, c["stats"] = attention_forward(
                c["a_block"], spec.kind, split_heads(c["hp"], heads), softmax=spec.softmax,
                counter=c["counter"], **block_operands(c["ops_row"], c["ops_col"]))
            return z.reshape(len(z), -1)

        # Psi on H W broadcasts H'_i; on H, H_i goes out under the projection.
        bcast = Transfer("x_row", "row_bcast", self.x, phase="psi")
        steps = [self._project(), bcast] if spec.on_projected else [bcast, self._project()]
        steps += [
            Compute("ops_col", operands(self.x)),
            Compute("ops_row", operands("x_row"), needs=("x_row",)),
            Compute("z_local", sweep),
        ]
        if self.softmax:
            steps += [
                Compute("local_max", lambda c: np.where(
                    self._present(c), c["stats"].shift, -np.inf)),
                Transfer("row_max", "row_allreduce", "local_max", phase="softmax", op="max"),
                Compute("partial", self._rescaled, needs=("row_max",)),
                Transfer("merged", "redistribute", "partial", phase="redistribute",
                         denominators=heads),
                # Copies, so the cache keeps neither view's base alive.
                Compute("z_heads", lambda c: np.ascontiguousarray(c["merged"][:, :-heads])),
                Compute("denom", lambda c: np.ascontiguousarray(c["merged"][:, -heads:])),
            ]
        else:
            steps.append(Transfer("z_heads", "redistribute", "z_local", phase="redistribute"))
        steps.append(Compute("z_block", lambda c: self._combine(split_heads(c["z_heads"], heads))))
        return steps

    @staticmethod
    def _present(c) -> np.ndarray:
        """``(b, 1)``: the block's rows that store an entry (the sweep
        reports ``(0, 1)`` statistics for the others)."""
        return c["a_block"].row_lengths()[:, None] > 0

    def _rescaled(self, c) -> np.ndarray:
        """This block's share of the merge, ``z · denom`` and ``denom`` at the
        grid row's max, as one ``(b, heads * d + heads)`` partial."""
        # A row empty on the whole grid row keeps the sweep's shift, 0.
        c["shift"] = np.where(c["row_max"] == -np.inf, 0, c["row_max"])
        local, z = c["stats"], c["z_local"]
        weight = local.denom * np.exp(
            np.where(self._present(c), local.shift - c["shift"], -np.inf))
        num = z.reshape(len(z), self.heads, -1) * weight[:, :, None]
        return np.concatenate([num.reshape(len(z), -1), weight], axis=1)

    def _backward_steps(self, input_grad: bool) -> list[Step]:
        spec, heads, width, projected = self.spec, self.heads, self.out_dim, self.spec.on_projected
        # The sweep's score half feeds the operand VJP, for an input gradient,
        # Psi's parameters or (Psi on H W) the weight; else dY is all it needs.
        vjp = spec.operands_vjp is not None and (
            input_grad or projected or bool(self.psi_params))
        rows = vjp and (input_grad or projected)  # the row side's dX is used
        names = tuple(self.psi_params) if vjp else ()

        def w_t(c, x):
            return mm(x, projection(self.weight).T, counter=c["counter"])

        def payload(c):
            # G_i is complete on the diagonal rank, whose copy is sent; under
            # a softmax with the row inner dz . z per head and denom.
            if c["grid"].row != c["grid"].col:
                return None
            if not self.softmax:
                return c["g_block"]
            z = split_heads(c["z_heads"], heads)
            inner = np.einsum("...k,...k->...", self._uncombine(c["g_block"]), z)
            c["counter"].add(2 * z.size, "softmax_bwd")
            return np.concatenate([c["g_block"], inner.reshape(len(z), heads), c["denom"]], axis=1)

        def sweep(c):
            g, stats, inner = c["g_row"], None, None
            if self.softmax:
                stats = SweepStats(c["shift"], g[:, width + heads:])
                g, inner = g[:, :width], g[:, width:width + heads]
            return attention_backward(
                c["a_block"], spec.kind, split_heads(c["hp"], heads), self._uncombine(g),
                stats=stats, row_inner=inner, score_grad=vjp, softmax=spec.softmax,
                counter=c["counter"], **block_operands(c["ops_row"], c["ops_col"]))

        def operand_grads(c):
            # The spec's VJP once per side; returns the row side's dX.
            (dx_row, grads_row), (dx_col, grads_col) = (
                spec.operands_vjp(_side_exits(c["exits"], side), split_heads(c[x], heads),
                                  self.psi_params, c[ops], c["counter"])
                for side, x, ops in ((0, "x_row", "ops_row"), (1, self.x, "ops_col")))
            c["dx_col"] = dx_col.reshape(len(dx_col), -1)
            c["dpsi"] = {name: grads_row[name] + grads_col[name] for name in names}
            return dx_row.reshape(len(dx_row), -1)

        def dhp(c):
            # This rank's share of dL/dH'_j, which dW sums over the grid.
            dy = c["exits"]["dY"].reshape(len(c["exits"]["dY"]), -1)
            return dy + c["dx_col"] if vjp and projected else dy

        def col_partial(c):
            if projected:
                return c["dhp"]
            return w_t(c, c["dhp"]) + c["dx_col"] if vjp else w_t(c, c["dhp"])

        def param_partial(c):
            dw = mm(c["h_block"].T, c["dhp"], counter=c["counter"])
            if rows and projected and c["grid"].row == c["grid"].col:
                # Row block j's dH' part is complete here, once per grid column.
                dw += mm(c["h_block"].T, c["row_sum"], counter=c["counter"])
            return np.concatenate([dw.ravel(), *(c["dpsi"][n].ravel() for n in names)])

        def gamma(c):
            g = c["col_sum"] + c["row_t"] if vjp else c["col_sum"]
            return w_t(c, g) if projected else g

        def unpack(c):
            flat, at = c["param_sum"], self.weight.size
            c["d_weight"], c["psi_grads"] = flat[:at].reshape(self.in_dim, -1), {}
            for name in names:
                param = self.psi_params[name]
                c["psi_grads"][name] = flat[at:at + param.size].reshape(param.shape).astype(
                    param.dtype, copy=False)
                at += param.size

        steps: list[Step] = [
            Compute("g_payload", payload),
            Transfer("g_row", "row_bcast", "g_payload", phase="backward"),
            Compute("exits", sweep, needs=("g_row",)),
        ]
        if vjp:
            steps.append(Compute("dx_row", operand_grads))
        if rows:
            steps.append(Transfer("row_sum", "row_allreduce", "dx_row", phase="backward"))
        steps.append(Compute("dhp", dhp))
        if input_grad:
            steps += [Compute("col_partial", col_partial),
                      Transfer("col_sum", "col_allreduce", "col_partial", phase="backward")]
        steps += [
            Compute("param_partial", param_partial,
                    needs=("row_sum",) if rows and projected else ()),
            Transfer("param_sum", "allreduce", "param_partial", phase="backward"),
        ]
        if input_grad:
            if vjp:
                steps.append(Transfer("row_t", "transpose", "row_sum", phase="backward"))
            steps.append(Compute("gamma", gamma, needs=("col_sum",) + ("row_t",) * vjp))
        steps.append(Compute(None, unpack, needs=("param_sum",)))
        return steps


class DistGCNLayer(DistGnnLayer):
    """GCN: Ψ *is* the block of the pre-normalised adjacency, so a layer is
    one SpMM + MM and no attention traffic — inference is the
    broadcast-free minimal-communication case of Section 8.4."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "relu",
                 seed: int | np.random.Generator | None = 0,
                 dtype: np.dtype | type = np.float32) -> None:
        super().__init__(in_dim, out_dim, GCN, activation, seed=seed, dtype=dtype)

    def _forward_steps(self) -> list[Step]:
        return [
            self._project(),
            Compute("partial", lambda c: spmm(c["a_block"], c["hp"], counter=c["counter"])),
            Transfer("z_block", "redistribute", "partial", phase="redistribute"),
        ]

    def _backward_steps(self, input_grad: bool) -> list[Step]:
        # Eq. 13: G broadcast along the grid row, dW = H^T (Psi^T G) summed.
        steps = [
            Transfer("g_row", "row_bcast", "g_block", phase="backward"),
            Compute("stg", lambda c: spmm(
                c["a_block"].transpose(), c["g_row"], counter=c["counter"]), needs=("g_row",)),
            Compute("dw_local", lambda c: mm(c["h_block"].T, c["stg"], counter=c["counter"])),
            Transfer("d_weight", "allreduce", "dw_local", phase="backward"),
        ]
        if input_grad:
            steps += [
                Compute("gamma_local", lambda c: mm(c["stg"], self.weight.T, counter=c["counter"])),
                Transfer("gamma", "col_allreduce", "gamma_local", phase="backward"),
            ]
        return steps

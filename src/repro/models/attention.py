"""The one attention layer: Eq. (1) written once, Ψ plugged in.

.. math:: Z = (\\Phi \\circ \\oplus)\\left(\\Psi(\\mathcal{A}, H), H\\right),
          \\qquad H' = \\sigma(Z)

:class:`AttentionLayer` owns everything of Eq. (1) that does not depend
on the model: the weight(s) of the linear update :math:`\\Phi`, the
:math:`\\Phi \\circ \\oplus` composition order (Section 4.4), the
aggregation semiring, the heads, and the whole backward chain — the
weight gradient :math:`Y = H^T \\Psi^T G` (Eq. 13), the score-gradient
SDDMM :math:`dS = \\mathcal{A} \\odot (\\cdot\\,\\cdot^T)` (Eq. 9) and
the hand-off to the Ψ VJP (Eqs. 7, 11). A model contributes an
:class:`~repro.core.formulation.AttentionSpec` and nothing else, and the
built-in ones are :data:`SPECS`:

========  ================================================  =========
model     :math:`\\Psi`                                      reads
========  ================================================  =========
VA        :math:`\\mathcal{A} \\odot (H H^T)`                 ``H``
AGNN      :math:`\\mathrm{sm}(\\mathcal{A} \\odot \\beta\\,
          (H H^T \\oslash n\\,n^T))`                          ``H``
GAT       :math:`\\mathrm{sm}(\\mathcal{A} \\odot
          \\mathrm{LeakyReLU}(\\mathrm{rep}(H'a) +
          \\mathrm{rep}^T(H'\\bar{a})))`, :math:`H' = HW`     ``H W``
``GCN``   :math:`\\mathcal{A}` (pre-normalised, constant)    —
========  ================================================  =========

VA, AGNN and GAT are written once, as the layer DAGs of
:mod:`repro.fusion.models`, and :func:`repro.fusion.lower.lower_layer_dag`
derives their specs: a score ``kind`` the fused row sweep of
:mod:`repro.tensor.megakernel` computes, plus the dense code around it
(AGNN's row norms, GAT's ``u = H'a``, ``v = H'ā``, and their chain rule).
Over the real semiring such a layer is *one* ``attention_forward`` — SDDMM
→ graph softmax → SpMM in a single pass over the rows, no edge-sized
intermediate, no ``S`` — and its backward one ``attention_backward``, whose
``dY`` exit is Eq. 13's :math:`\\Psi^T G`. Everything else — ``GCN``, a user
Ψ that returns ``S``, any other semiring — takes the general route:
``spec.psi`` → ``S`` → ``spmm(S, ·, semiring)``, and back through Eq. 9's
SDDMM into ``spec.psi_vjp``. The spec and the semiring alone decide.

GAT's Ψ depends on ``W`` through ``H'``, so its VJP lands in the weight
gradient (Eq. 7's second term) and it may run ``heads`` attention heads,
all in the *same* sweep over stacked ``(n, heads, d)`` features; a single
head hands the kernels plain 2-D operands.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from repro.core.formulation import AttentionSpec, PsiInitFn
from repro.fusion.lower import lower_layer_dag
from repro.fusion.models import agnn_layer_dag, gat_layer_dag, va_layer_dag
from repro.models.base import GnnLayer
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import mm, sddmm_dot, spmm
from repro.tensor.megakernel import (
    SweepStats, attention_backward, attention_forward, attention_scores)
from repro.tensor.semiring import REAL, Semiring
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import glorot, make_rng

__all__ = [
    "AttentionLayer",
    "LayerCache",
    "draw_parameters",
    "named_parameters",
    "head_major",
    "projection",
    "split_heads",
    "GCN",
    "SPECS",
    "layer_spec",
    "resolve_spec",
]


# ----------------------------------------------------------------------
# The built-in Ψ
# ----------------------------------------------------------------------
#: The C-GNN case: the (pre-normalised) adjacency *is* Ψ — a constant,
#: so there is no VJP and the gradient stops at Ψ (Section 4.4).
GCN = AttentionSpec(
    psi=lambda a, h, params, counter: (a, None), name="gcn"
)

#: The built-in models' Ψ by name: VA, AGNN and GAT as their layer DAGs
#: (keywords ``beta`` for AGNN, ``slope`` for GAT), which
#: :func:`layer_spec` lowers; GCN's constant Ψ as its spec.
SPECS = {"va": va_layer_dag, "agnn": agnn_layer_dag, "gat": gat_layer_dag, "gcn": GCN}


def layer_spec(model: str, learnable_beta: bool = False, **dag_kwargs) -> AttentionSpec:
    """The spec of a built-in model, by case-insensitive name: its layer
    DAG built with ``dag_kwargs`` and lowered — once per keyword set, so
    every layer of one shape shares a spec — or GCN's spec.
    ``learnable_beta`` makes AGNN's temperature a trained parameter (the
    original AGNN of Thekumparampil et al.; the paper's keeps it fixed)."""
    entry = SPECS.get(model.lower())
    if entry is None:
        raise ValueError(f"unknown model {model!r}; use VA, AGNN, GAT, GCN, an AttentionSpec "
                         "or, single-node, GIN or SGC")
    if isinstance(entry, AttentionSpec):
        if learnable_beta or dag_kwargs:
            raise TypeError(f"{entry.name} takes no model keywords")
        return entry
    known = inspect.signature(entry).parameters
    unknown = sorted(set(dag_kwargs) - set(known))
    if unknown:
        raise TypeError(f"model {model!r} got an unexpected keyword argument {unknown[0]!r}; "
                        f"it takes {', '.join(['learnable_beta', *known])}")
    return _lowered(model.lower(), bool(learnable_beta), tuple(sorted(dag_kwargs.items())))


@lru_cache(maxsize=None)
def _lowered(model: str, learnable_beta: bool, dag_kwargs: tuple) -> AttentionSpec:
    return lower_layer_dag(SPECS[model](**dict(dag_kwargs)), model, learnable_beta)


def resolve_spec(model: str | AttentionSpec, **spec_kwargs) -> tuple[AttentionSpec, str]:
    """``(spec, hidden activation)`` of a model: a name in :data:`SPECS`,
    its spec built by :func:`layer_spec` with ``spec_kwargs``, or a spec
    itself, which takes none. GAT's hidden layers use ELU, as in the GAT
    paper; every other model's ReLU."""
    if isinstance(model, AttentionSpec):
        if spec_kwargs:
            raise TypeError(f"a spec takes no model keywords, got {sorted(spec_kwargs)}")
        spec = model
    else:
        spec = layer_spec(model, **spec_kwargs)
    return spec, "elu" if spec.name == "gat" else "relu"


# ----------------------------------------------------------------------
# Parameter storage, shared with the distributed layers
# ----------------------------------------------------------------------
def draw_parameters(
    rng: np.random.Generator,
    in_dim: int,
    out_dim: int,
    heads: int,
    dtype: np.dtype | type,
    psi_init: PsiInitFn | None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Glorot-draw ``(weight, psi_params)``: per head ``W``, then Ψ's own.

    One head yields the arrays as drawn; several are stacked
    head-major, ``(heads, ...)``, so that each head's parameters stay
    one contiguous block of the shared storage.
    """
    drawn = [
        {
            "weight": glorot(rng, (in_dim, out_dim), dtype),
            **(psi_init(rng, out_dim, dtype) if psi_init else {}),
        }
        for _ in range(heads)
    ]
    params = drawn[0] if heads == 1 else {
        name: np.stack([head[name] for head in drawn]) for name in drawn[0]
    }
    return params.pop("weight"), params


def named_parameters(
    weight: np.ndarray, psi: dict[str, np.ndarray], heads: int
) -> dict[str, np.ndarray]:
    """Name ``weight`` + Ψ arrays: plain for one head, ``head{i}.*``
    views of head-major stacked arrays for several."""
    named = {"weight": weight, **psi}
    if heads == 1:
        return named
    return {
        f"head{i}.{name}": value[i]
        for i in range(heads)
        for name, value in named.items()
    }


def projection(weight: np.ndarray) -> np.ndarray:
    """The ``(in, heads*d)`` column-block matrix the matmuls use.

    One head's ``(in, d)`` weight is that matrix already; a head-major
    ``(heads, in, d)`` stack is rearranged per call (cheap next to the
    matmuls it feeds) so in-place updates are always reflected.
    """
    if weight.ndim == 2:
        return weight
    return weight.transpose(1, 0, 2).reshape(weight.shape[1], -1)


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """``(n, heads*d)`` → ``(n, heads, d)``; one head stays 2-D, so the
    kernels are handed 2-D operands exactly when there is one head."""
    if heads == 1:
        return x
    return x.reshape(x.shape[0], heads, -1)


def head_major(d_weight: np.ndarray, heads: int) -> np.ndarray:
    """View a flat ``(in, heads*d)`` weight gradient as ``(heads, in, d)``
    — the layout of the stacked weight (one head: unchanged)."""
    if heads == 1:
        return d_weight
    return d_weight.reshape(d_weight.shape[0], heads, -1).transpose(1, 0, 2)


# ----------------------------------------------------------------------
# Score operands by endpoint, shared with the distributed layers
# ----------------------------------------------------------------------
#: (row-endpoint, column-endpoint) score operands of the sweep; a column one
#: a spec leaves out is its row twin, as in the sweep's own defaults.
ENDPOINTS = (("x_src", "x_dst"), ("u", "v"), ("norms", "norms_dst"))
#: The sweep's gradient exits of those operands, paired the same way.
EXITS = (("dRow", "dCol"), ("dU", "dV"), ("dNormRow", "dNormCol"))


def block_operands(row: dict[str, Any], col: dict[str, Any]) -> dict[str, Any]:
    """The sweep's keywords on a block whose rows are those of ``row``'s
    operands and whose columns those of ``col``'s: row-endpoint operands
    and the scalars (``slope``, ``beta``) from ``row``, column-endpoint
    ones from ``col``."""
    ops = {key: value for key, value in row.items() if key not in dict(ENDPOINTS).values()}
    for src, dst in ENDPOINTS:
        if dst in col or src in col:
            ops[dst] = col.get(dst, col.get(src))
    return ops


def _at_rows(ops: dict[str, Any], rows: np.ndarray | None) -> dict[str, Any]:
    """``ops``, computed over a hop's sources, as the keywords of a sweep
    over its destinations ``rows`` (``None``: every source)."""
    if rows is None:
        return ops
    row_keys = dict(ENDPOINTS)
    return block_operands({key: value[rows] if key in row_keys else value
                           for key, value in ops.items()}, ops)


def _to_sources(exits: dict[str, np.ndarray], rows: np.ndarray | None,
                num_src: int) -> dict[str, np.ndarray]:
    """The sweep's exits over a hop's destinations ``rows``, the row-side
    ones scattered into the source frame (zeros at the other sources, as a
    square hop's empty rows give), so the operand VJP reads them as it
    reads a square hop's."""
    if rows is None:
        return exits
    out = dict(exits)
    for row_key, _ in EXITS:
        if row_key in exits:
            full = np.zeros((num_src,) + exits[row_key].shape[1:], exits[row_key].dtype)
            full[rows] = exits[row_key]
            out[row_key] = full
    return out


# ----------------------------------------------------------------------
# The layer
# ----------------------------------------------------------------------
@dataclass
class LayerCache:
    """Forward intermediates the backward pass reuses: the sweep's dense
    score operands ``ops`` and ``(n, heads)`` softmax ``stats`` (nothing
    edge-sized), or the general route's ``s`` / ``psi_cache``."""

    a: CSRMatrix
    h: np.ndarray
    hp: np.ndarray | None  # H W, split by head  (project_first)
    ah: np.ndarray | None  # Psi H               (aggregate_first)
    z: np.ndarray
    ops: dict[str, Any] | None = None
    stats: SweepStats | None = None
    s: CSRMatrix | None = None
    psi_cache: Any = None
    rows: np.ndarray | None = None  # the forward's ``rows``


class AttentionLayer(GnnLayer):
    """One GNN layer executing Eq. (1) for any :class:`AttentionSpec`.

    Parameters
    ----------
    in_dim, out_dim:
        Feature dimensions of one head's
        :math:`W \\in \\mathbb{R}^{in \\times out}`.
    spec:
        The attention operator Ψ (a built-in's, :func:`layer_spec`, or a
        user-defined one).
    activation:
        Output non-linearity :math:`\\sigma`, applied once after the
        heads are combined.
    order:
        :math:`\\Phi \\circ \\oplus` composition (Section 4.4):
        ``"project_first"`` evaluates :math:`\\Psi (H W)`,
        ``"aggregate_first"`` evaluates :math:`(\\Psi H) W`. They
        commute mathematically over the real semiring but not in cost.
    aggregate:
        The :math:`\\oplus` semiring (Section 4.3). Training needs the
        real semiring; the others are inference-only (their reductions
        are not smooth).
    heads, combine:
        ``heads`` independent attention heads, concatenated
        (``"concat"``, output width ``heads * out_dim``) or averaged
        (``"mean"``). More than one head needs a Ψ on the projected
        features, which in turn needs ``order="project_first"``.
    seed:
        Glorot initialisation seed; each head draws ``W`` and then its
        Ψ parameters.

    With one head the parameters are ``weight`` plus Ψ's own, and every
    kernel sees 2-D operands. With several they are stored stacked
    ``(heads, ...)`` and exposed as contiguous ``head{i}.*`` views, so
    in-place SGD updates, ``np.copyto`` checkpoint loads and flat-index
    perturbation (gradcheck) all see one memory.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        spec: AttentionSpec,
        activation: str = "relu",
        order: str = "project_first",
        aggregate: Semiring = REAL,
        heads: int = 1,
        combine: str = "concat",
        seed: int | np.random.Generator | None = 0,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__(activation)
        if order not in ("project_first", "aggregate_first"):
            raise ValueError(
                "order must be 'project_first' or 'aggregate_first'"
            )
        if combine not in ("concat", "mean"):
            raise ValueError("combine must be 'concat' or 'mean'")
        if spec.on_projected and order != "project_first":
            raise ValueError(
                f"{spec.name}: a Psi on H W needs order='project_first'"
            )
        if heads < 1:
            raise ValueError(f"heads must be >= 1, got {heads}")
        if heads > 1 and not spec.on_projected:
            raise ValueError(
                f"{spec.name}: multiple heads need a Psi on H W"
            )
        self.weight, self.psi_params = draw_parameters(
            make_rng(seed), in_dim, out_dim, heads, dtype, spec.init
        )
        self.spec = spec
        self.order = order
        self.aggregate = aggregate
        self.heads = heads
        self.combine = combine
        self.in_dim = in_dim
        self.head_dim = out_dim
        self.out_dim = (
            out_dim * heads if combine == "concat" else out_dim
        )

    # -- head layout ---------------------------------------------------
    def _combine(self, zh: np.ndarray) -> np.ndarray:
        """Per-head outputs ``(n, heads, d)`` → Z: concatenated or averaged."""
        if self.heads == 1:
            return zh
        if self.combine == "concat":
            return zh.reshape(zh.shape[0], -1)
        return zh.mean(axis=1)

    def _uncombine(self, g: np.ndarray) -> np.ndarray:
        """``dL/dZ`` → every head's ``dL/dZ_h``, stacked ``(n, heads, d)``."""
        if self.heads == 1:
            return g
        if self.combine == "concat":
            return split_heads(np.ascontiguousarray(g), self.heads)
        # Mean combine: each head sees dL/dZ_h = g / heads.
        return np.broadcast_to(
            (g / self.heads)[:, None, :],
            (g.shape[0], self.heads, self.head_dim),
        )

    # ------------------------------------------------------------------
    def forward(
        self,
        a: CSRMatrix,
        h: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
        rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, LayerCache | None]:
        spec, w = self.spec, projection(self.weight)
        project = self.order == "project_first"
        hp = ah = ops = stats = s = psi_cache = None
        if project:
            hp = split_heads(mm(h, w, counter=counter), self.heads)
        y = hp if project else h  # what Psi aggregates
        x = hp if spec.on_projected else h  # what Psi reads
        if spec.kind is not None:
            # The operands over every source; the sweep reads the
            # row-endpoint ones at the destinations.
            ops = spec.operands(x, self.psi_params, counter)
            row_ops = _at_rows(ops, rows)
            if self.aggregate is REAL:
                # One fused row sweep: no S, nothing edge-sized.
                zy, stats = attention_forward(
                    a, spec.kind, y, softmax=spec.softmax, counter=counter, **row_ops
                )
            else:
                s = attention_scores(a, spec.kind, softmax=spec.softmax, counter=counter,
                                     **row_ops)
                zy, ops = spmm(s, y, semiring=self.aggregate, counter=counter), None
        else:
            # A user's psi reads X by A's row and column ids: it scores the
            # hop in the square frame of its sources, on A's entries.
            s, psi_cache = spec.psi(a if rows is None else a.lift_rows(rows), x,
                                    self.psi_params, counter)
            if rows is not None:
                s = a.with_data(s.data)
            zy = spmm(s, y, semiring=self.aggregate, counter=counter)
        if project:
            z = self._combine(zy)
        else:
            ah, z = zy, mm(zy, w, counter=counter)
        h_next = self.activation.fn(z)
        if not training:
            return h_next, None
        return h_next, LayerCache(
            a=a, h=h, hp=hp, ah=ah, z=z, ops=ops, stats=stats, s=s, psi_cache=psi_cache,
            rows=rows,
        )

    # ------------------------------------------------------------------
    def backward(
        self,
        cache: LayerCache,
        g: np.ndarray,
        counter: FlopCounter = null_counter(),
        input_grad: bool = True,
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        if self.aggregate is not REAL:
            raise NotImplementedError(
                "training requires the real aggregation semiring"
            )
        spec, w = self.spec, projection(self.weight)
        if self.order == "project_first":
            # Z = Psi (H W):  dH' = Psi^T G;  dW = H^T dH';  dH = dH' W^T.
            dhp, dx, psi_grads = self._psi_backward(
                cache, self._uncombine(g), cache.hp, counter
            )
            if spec.on_projected and dx is not None:
                # Psi read H', so its path joins dH' (and through it dW).
                dhp, dx = dhp + dx, None
            dhp = dhp.reshape(dhp.shape[0], -1)
            d_weight = mm(cache.h.T, dhp, counter=counter)
            dh = mm(dhp, w.T, counter=counter) if input_grad else None
        else:
            # Z = (Psi H) W:  dW = (Psi H)^T G;  dH = Psi^T (G W^T).
            dh, dx, psi_grads = self._psi_backward(
                cache, mm(g, w.T, counter=counter), cache.h, counter
            )
            d_weight = mm(cache.ah.T, g, counter=counter)
        if not input_grad:
            dh = None
        elif dx is not None:
            dh = dh + dx
        return dh, named_parameters(
            head_major(d_weight, self.heads), psi_grads, self.heads
        )

    def _psi_backward(
        self, cache: LayerCache, left: np.ndarray, right: np.ndarray, counter: FlopCounter
    ) -> tuple[np.ndarray, np.ndarray | None, dict[str, np.ndarray]]:
        """``(Psi^T L, dX, parameter gradients)`` for ``Z' = Psi R`` and
        ``L = dZ'``, ``X`` being what Psi read. The sweep emits all of it in
        one pass (``dY`` is Eq. 13's :math:`\\Psi^T L`; the score-side exits
        feed the spec's dense VJP, row-side ones in the source frame); the
        general route hands ``dS = A ⊙ (L R^T)`` (Eq. 9) to ``psi_vjp``. No
        VJP: the gradient stops at Psi."""
        spec = self.spec
        if cache.ops is not None:  # the forward was a sweep
            exits = attention_backward(
                cache.a, spec.kind, right, left, stats=cache.stats,
                softmax=spec.softmax, counter=counter, **_at_rows(cache.ops, cache.rows),
            )
            if spec.operands_vjp is None:
                return exits["dY"], None, {}
            x = cache.hp if spec.on_projected else cache.h
            exits = _to_sources(exits, cache.rows, x.shape[0])
            return exits["dY"], *spec.operands_vjp(exits, x, self.psi_params, cache.ops, counter)
        psi_t_left = spmm(cache.s.transpose(), left, counter=counter)
        if spec.psi_vjp is None:
            return psi_t_left, None, {}
        ds = sddmm_dot(cache.a, left, right, counter=counter)
        return psi_t_left, *spec.psi_vjp(ds, cache.psi_cache, counter)

    # ------------------------------------------------------------------
    def parameters(self) -> dict[str, np.ndarray]:
        return named_parameters(self.weight, self.psi_params, self.heads)

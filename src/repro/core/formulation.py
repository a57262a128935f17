"""The programmable attention operator of Eq. (1).

.. math:: H^{l+1} = \\sigma\\left(Z^l\\right), \\qquad
          Z^l = (\\Phi \\circ \\oplus)\\left(\\Psi(\\mathcal{A}, H^l), H^l\\right)

A model is *only* its :math:`\\Psi`. Everything else in Eq. (1) — the
linear update :math:`\\Phi`, the aggregation semiring :math:`\\oplus`,
their composition order (Section 4.4), the heads, and the whole
backward chain of Section 5 — is written once, in
:class:`repro.models.attention.AttentionLayer`. VA, AGNN and GAT are the
:class:`AttentionSpec` instances :mod:`repro.fusion.lower` derives from
their layer DAGs, GCN a literal one; a user model is one more instance
(see ``examples/custom_attention_model.py``).

A :math:`\\Psi` is declared one of two ways. One the fused row sweep of
:mod:`repro.tensor.megakernel` can score (a sampled dot product, a cosine
or GAT's additive logit, softmaxed or not) names that ``kind`` and supplies
only *dense* code: ``operands`` prepares the sweep's score operands and
``operands_vjp`` is the chain rule of that prep; over the real semiring the
layer then runs SDDMM → softmax → SpMM as one pass, forward and backward.
Any other :math:`\\Psi` supplies ``psi``, returning the score matrix ``S``
itself, and — to train through it — ``psi_vjp``. Without a VJP the gradient
stops at :math:`\\Psi` — a standard approximation, and exactly what a C-GNN
such as GCN (:math:`\\Psi(\\mathcal{A}, H) = \\mathcal{A}`) needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.tensor.csr import CSRMatrix
from repro.tensor.megakernel import PSI_KINDS, attention_scores
from repro.util.counters import FlopCounter

__all__ = ["AttentionSpec"]

#: Psi parameters by name; stacked ``(heads, ...)`` when ``heads > 1``.
PsiParams = dict[str, np.ndarray]
#: A Psi operator: ``(A, X, params, counter) -> (S, cache)``.
PsiFn = Callable[
    [CSRMatrix, np.ndarray, PsiParams, FlopCounter], tuple[CSRMatrix, Any]
]
#: A Psi VJP: ``(dS values, cache, counter) -> (dX, parameter gradients)``.
PsiVjpFn = Callable[
    [np.ndarray, Any, FlopCounter], tuple[np.ndarray, PsiParams]
]
#: A Psi parameter initialiser for one head:
#: ``(rng, head width, dtype) -> params``.
PsiInitFn = Callable[[np.random.Generator, int, np.dtype], PsiParams]


@dataclass(frozen=True)
class AttentionSpec:
    """An attention operator :math:`\\Psi`, as the layer plugs it in.

    Attributes
    ----------
    psi:
        ``(A, X, params, counter) -> (S, cache)``: the sparse score
        matrix ``S`` on A's pattern plus an opaque cache for the VJP.
        ``X`` is the layer input ``H``, or the projected features
        ``H W`` when ``on_projected`` is set. Left out by a spec that
        declares a ``kind``: it is then ``attention_scores`` of the
        operands, which is what a non-real semiring aggregates.
    psi_vjp:
        ``(dS, cache, counter) -> (dX, grads)``: gradient of ``psi``
        w.r.t. ``X`` and w.r.t. each of its parameters, given the
        gradient of S's stored values. ``None`` detaches attention
        from the gradient flow.
    init:
        ``(rng, width, dtype) -> params``: draws one head's trainable
        Psi parameters (``width`` is the head's output width). ``None``
        for a parameter-free Psi.
    on_projected:
        Psi reads ``H W`` (GAT) instead of ``H`` (VA, AGNN, GCN). Such
        a Psi depends on ``W``, so its VJP feeds the weight gradient
        (Eq. 7's second term) and it can run one Psi per head.
    name:
        Label used in reports.
    kind, softmax:
        The score the sweep computes per stored entry, one of
        :data:`~repro.tensor.megakernel.PSI_KINDS`, and whether the graph
        softmax follows (``None``: yes, except for ``"dot"``).
    operands:
        ``(X, params, counter) -> dict``: this kind's keyword operands of
        :func:`~repro.tensor.megakernel.attention_forward`, computed
        densely from ``X`` (head-stacked when ``X`` is).
    operands_vjp:
        ``(exits, X, params, operands, counter) -> (dX, grads)``: their
        chain rule, from ``attention_backward``'s exits. ``None`` detaches
        attention, as a missing ``psi_vjp`` does.
    """

    psi: PsiFn | None = None
    psi_vjp: PsiVjpFn | None = None
    init: PsiInitFn | None = None
    on_projected: bool = False
    name: str = "custom"
    kind: str | None = None
    softmax: bool | None = None
    operands: Callable[..., dict[str, Any]] | None = None
    operands_vjp: Callable[..., tuple[np.ndarray, PsiParams]] | None = None

    def __post_init__(self) -> None:
        swept = self.kind in PSI_KINDS and self.operands is not None
        general = self.kind is None and not (self.operands or self.operands_vjp)
        if (self.psi is None) != swept or not (swept or general) or (swept and self.psi_vjp):
            raise ValueError(
                f"{self.name}: a spec supplies psi (and psi_vjp), or declares "
                f"kind (one of {PSI_KINDS}) with operands (and operands_vjp)"
            )
        if swept:  # psi is the scores as a matrix; a closure, so the spec stays hashable
            kind, softmax, operands = self.kind, self.softmax, self.operands
            object.__setattr__(self, "psi", lambda a, x, params, counter: (
                attention_scores(a, kind, softmax=softmax, counter=counter,
                                 **operands(x, params, counter)), None))

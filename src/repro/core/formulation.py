"""The programmable attention operator of Eq. (1).

.. math:: H^{l+1} = \\sigma\\left(Z^l\\right), \\qquad
          Z^l = (\\Phi \\circ \\oplus)\\left(\\Psi(\\mathcal{A}, H^l), H^l\\right)

A model is *only* its :math:`\\Psi`. Everything else in Eq. (1) — the
linear update :math:`\\Phi`, the aggregation semiring :math:`\\oplus`,
their composition order (Section 4.4), the heads, and the whole
backward chain of Section 5 — is written once, in
:class:`repro.models.attention.AttentionLayer`. VA, AGNN, GAT and GCN
are the :class:`AttentionSpec` instances that module ships; a user
model is one more instance (see ``examples/custom_attention_model.py``).

Training through a custom :math:`\\Psi` requires its vector-Jacobian
product; if none is supplied, the layer treats attention scores as
constants during the backward pass (gradient stops at :math:`\\Psi`) —
a standard approximation, and exactly what a C-GNN such as GCN
(:math:`\\Psi(\\mathcal{A}, H) = \\mathcal{A}`) needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.tensor.csr import CSRMatrix
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
        ``H W`` when ``on_projected`` is set.
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
    """

    psi: PsiFn
    psi_vjp: PsiVjpFn | None = None
    init: PsiInitFn | None = None
    on_projected: bool = False
    name: str = "custom"

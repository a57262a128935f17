"""Training objectives and their gradients.

Each loss implements the :class:`~repro.models.base.Loss` interface:
``value`` returns the scalar objective and ``gradient`` returns
:math:`\\nabla_{H^L}\\mathcal{L}` — the bootstrap of the generic
backward formulation (Eq. 4). Both support an optional boolean
``mask`` restricting the objective to labelled vertices, the standard
semi-supervised node-classification setting.

The arithmetic of each mean loss is written once, over the rows at hand
and an explicit ``count`` of averaged terms: :func:`cross_entropy_terms`
returns the *unnormalised* sum and the gradient of ``sum / count``. A single-node loss passes its own count; a
rank of a partitioned run (:class:`PartitionedLoss`) passes the global
one through :func:`block_loss_terms`, allreduces the sums and divides —
so block gradients concatenate, and block sums add, to the single-node
result.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.models.base import Loss

__all__ = [
    "SoftmaxCrossEntropyLoss",
    "PartitionedLoss",
    "block_loss_terms",
    "cross_entropy_terms",
]

#: ``(rows of h, their targets, count) -> (unnormalised sum, gradient)``.
LossTerms = Callable[..., tuple[float, np.ndarray]]


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise numerically-stable log-softmax."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_terms(
    h: np.ndarray, labels: np.ndarray, count: int
) -> tuple[float, np.ndarray]:
    """``(Σ_i −log softmax(h_i)[y_i], (softmax(h) − onehot(y)) / count)``;
    ``count`` is the number of rows the mean runs over — ``len(h)``, or
    the global labelled count when ``h`` is one block of them."""
    logp = log_softmax(h.astype(np.float64))
    rows = np.arange(h.shape[0])
    total = float((-logp[rows, labels]).sum())
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= max(count, 1)
    return total, grad


def block_loss_terms(
    terms: LossTerms,
    h: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray | None,
    count: int,
) -> tuple[float, np.ndarray]:
    """``terms`` over the rows of ``h`` that ``mask`` selects (``None``:
    all); the gradient is scattered into a zero-filled array of ``h``'s
    shape and cast to its dtype."""
    if mask is None:
        total, grad = terms(h, target, count)
        return total, grad.astype(h.dtype)
    index = np.flatnonzero(mask)
    total, grad_rows = terms(h[index], target[index], count)
    grad = np.zeros(h.shape, dtype=np.float64)
    grad[index] = grad_rows
    return total, grad.astype(h.dtype)


class _MeanLoss(Loss):
    """The mean of ``_terms`` over the (masked) rows."""

    _terms: LossTerms

    def __init__(self, mask: np.ndarray | None = None) -> None:
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)

    def evaluate(
        self, h_out: np.ndarray, target: np.ndarray
    ) -> tuple[float, np.ndarray]:
        count = h_out.shape[0] if self.mask is None else int(self.mask.sum())
        total, grad = block_loss_terms(
            self._terms, h_out, np.asarray(target), self.mask, count
        )
        return total / max(count, 1), grad

    def value(self, h_out: np.ndarray, target: np.ndarray) -> float:
        return self.evaluate(h_out, target)[0]

    def gradient(self, h_out: np.ndarray, target: np.ndarray) -> np.ndarray:
        return self.evaluate(h_out, target)[1]


class SoftmaxCrossEntropyLoss(_MeanLoss):
    """Mean softmax cross-entropy over (masked) vertices.

    ``target`` holds integer class labels of shape ``(n,)``. The
    gradient is the classic ``softmax(z) - onehot(y)`` scaled by
    ``1 / n_labelled``, scattered back to full shape when masked.
    """

    _terms = staticmethod(cross_entropy_terms)


class PartitionedLoss(_MeanLoss):
    """One rank's share of a mean loss over a partitioned output:
    ``terms`` over the rank's rows that ``mask`` selects, averaged over
    the *global* ``count`` (so the gradient is the rank's block of the
    single-node one); the value allreduces every rank's sum, ``0`` from a
    rank whose rows another rank also holds (``counted=False``)."""

    def __init__(self, terms: LossTerms, mask: np.ndarray | None, count: int,
                 allreduce: Callable[[np.ndarray], np.ndarray], counted: bool = True) -> None:
        self._terms, self.mask, self.count = terms, mask, count
        self.allreduce, self.counted = allreduce, counted

    def evaluate(self, h_out: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
        total, grad = block_loss_terms(self._terms, h_out, target, self.mask, self.count)
        total = self.allreduce(np.array(total if self.counted else 0.0))
        return float(total) / max(self.count, 1), grad

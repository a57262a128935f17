"""Evaluation metrics for node-level tasks."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
) -> float:
    """Fraction of (masked) vertices whose argmax matches the label."""
    pred = np.asarray(logits).argmax(axis=1)
    labels = np.asarray(labels)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        pred, labels = pred[mask], labels[mask]
    if labels.size == 0:
        return 0.0
    return float((pred == labels).mean())



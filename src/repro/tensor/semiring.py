"""Semiring algebra for generalised aggregations (Section 4.3).

The paper expresses arbitrary neighbourhood aggregations
:math:`\\mathcal{A} \\oplus H` as sparse-dense matrix products over
semirings. A semiring is a tuple ``(X, op1, op2, el1, el2)`` where
``(X, op1)`` is a commutative monoid with identity ``el1`` (the
*additive* reduction across a neighbourhood) and ``(X, op2)`` a monoid
with identity ``el2`` (the *multiplicative* combination of an adjacency
entry with a feature).

Provided instances:

``REAL``
    :math:`(\\mathbb{R}, +, \\cdot, 0, 1)` — the standard sum aggregation.
``TROPICAL_MIN``
    :math:`(\\mathbb{R}\\cup\\{\\infty\\}, \\min, +, \\infty, 0)` — min
    aggregation. Adjacency entries must carry the multiplicative
    identity 0 (see :func:`adjacency_values`) so that the product over
    a neighbourhood reduces to the plain minimum of neighbour features.
``TROPICAL_MAX``
    :math:`(\\mathbb{R}\\cup\\{-\\infty\\}, \\max, +, -\\infty, 0)` — max
    aggregation.
``AVERAGE``
    The pair-valued semiring of Section 4.3 computing weighted
    averages: elements are pairs ``(value, weight)``; the adjacency
    entry ``x`` is lifted to ``(x, x)``, combination tracks partial
    weighted sums, and merging computes the running weighted average.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Semiring",
    "REAL",
    "TROPICAL_MIN",
    "TROPICAL_MAX",
    "AVERAGE",
    "adjacency_values",
    "semiring_matmul_dense",
]


@dataclass(frozen=True)
class Semiring:
    """A semiring over NumPy scalars, executable with ufunc reductions.

    Attributes
    ----------
    name:
        Human-readable identifier.
    add:
        The commutative reduction ufunc (``op1``).
    mul:
        The combination ufunc (``op2``).
    zero:
        Identity of ``add`` (``el1``); also the value of *absent*
        sparse entries.
    one:
        Identity of ``mul`` (``el2``); the value adjacency entries must
        carry for pure neighbourhood reductions.
    pair_valued:
        ``True`` only for the AVERAGE semiring, whose elements are
        (value, weight) pairs and which is special-cased by the SpMM
        kernel.
    """

    name: str
    add: np.ufunc | None
    mul: np.ufunc | None
    zero: float
    one: float
    pair_valued: bool = field(default=False)

    def __post_init__(self) -> None:
        if not self.pair_valued:
            if self.add is None or self.mul is None:
                raise ValueError("scalar semirings need add and mul ufuncs")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Semiring({self.name})"


REAL = Semiring("real", np.add, np.multiply, 0.0, 1.0)
TROPICAL_MIN = Semiring("tropical_min", np.minimum, np.add, np.inf, 0.0)
TROPICAL_MAX = Semiring("tropical_max", np.maximum, np.add, -np.inf, 0.0)
AVERAGE = Semiring("average", None, None, 0.0, 1.0, pair_valued=True)


def adjacency_values(semiring: Semiring, weights: np.ndarray) -> np.ndarray:
    """Lift adjacency weights into the semiring's domain.

    For the real and average semirings the stored weights are used as
    is. For tropical semirings, a pure min/max over the neighbourhood
    requires the *multiplicative identity* (0) at every stored entry —
    this mirrors the paper's remark that one "first transforms A by
    setting each off-diagonal zero entry as infinity" (absent entries
    already behave as the additive identity in our sparse kernels).
    """
    weights = np.asarray(weights)
    if semiring.name in ("tropical_min", "tropical_max"):
        return np.full_like(weights, semiring.one)
    return weights


def semiring_matmul_dense(
    semiring: Semiring, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Reference dense matrix product over a semiring (testing oracle).

    ``C[i, j] = op1_k( op2(a[i, k], b[k, j]) )`` with the convention
    that absent entries of a sparse ``a`` equal ``semiring.zero``. For
    the AVERAGE semiring, rows of ``a`` are interpreted as weights and
    ``C[i, j]`` is the a-weighted average of ``b[:, j]`` over the
    nonzero entries of row ``i``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if semiring.pair_valued:
        out = np.zeros((a.shape[0], b.shape[1]))
        for i in range(a.shape[0]):
            nz = np.nonzero(a[i])[0]
            if nz.size == 0:
                continue
            w = a[i, nz]
            out[i] = (w[:, None] * b[nz]).sum(axis=0) / w.sum()
        return out
    out = np.full((a.shape[0], b.shape[1]), semiring.zero)
    for i in range(a.shape[0]):
        nz = np.nonzero(a[i] != semiring.zero)[0]
        if nz.size == 0:
            continue
        combined = semiring.mul(a[i, nz][:, None], b[nz])
        out[i] = semiring.add.reduce(combined, axis=0)
    return out

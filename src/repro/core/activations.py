"""Element-wise non-linearities with derivatives.

The generic backward formulation (Eq. 6) multiplies the incoming error
by :math:`\\sigma'(Z^{l-1})`, so every activation is shipped as a
(function, derivative-in-terms-of-Z) pair. Derivatives take the
*pre-activation* ``Z``, matching the paper's notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Activation", "get_activation", "leaky_relu", "leaky_relu_grad"]


@dataclass(frozen=True)
class Activation:
    """An activation function bundled with its derivative.

    ``fn(z)`` computes :math:`\\sigma(z)`; ``grad(z)`` computes
    :math:`\\sigma'(z)` as a function of the pre-activation.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0)


def _relu_grad(z: np.ndarray) -> np.ndarray:
    return (z > 0).astype(z.dtype)


def _identity(z: np.ndarray) -> np.ndarray:
    return z


def _identity_grad(z: np.ndarray) -> np.ndarray:
    return np.ones_like(z)


def _tanh(z: np.ndarray) -> np.ndarray:
    return np.tanh(z)


def _tanh_grad(z: np.ndarray) -> np.ndarray:
    t = np.tanh(z)
    return 1 - t * t


def _elu(z: np.ndarray) -> np.ndarray:
    # Branch-free (a select on random signs mispredicts): one of the two
    # terms is an exact zero, so the sum is the select, bit for bit.
    return np.maximum(z, 0) + np.expm1(np.minimum(z, 0))


def _elu_grad(z: np.ndarray) -> np.ndarray:
    # exp(min(z, 0)) is exactly 1 where z > 0.
    return np.exp(np.minimum(z, 0))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_grad(z: np.ndarray) -> np.ndarray:
    s = _sigmoid(z)
    return s * (1 - s)


#: Default negative slope of LeakyReLU, matching the GAT paper.
LEAKY_SLOPE = 0.2


def leaky_relu(z: np.ndarray, slope: float = LEAKY_SLOPE) -> np.ndarray:
    """LeakyReLU used inside the GAT attention logits."""
    return np.where(z > 0, z, slope * z).astype(z.dtype, copy=False)


def leaky_relu_grad(z: np.ndarray, slope: float = LEAKY_SLOPE) -> np.ndarray:
    """Derivative of :func:`leaky_relu` w.r.t. its input."""
    dt = z.dtype if isinstance(z, np.ndarray) else np.float64
    return np.where(z > 0, 1.0, slope).astype(dt, copy=False)


_REGISTRY: dict[str, Activation] = {
    "relu": Activation("relu", _relu, _relu_grad),
    "identity": Activation("identity", _identity, _identity_grad),
    "tanh": Activation("tanh", _tanh, _tanh_grad),
    "elu": Activation("elu", _elu, _elu_grad),
    "sigmoid": Activation("sigmoid", _sigmoid, _sigmoid_grad),
    "leaky_relu": Activation(
        "leaky_relu",
        lambda z: leaky_relu(z),
        lambda z: leaky_relu_grad(z),
    ),
}


def get_activation(name: str | Activation) -> Activation:
    """Look up an activation by name (or pass one through)."""
    if isinstance(name, Activation):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; available: {sorted(_REGISTRY)}"
        ) from None

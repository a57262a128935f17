"""Base classes of the model stack: ``GnnLayer``, ``GnnModel``, ``Loss``.

These mirror the three base classes the paper's artifact describes in
``gnn_models.py``. A model is a list of layers; each layer computes

.. math:: Z^l = (\\Phi \\circ \\oplus)(\\Psi(\\mathcal{A}, H^l), H^l),
          \\qquad H^{l+1} = \\sigma(Z^l)

and, for training, caches whatever its backward pass needs. The model
owns the *error chaining* of Section 5: the loss provides
:math:`\\nabla_{H^L}\\mathcal{L}`, the model bootstraps
:math:`G^L = \\nabla_{H^L}\\mathcal{L} \\odot \\sigma'(Z^L)` (Eq. 4) and
walks the layers backwards, converting each layer's input-feature
gradient into the previous layer's :math:`G^{l-1} = \\sigma'(Z^{l-1})
\\odot \\Gamma^l` (Eq. 6).

The same three classes carry distributed training: a
:mod:`repro.distributed.layers` layer *is* a :class:`GnnLayer` over a
rank's blocks (ending in its own reduce+redistribute, Section 6.3), so
``build_dist_model`` returns a plain :class:`GnnModel`. The update rule
lives in :mod:`repro.training.optim`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from repro.core.activations import Activation, get_activation
from repro.tensor.csr import CSRMatrix
from repro.util.counters import FlopCounter, null_counter

__all__ = ["GnnLayer", "GnnModel", "Loss", "glorot"]


def glorot(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    dtype: np.dtype | type = np.float32,
) -> np.ndarray:
    """Glorot/Xavier-uniform initialisation (fan-in + fan-out scaled)."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, shape).astype(dtype)


class GnnLayer(ABC):
    """One GNN layer: parameters + forward/backward transforms.

    Subclasses hold their parameters as attributes and implement
    :meth:`forward` / :meth:`backward`. Every cache object returned by
    ``forward`` must expose a ``z`` attribute (the pre-activation),
    which the model uses for inter-layer error propagation.
    """

    activation: Activation

    def __init__(self, activation: str | Activation) -> None:
        self.activation = get_activation(activation)

    @abstractmethod
    def forward(
        self,
        a: CSRMatrix,
        h: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
    ) -> tuple[np.ndarray, Any]:
        """Compute ``H_next`` (post-activation) and a training cache.

        With ``training=False`` the cache is ``None`` and no
        intermediate matrices are retained (the artifact's
        ``--inference`` mode).
        """

    @abstractmethod
    def backward(
        self,
        cache: Any,
        g: np.ndarray,
        counter: FlopCounter = null_counter(),
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        """Given ``g = dL/dZ`` of this layer, return ``(dH_in, grads)``.

        ``dH_in`` is the loss gradient w.r.t. this layer's input
        features (the :math:`\\Gamma` of Eq. 6, before the previous
        layer's :math:`\\sigma'` mask); a model's first layer may
        return ``None``, since nothing reads it. ``grads`` maps
        parameter names to gradients.
        """

    @abstractmethod
    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable parameters by name (views, not copies)."""


class GnnModel:
    """A stack of :class:`GnnLayer` with full-batch training support.

    Parameters
    ----------
    layers:
        The GNN layers, applied in order.

    Notes
    -----
    ``forward`` retains per-layer caches on the instance (full-batch
    training stores all layer activations, which is exactly the memory
    behaviour the paper's scaling study measures); call with
    ``training=False`` for cache-free inference.
    """

    def __init__(self, layers: Sequence[GnnLayer]) -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.layers = list(layers)
        self._caches: list[Any] | None = None

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def require_one_hop(self, why: str) -> None:
        """Raise ``ValueError`` (prefixed by ``why``) unless every layer
        reads only its one-hop neighbours.

        Engines that fetch one hop of neighbourhood per layer (ego-graph
        serving, the local engine's halo exchange) would silently read
        truncated inputs under a layer with an internal multi-hop
        receptive field (SGC's K-hop propagation).
        """
        for layer in self.layers:
            hops = getattr(layer, "hops", 1)
            if hops != 1:
                raise ValueError(
                    f"{why}; {type(layer).__name__} propagates "
                    f"{hops} hops internally"
                )

    # ------------------------------------------------------------------
    def forward(
        self,
        a: CSRMatrix,
        h: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
    ) -> np.ndarray:
        """Full forward pass over all layers."""
        caches: list[Any] = []
        for layer in self.layers:
            h, cache = layer.forward(a, h, counter=counter, training=training)
            caches.append(cache)
        self._caches = caches if training else None
        return h

    # ------------------------------------------------------------------
    def backward(
        self,
        d_h_out: np.ndarray,
        counter: FlopCounter = null_counter(),
    ) -> list[dict[str, np.ndarray]]:
        """Full backward pass from :math:`\\nabla_{H^L}\\mathcal{L}`.

        Returns one gradient dict per layer (aligned with
        ``self.layers``). Requires a preceding ``forward`` in training
        mode.
        """
        caches = self._caches
        if not caches:
            raise RuntimeError(
                "backward requires a prior forward(training=True)"
            )
        grads: list[dict[str, np.ndarray]] = [None] * len(self.layers)  # type: ignore[list-item]
        gamma = d_h_out
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            cache = caches[index]
            # Eq. (4)/(6): mask the incoming feature gradient with sigma'.
            g = gamma * layer.activation.grad(cache.z)
            gamma, layer_grads = layer.backward(cache, g, counter=counter)
            grads[index] = layer_grads
        return grads

    # ------------------------------------------------------------------
    def parameters(self) -> list[dict[str, np.ndarray]]:
        """Per-layer parameter dictionaries."""
        return [layer.parameters() for layer in self.layers]

    def zero_caches(self) -> None:
        """Drop cached activations (frees full-batch training memory)."""
        self._caches = None


class Loss(ABC):
    """A differentiable training objective on the output features."""

    @abstractmethod
    def value(self, h_out: np.ndarray, target: np.ndarray) -> float:
        """Scalar loss."""

    @abstractmethod
    def gradient(self, h_out: np.ndarray, target: np.ndarray) -> np.ndarray:
        """:math:`\\nabla_{H^L}\\mathcal{L}` — the backward bootstrap."""

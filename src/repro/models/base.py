"""Base classes of the model stack: ``GnnLayer``, ``GnnModel``, ``Loss``.

These mirror the three base classes the paper's artifact describes in
``gnn_models.py``. A model is a list of layers; each layer computes

.. math:: Z^l = (\\Phi \\circ \\oplus)(\\Psi(\\mathcal{A}, H^l), H^l),
          \\qquad H^{l+1} = \\sigma(Z^l)

and, for training, caches whatever its backward pass needs. The
*error chaining* of Section 5 is written once, in
:func:`backward_blocks`: the loss provides
:math:`\\nabla_{H^L}\\mathcal{L}`, the chain bootstraps
:math:`G^L = \\nabla_{H^L}\\mathcal{L} \\odot \\sigma'(Z^L)` (Eq. 4) and
walks the layers backwards, converting each layer's input-feature
gradient into the previous layer's :math:`G^{l-1} = \\sigma'(Z^{l-1})
\\odot \\Gamma^l` (Eq. 6). :func:`forward_blocks` is its forward twin.
Both walk one :class:`Hop` per layer — the whole graph for
:meth:`GnnModel.forward` / :meth:`GnnModel.backward`, a sampled block,
or a rank's own+halo block with an exchange pair around each layer.

The same three classes carry distributed training: a
:mod:`repro.distributed.layers` layer *is* a :class:`GnnLayer` over a
rank's blocks (ending in its own reduce+redistribute, Section 6.3), so
``build_dist_model`` returns a plain :class:`GnnModel`, stacked by the
same :func:`stack_layers` as ``build_model``'s. The update rule
lives in :mod:`repro.training.optim`, the step in
:func:`repro.training.train_step`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.core.activations import Activation, get_activation
from repro.tensor.csr import CSRMatrix
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import make_rng

__all__ = [
    "GnnLayer", "GnnModel", "Hop", "Loss", "backward_blocks", "forward_blocks",
    "stack_layers",
]


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
        rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, Any]:
        """Compute ``H_next`` (post-activation) and a training cache.

        ``h`` holds the hop's source rows, one per column of ``a``.
        ``rows=None`` means ``a`` is square and every source is a
        destination; otherwise ``a`` has one row per destination and
        ``rows`` (ascending) are their positions among the sources — where
        a layer reads its row-endpoint operands and self terms. Either
        way the output and the cache's ``z`` have one row per row of
        ``a``. With ``training=False`` the cache is ``None`` and no
        intermediate matrices are retained (the artifact's
        ``--inference`` mode).
        """

    @abstractmethod
    def backward(
        self,
        cache: Any,
        g: np.ndarray,
        counter: FlopCounter = null_counter(),
        input_grad: bool = True,
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        """Given ``g = dL/dZ`` of this layer, return ``(dH_in, grads)``.

        ``dH_in`` is the loss gradient w.r.t. this layer's input
        features, one row per source (the :math:`\\Gamma` of Eq. 6,
        before the previous layer's :math:`\\sigma'` mask);
        ``input_grad=False`` — a model's first layer, whose input
        gradient nothing reads — skips its products and returns ``None``.
        ``grads`` maps parameter names to gradients.
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
    ``training=False`` for cache-free inference. ``output`` holds the
    rows the last :func:`repro.training.train_step` fed its loss.
    """

    def __init__(self, layers: Sequence[GnnLayer]) -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.layers = list(layers)
        self._caches: list[Any] | None = None
        self.output: np.ndarray | None = None

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # ------------------------------------------------------------------
    def forward(
        self,
        a: CSRMatrix,
        h: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
    ) -> np.ndarray:
        """Full forward pass: the whole graph is every layer's hop."""
        h, caches = forward_blocks(self, [Hop(a)] * self.num_layers, h, counter, training)
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
        if not self._caches:
            raise RuntimeError("backward requires a prior forward(training=True)")
        return backward_blocks(self, (), self._caches, d_h_out, counter)

    # ------------------------------------------------------------------
    def parameters(self) -> list[dict[str, np.ndarray]]:
        """Per-layer parameter dictionaries."""
        return [layer.parameters() for layer in self.layers]

    def zero_caches(self) -> None:
        """Drop cached activations and the last step's output (frees
        full-batch training memory)."""
        self._caches = None
        self.output = None


def stack_layers(layer: Callable[[int, int, str, str, np.random.Generator], GnnLayer],
                 in_dim: int, hidden_dim: int, out_dim: int, num_layers: int, activation: str,
                 seed: int | np.random.Generator | None) -> GnnModel:
    """The one stacking policy: ``num_layers`` layers of
    ``layer(in_dim, out_dim, activation, combine, rng)``, every one drawing
    its parameters in turn from one ``seed`` stream.

    Hidden layers are ``hidden_dim`` wide, apply ``activation`` and
    concatenate their heads (``combine="concat"``); the last is ``out_dim``
    wide, linear and averages them (``"mean"``), so its output feeds a loss
    directly, as in the usual GNN benchmark setup.
    """
    for arg, dim in (("in_dim", in_dim), ("hidden_dim", hidden_dim), ("out_dim", out_dim)):
        if dim < 1:
            raise ValueError(f"{arg} must be positive, got {dim}")
    rng = make_rng(seed)
    layers: list[GnnLayer] = []
    width = in_dim
    for i in range(num_layers):
        last = i + 1 == num_layers
        layers.append(layer(width, out_dim if last else hidden_dim,
                            "identity" if last else activation, "mean" if last else "concat", rng))
        width = layers[-1].out_dim
    return GnnModel(layers)


class Hop(NamedTuple):
    """One layer's adjacency, one row per destination, and the
    destinations' positions among its sources (``None``: the adjacency is
    square, every source a destination). A sampled
    :class:`~repro.tensor.sampling_graph.Block` is one too."""

    matrix: CSRMatrix
    dst_positions: np.ndarray | None = None


#: ``(gather, reverse)``: ``gather`` turns a layer's input rows into the
#: rows its hop reads (a halo exchange); ``reverse`` folds the gradient
#: over those rows back into the input rows.
Exchange = tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]


def forward_blocks(model: GnnModel, blocks: Sequence[Hop], h0: np.ndarray,
                   counter: FlopCounter = null_counter(), training: bool = True,
                   exchange: Exchange | None = None) -> tuple[np.ndarray, list]:
    """Run the model layer by layer, one hop each; returns the last
    layer's output rows and the per-layer training caches.

    Each layer reads its hop's source rows — ``h0`` for the first, after
    ``exchange``'s gather if any — and computes the rows of its hop's
    matrix, one per destination (``rows=dst_positions``), which feed the
    next layer (the next hop's sources, by the sampling contract).
    """
    if len(blocks) != model.num_layers:
        raise ValueError(f"got {len(blocks)} blocks for {model.num_layers} layers; "
                         "sample with one fan-out per layer")
    caches: list = []
    h = h0
    for layer, block in zip(model.layers, blocks):
        if exchange is not None:
            h = exchange[0](h)
        if h.shape[0] != block.matrix.shape[1]:
            raise ValueError("feature rows do not match the block's source set")
        h, cache = layer.forward(block.matrix, h, counter=counter, training=training,
                                 rows=block.dst_positions)
        caches.append(cache)
    return h, caches


def backward_blocks(model: GnnModel, blocks: Sequence[Hop], caches: list, d_out: np.ndarray,
                    counter: FlopCounter = null_counter(),
                    exchange: Exchange | None = None) -> list[dict[str, np.ndarray]]:
    """Error chaining (Eq. 4/6) through the hops, from the loss
    gradient ``d_out`` over the last hop's rows.

    Each layer's output gradient is the next layer's input gradient,
    row for row (its hop's destinations are the next hop's sources); it
    is masked with :math:`\\sigma'(Z^l)` and runs the layer's backward,
    the first layer's without an input gradient; ``exchange``'s reverse
    then returns the input-feature gradient to the previous layer's rows.
    ``blocks``, the hops the forward ran, is not read: each cache holds
    what its layer's backward needs.
    """
    grads: list = [None] * model.num_layers
    gamma = d_out
    for index in range(model.num_layers - 1, -1, -1):
        layer, cache = model.layers[index], caches[index]
        g = gamma * layer.activation.grad(cache.z)
        gamma, grads[index] = layer.backward(cache, g, counter=counter, input_grad=index > 0)
        if exchange is not None and index > 0:
            gamma = exchange[1](gamma)
    return grads


class Loss(ABC):
    """A differentiable training objective on the output features."""

    @abstractmethod
    def value(self, h_out: np.ndarray, target: np.ndarray) -> float:
        """Scalar loss."""

    @abstractmethod
    def gradient(self, h_out: np.ndarray, target: np.ndarray) -> np.ndarray:
        """:math:`\\nabla_{H^L}\\mathcal{L}` — the backward bootstrap."""

    def evaluate(self, h_out: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
        """``(value, gradient)``, what a training step reads; losses
        whose two share work evaluate them together."""
        return self.value(h_out, target), self.gradient(h_out, target)

"""Per-head oracle for the head-batched layers (test-only).

A multi-head layer must equal ``heads`` single-head layers run one
after another on *its own* parameters (each head's contiguous view of
the stacked storage), combined and then activated. Works for
``AttentionLayer`` and ``DistAttentionLayer`` alike: ``make`` builds one
single-head, identity-activation layer of the right kind.
"""

import numpy as np


def single_heads(layer, make):
    """``layer.heads`` single-head layers sharing ``layer``'s parameters."""
    heads = [make() for _ in range(layer.heads)]
    for i, head in enumerate(heads):
        head.weight = layer.weight[i]
        head.psi_params = {k: v[i] for k, v in layer.psi_params.items()}
    return heads


def combine_heads(layer, outputs):
    """Concatenate or average the per-head outputs, then activate."""
    if layer.combine == "concat":
        return layer.activation.fn(np.concatenate(outputs, axis=1))
    return layer.activation.fn(np.mean(outputs, axis=0))


def head_gradients(layer, g):
    """Each head's ``dL/dZ_h`` given the combined layer's ``dL/dZ``."""
    if layer.combine == "mean":
        return [g / layer.heads] * layer.heads
    return [np.ascontiguousarray(part) for part in np.split(g, layer.heads, axis=1)]


def sum_head_backward(results):
    """Fold per-head ``(dH, grads)`` into ``(dH, {"head{i}.name": grad})``."""
    dh = sum(dh_i for dh_i, _ in results)
    return dh, {
        f"head{i}.{name}": grad
        for i, (_, grads) in enumerate(results)
        for name, grad in grads.items()
    }

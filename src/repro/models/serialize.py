"""Model checkpointing: parameter snapshots.

Parameters are the model's only durable state (activations and
gradients live for one forward/backward round trip), so a checkpoint
is a flat ``layer{i}.{name}`` → array mapping and nothing else: no
pickled code, no architecture metadata beyond a shape check.

:func:`state_dict` / :func:`load_state_dict` are an in-memory snapshot
and an *in-place* restore. Loading copies into the existing parameter
  arrays (``np.copyto``), so every live view of the parameters — layer
  attributes, serving-engine models mid-flight, optimizer slots —
  observes the new values without rebinding. This is the hot-swap
  primitive the serving engine's model reload uses (paired with a
  params-version bump that invalidates its activation cache).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import GnnModel

__all__ = ["state_dict", "load_state_dict"]


def state_dict(model: GnnModel) -> dict[str, np.ndarray]:
    """Flat ``layer{i}.{name}`` → array *copy* of all parameters.

    Copies, not views: the snapshot stays stable while the live model
    keeps training, which is what makes it a checkpoint.
    """
    blobs: dict[str, np.ndarray] = {}
    for index, params in enumerate(model.parameters()):
        for name, value in params.items():
            blobs[f"layer{index}.{name}"] = np.array(value, copy=True)
    return blobs


def load_state_dict(
    model: GnnModel, state: dict[str, np.ndarray]
) -> GnnModel:
    """Restore a :func:`state_dict` snapshot *in place* into ``model``.

    The model must have the same architecture (layer count, parameter
    names, shapes); mismatches raise ``ValueError`` rather than
    silently truncating, and they raise before any parameter is
    written, so a rejected checkpoint leaves the model untouched (the
    serving engine's reload relies on it). Values are copied into the
    existing parameter arrays, so shared references (including models
    currently serving requests) all see the swap.
    """
    targets = {
        f"layer{index}.{name}": value
        for index, params in enumerate(model.parameters())
        for name, value in params.items()
    }
    if set(state) != set(targets):
        missing = sorted(set(targets) - set(state))
        extra = sorted(set(state) - set(targets))
        raise ValueError(
            f"checkpoint mismatch: missing={missing}, extra={extra}"
        )
    # Validate and convert everything before the first write: a reject
    # must leave the live parameters exactly as they were.
    converted = {}
    for key, value in targets.items():
        stored = np.asarray(state[key])
        if stored.shape != value.shape:
            raise ValueError(
                f"shape mismatch for {key}: {stored.shape} vs {value.shape}"
            )
        try:
            converted[key] = stored.astype(value.dtype)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"cannot cast {key} from {stored.dtype} to {value.dtype}"
            ) from exc
    for key, value in targets.items():
        np.copyto(value, converted[key])
    return model



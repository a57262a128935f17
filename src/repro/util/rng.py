"""Deterministic random number generation helpers.

Every stochastic component of the library (graph generators, parameter
initialisation, mini-batch sampling) threads an explicit seed through
:func:`make_rng`, so experiments are reproducible bit-for-bit — the
paper's artifact likewise exposes a ``--seed`` flag on its benchmark
drivers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["glorot", "make_rng"]


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed (or an existing generator) into a Generator.

    Passing an existing generator returns it unchanged, which lets
    call chains share one stream; passing ``None`` yields a fresh
    OS-seeded generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def glorot(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    dtype: np.dtype | type = np.float32,
) -> np.ndarray:
    """Glorot/Xavier-uniform initialisation (fan-in + fan-out scaled)."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, shape).astype(dtype)

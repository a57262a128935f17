"""Floating-point operation accounting.

The simulated-cluster cost model (``repro.runtime.costmodel``) charges
each rank for its local compute by flop count rather than wall-clock
time — on a single host all simulated ranks share the same cores, so
wall-clock per rank is meaningless, while flop counts are exact and
deterministic. Every kernel in ``repro.tensor.kernels`` accepts an
optional :class:`FlopCounter` and reports the flops of the textbook
algorithm it implements.

Occurrence counts (cache hits, allocations, sampler hops) are not kept
here: they are counters in the :func:`repro.obs.metrics` registry.
"""

from __future__ import annotations

__all__ = ["FlopCounter", "null_counter"]


class FlopCounter:
    """Accumulates floating-point operations, grouped by kernel label."""

    __slots__ = ("total", "by_label")

    def __init__(self) -> None:
        self.total: int = 0
        self.by_label: dict[str, int] = {}

    def add(self, flops: int, label: str = "other") -> None:
        """Charge ``flops`` operations to ``label``."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        self.total += int(flops)
        self.by_label[label] = self.by_label.get(label, 0) + int(flops)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlopCounter(total={self.total})"


class _NullCounter(FlopCounter):
    """A counter that discards everything (avoids ``if counter`` checks)."""

    def add(self, flops: int, label: str = "other") -> None:  # noqa: D102
        pass


_NULL = _NullCounter()


def null_counter() -> FlopCounter:
    """The shared no-op counter used when accounting is disabled."""
    return _NULL

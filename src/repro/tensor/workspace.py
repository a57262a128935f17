"""What is left of the kernel scratch pool: kernels allocate their own temporaries."""

__all__ = ["workspace_high_water_bytes"]


def workspace_high_water_bytes() -> int:
    """Always ``0``: nothing is pooled, scratch belongs to the allocator.

    Kept because ``benchmarks/e2e/probes.py`` imports it, so the
    per-layer metric ``workspace.high_water_mb`` reads 0 until a
    benchmark PR retires it.
    """
    return 0

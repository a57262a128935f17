"""Reusable scratch buffers for the kernel hot path.

Steady-state training repeats the same kernel shapes every iteration;
the gathers inside :func:`~repro.tensor.kernels.sddmm_dot`,
:func:`~repro.tensor.kernels._spmm_gather_reduce` and the graph softmax
would otherwise allocate O(nnz·k) temporaries per call. This module
keeps one growing buffer per ``(tag, dtype)`` pair and hands out
shaped views of it. Capacity is tracked flat (element count, not
shape), so the head-batched kernels' wider ``(chunk, heads, k)`` and
``(nnz, heads)`` requests reuse the same backing store as their
single-head counterparts — switching a model between the batched and
per-head paths never thrashes the pool.

Rules of use:

* Workspaces are for *internal* temporaries that do not escape the
  call (or for explicit ``out=`` arguments the caller owns). Kernel
  return values are always freshly allocated unless the caller passes
  ``out=``.
* Pools are thread-local: the SPMD simulator runs ranks on threads and
  each gets its own buffers.
* :func:`set_workspace_reuse` turns pooling off globally (every
  request then returns a fresh array), :func:`clear_workspaces`
  releases the current thread's buffers.

Pool bounding (serving workloads)
---------------------------------
One training run repeats one shape, so monotone growth is free — but
the serving coalescer flushes *mixed-size* union batches through the
same kernels, and every new high-water batch would otherwise pin its
peak buffer forever (per worker thread). :func:`set_workspace_budget`
caps each thread's pooled bytes: when an allocation pushes the pool
over budget, least-recently-used ``(tag, dtype)`` buffers are evicted
(the buffer just allocated is exempt — a request larger than the whole
budget still succeeds, it just leaves nothing else pooled). Eviction
only drops the pool's reference; live views returned earlier keep
their backing array alive, so bounding is always safe, never aliasing.
The budget default comes from ``$REPRO_WORKSPACE_BUDGET_MB``
(:func:`repro.config.workspace_budget_default`: a validated positive
number, unset = unbounded), resolved lazily on first use.

Occupancy is observable: the ``workspace.pool_bytes`` /
``workspace.pool_high_water_bytes`` gauges in
:func:`repro.obs.metrics.metrics` track the calling thread's pool and
the process-wide high water; :func:`workspace_pool_bytes` /
:func:`workspace_high_water_bytes` expose the same numbers directly.

Buffer hits/allocations/evictions are the ``workspace.hit`` /
``workspace.alloc`` / ``workspace.evict`` counters of the same registry.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.config import workspace_budget_default
from repro.obs.metrics import metrics

__all__ = [
    "workspace",
    "set_workspace_reuse",
    "workspace_reuse_enabled",
    "clear_workspaces",
    "set_workspace_budget",
    "workspace_budget",
    "workspace_pool_bytes",
    "workspace_high_water_bytes",
]

_ENABLED = True

_UNRESOLVED = object()
#: Per-thread pooled-byte cap (``None`` = unbounded). Starts
#: unresolved and is materialised from the environment on first use.
_BUDGET: int | None | object = _UNRESOLVED

_HW_LOCK = threading.Lock()
_HIGH_WATER = 0


class _Pool(threading.local):
    def __init__(self) -> None:
        self.buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.last_used: dict[tuple[str, np.dtype], int] = {}
        self.total_bytes = 0
        self.clock = 0


_POOL = _Pool()


def set_workspace_reuse(enabled: bool) -> None:
    """Globally enable/disable scratch-buffer pooling."""
    global _ENABLED
    _ENABLED = bool(enabled)


def workspace_reuse_enabled() -> bool:
    """Whether scratch buffers are currently pooled."""
    return _ENABLED


def clear_workspaces() -> None:
    """Release the calling thread's pooled buffers."""
    _POOL.buffers.clear()
    _POOL.last_used.clear()
    _POOL.total_bytes = 0
    _set_pool_gauge()


def set_workspace_budget(max_bytes: int | None) -> None:
    """Cap each thread's pooled bytes (``None`` = unbounded).

    Takes effect on the *next* allocation; already-pooled buffers are
    not dropped eagerly (call :func:`clear_workspaces` for that).
    """
    global _BUDGET
    if max_bytes is not None:
        max_bytes = int(max_bytes)
        if max_bytes <= 0:
            raise ValueError("workspace budget must be positive (or None)")
    _BUDGET = max_bytes


def workspace_budget() -> int | None:
    """The effective per-thread pool budget in bytes (``None`` = ∞)."""
    global _BUDGET
    if _BUDGET is _UNRESOLVED:
        _BUDGET = workspace_budget_default()
    return _BUDGET  # type: ignore[return-value]


def workspace_pool_bytes() -> int:
    """Bytes currently pooled by the calling thread."""
    return _POOL.total_bytes


def workspace_high_water_bytes() -> int:
    """Largest single-thread pool size seen process-wide."""
    return _HIGH_WATER


def _set_pool_gauge() -> None:
    global _HIGH_WATER
    total = _POOL.total_bytes
    registry = metrics()
    registry.gauge("workspace.pool_bytes").set(total)
    if total > _HIGH_WATER:
        with _HW_LOCK:
            if total > _HIGH_WATER:
                _HIGH_WATER = total
        registry.gauge("workspace.pool_high_water_bytes").set(_HIGH_WATER)


def _evict(exempt: tuple[str, np.dtype], budget: int) -> None:
    """Drop least-recently-used buffers until the pool fits ``budget``.

    ``exempt`` (the key just served) is never evicted: an oversized
    request succeeds and simply leaves nothing else pooled.
    """
    pool = _POOL
    while pool.total_bytes > budget and len(pool.buffers) > 1:
        victim = min(
            (k for k in pool.buffers if k != exempt),
            key=pool.last_used.__getitem__,
            default=None,
        )
        if victim is None:
            break
        pool.total_bytes -= pool.buffers.pop(victim).nbytes
        pool.last_used.pop(victim, None)
        metrics().counter("workspace.evict").inc()


def workspace(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised scratch array of ``shape``/``dtype``.

    Served from the calling thread's pool, keyed by ``(tag, dtype)``;
    the backing buffer grows geometrically and is sliced to size.
    Distinct tags never alias, so two live workspaces are safe as long
    as their tags differ. Contents are undefined.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    if not _ENABLED:
        return np.empty(shape, dtype=dtype)
    pool = _POOL
    key = (tag, dtype)
    pool.clock += 1
    pool.last_used[key] = pool.clock
    buf = pool.buffers.get(key)
    if buf is None or buf.shape[0] < size:
        capacity = size if buf is None else max(size, 2 * buf.shape[0])
        if buf is not None:
            pool.total_bytes -= buf.nbytes
        buf = np.empty(capacity, dtype=dtype)
        pool.buffers[key] = buf
        pool.total_bytes += buf.nbytes
        metrics().counter("workspace.alloc").inc()
        budget = workspace_budget()
        if budget is not None and pool.total_bytes > budget:
            _evict(key, budget)
        _set_pool_gauge()
    else:
        metrics().counter("workspace.hit").inc()
    return buf[:size].reshape(shape)

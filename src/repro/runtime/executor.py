"""SPMD launcher: one thread or one process per simulated rank.

``run_spmd(p, fn, ...)`` builds a fabric, runs ``p`` ranks each
executing ``fn(comm, **kwargs)``, joins them, propagates the first
failure (aborting the fabric so no rank hangs; a deadlock, where no
rank failed on its own, reports every stuck rank), and returns every
rank's return value together with the aggregated traffic statistics.

Two execution backends share this entry point:

``backend="thread"``
    Ranks are Python threads over the in-process
    :class:`~repro.runtime.fabric.ThreadFabric`. NumPy releases the GIL
    inside its kernels, so ranks overlap on real cores, but pure-Python
    stretches serialise — communication *cost* is exact, wall-clock
    scaling is not.

``backend="process"``
    Ranks are spawned processes over the
    :class:`~repro.runtime.process_fabric.ProcessFabric`; large arrays
    move through shared memory. Real wall-clock parallelism, identical
    byte accounting; requires ``fn`` and its kwargs to be picklable
    (module-level functions, not closures).

``backend=None`` consults the ``REPRO_FABRIC_BACKEND`` environment
variable (values ``thread``/``process``), defaulting to ``thread``.
Because the env override is a blanket switch over test suites that
also contain closure-based thread programs, it is best-effort: an
unpicklable program silently stays on threads (the chosen backend is
reported in :attr:`SpmdResult.backend`). Passing ``backend="process"``
explicitly is strict and raises
:class:`~repro.runtime.process_fabric.ProcessBackendError` instead.
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.config import (
    FABRIC_BACKENDS,
    fabric_backend_default,
    trace_enabled_default,
)
from repro.obs.tracer import Tracer, install_tracer
from repro.runtime.communicator import Communicator
from repro.runtime.fabric import (
    FabricTimeoutError,
    ThreadFabric,
    format_deadlock,
)
from repro.runtime.stats import CommStats, RunStats

__all__ = ["run_spmd", "SpmdResult"]


@dataclass
class SpmdResult:
    """Outcome of one SPMD execution."""

    values: list[Any]
    stats: RunStats
    #: Which fabric actually ran: ``"thread"`` or ``"process"``.
    backend: str = "thread"


def _spmd_picklable(fn: Callable[..., Any], kwargs: dict[str, Any]) -> bool:
    """Whether (fn, kwargs) survive the spawn pickling round-trip."""
    try:
        pickle.dumps((fn, kwargs), protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


def _resolve_backend(backend: str | None) -> tuple[str, bool]:
    """Resolve the backend name; returns ``(name, explicit)``."""
    if backend is None:
        return fabric_backend_default(), False
    if backend not in FABRIC_BACKENDS:
        raise ValueError(
            f"unknown fabric backend {backend!r} (from backend argument); "
            f"use one of {FABRIC_BACKENDS}"
        )
    return backend, True


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    timeout: float = 120.0,
    backend: str | None = None,
    **kwargs: Any,
) -> SpmdResult:
    """Execute ``fn(comm, **kwargs)`` on ``size`` simulated ranks.

    Parameters
    ----------
    size:
        Number of ranks.
    fn:
        The rank program; receives its :class:`Communicator` as the
        first argument. All ranks get identical ``kwargs`` (SPMD) —
        rank-dependent behaviour keys off ``comm.rank``. Under the
        process backend, ``fn`` and ``kwargs`` must be picklable.
    timeout:
        Fabric deadlock guard in seconds.
    backend:
        ``"thread"``, ``"process"``, or ``None`` to consult the
        ``REPRO_FABRIC_BACKEND`` environment variable (default thread).

    Returns
    -------
    :class:`SpmdResult` with per-rank return values (rank order),
    traffic statistics, and the backend that actually ran. Each rank's
    :class:`~repro.runtime.stats.CommStats` carries its measured
    ``wall_s`` and the communicator-recorded ``wait_s`` — see
    :meth:`~repro.runtime.stats.RunStats.breakdown` for the per-rank
    compute-vs-wait split.
    """
    if size < 1:
        raise ValueError("need at least one rank")
    resolved, explicit = _resolve_backend(backend)
    if resolved == "process":
        from repro.runtime.process_fabric import run_process_spmd

        if explicit or _spmd_picklable(fn, kwargs):
            return run_process_spmd(size, fn, timeout=timeout, **kwargs)
        # Env-derived override over a closure-based program: stay on
        # threads rather than failing a suite-wide sweep.
        resolved = "thread"
    return _run_thread_spmd(size, fn, timeout=timeout, **kwargs)


def _run_thread_spmd(
    size: int,
    fn: Callable[..., Any],
    timeout: float = 120.0,
    **kwargs: Any,
) -> SpmdResult:
    """The original in-process backend: one thread per rank."""
    fabric = ThreadFabric(size, timeout=timeout)
    all_stats = [CommStats(rank) for rank in range(size)]
    values: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []
    error_lock = threading.Lock()
    tracing = trace_enabled_default()

    def worker(rank: int) -> None:
        comm = Communicator(fabric, rank, all_stats[rank])
        try:
            if tracing:
                # Each rank thread gets its own tracer, installed
                # thread-locally so nested instrumentation (kernels,
                # schedule steps) lands on this rank's timeline; it
                # stays reachable on the rank's CommStats afterwards.
                rank_tracer = Tracer(rank=rank)
                all_stats[rank].tracer = rank_tracer
                install_tracer(rank_tracer)
                start = time.perf_counter()
                with rank_tracer.span(
                    "rank.program", counter=all_stats[rank].flops
                ):
                    values[rank] = fn(comm, **kwargs)
            else:
                start = time.perf_counter()
                values[rank] = fn(comm, **kwargs)
            all_stats[rank].wall_s = time.perf_counter() - start
        except BaseException as exc:  # noqa: BLE001 - propagated below
            with error_lock:
                errors.append((rank, exc))
            fabric.abort()

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"rank-{rank}")
        for rank in range(size)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    if errors:
        errors.sort(key=lambda item: item[0])
        # Prefer the root cause: a rank that failed on its own, not one
        # unblocked by the fabric abort after someone else had failed.
        primary = [e for e in errors if not isinstance(e[1], FabricTimeoutError)]
        if primary:
            rank, exc = primary[0]
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
        # Nobody failed on their own: a deadlock. Whose timer fired
        # first is a race, so report every stuck rank.
        raise RuntimeError(
            format_deadlock(
                [(rank, exc.blocked or str(exc)) for rank, exc in errors]
            )
        ) from errors[0][1]
    return SpmdResult(
        values=values, stats=RunStats(per_rank=all_stats), backend="thread"
    )

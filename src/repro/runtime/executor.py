"""SPMD launcher: one thread per simulated rank.

``run_spmd(p, fn, ...)`` builds a :class:`~repro.runtime.fabric.Fabric`,
runs ``p`` rank threads each executing ``fn(comm, **kwargs)``, joins
them, propagates the first failure (aborting the fabric so no rank
hangs; a deadlock, where no rank failed on its own, reports every stuck
rank), and returns every rank's return value together with the
aggregated traffic statistics.

``fn`` may be any callable — a closure, a lambda, a bound method —
since nothing is serialised to start a rank. The compiled attention sweep,
BLAS and scipy release the GIL, so ranks overlap on real cores inside
them; pure-Python stretches serialise. Communication *cost* is exact
either way: it is counted, not timed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.config import trace_enabled_default
from repro.obs.tracer import Tracer, install_tracer
from repro.runtime.communicator import Communicator
from repro.runtime.fabric import Fabric, FabricTimeoutError, format_deadlock
from repro.runtime.stats import CommStats, RunStats

__all__ = ["run_spmd", "SpmdResult"]


@dataclass
class SpmdResult:
    """Outcome of one SPMD execution."""

    values: list[Any]
    stats: RunStats


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    timeout: float = 120.0,
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
        rank-dependent behaviour keys off ``comm.rank``.
    timeout:
        Fabric deadlock guard in seconds; finite and positive, or
        ``ValueError`` before any rank starts.

    Returns
    -------
    :class:`SpmdResult` with per-rank return values (rank order) and
    traffic statistics. Each rank's
    :class:`~repro.runtime.stats.CommStats` carries its measured
    ``wall_s`` and the communicator-recorded ``wait_s`` — see
    :meth:`~repro.runtime.stats.RunStats.breakdown` for the per-rank
    compute-vs-wait split.
    """
    if size < 1:
        raise ValueError("need at least one rank")
    fabric = Fabric(size, timeout=timeout)
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
    return SpmdResult(values=values, stats=RunStats(per_rank=all_stats))

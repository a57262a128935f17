"""Open-loop load for the serving workloads, from one generator thread.

Independent users do not wait for each other, so arrivals follow a
schedule (Poisson gaps) whatever the server does. Every request is
timed from the instant it was *due*, which charges a stall to the
requests queued behind it, and the generator reports how late it ran.
Writes (feature deltas, reloads) are issued from the same thread at
their own due times, so generator + server worker are the only two
busy threads.

The generator keeps no per-request Python object of its own (the
request's index rides on the future the server already allocates):
tens of thousands of extra tracked objects would lengthen the
interpreter's garbage-collection pauses, which are the latency tail
this load is meant to measure, not to cause.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


def degree_proportional(a) -> np.ndarray:
    """Seed distribution proportional to in-degree (hub-heavy traffic)."""
    degree = np.maximum(np.diff(a.indptr).astype(np.float64), 1.0)
    return degree / degree.sum()


def poisson_schedule(
    rng: np.random.Generator, rate: float, duration: float, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Due times (s from start) and seed vertices for one open-loop run."""
    count = max(1, int(rate * duration))
    due = np.cumsum(rng.exponential(1.0 / rate, size=count))
    # Stretch or shrink the last fraction so the run lasts `duration`.
    due *= duration / due[-1]
    return due, rng.choice(p.shape[0], size=count, p=p)


@dataclass
class LoadResult:
    due: np.ndarray  #: scheduled send times, seconds from start
    latency_ms: np.ndarray  #: from due time; ``inf`` where the request failed
    late_ms: np.ndarray  #: how long after its due time each send happened
    drain_s: float  #: time from the last send until the backlog emptied
    failed: int
    write_ms: dict[str, list[float]] = field(default_factory=dict)

    @property
    def sent(self) -> int:
        return int(self.due.shape[0])

    def windows(self, width: float) -> list[np.ndarray]:
        """Latencies grouped by due time into windows of ``width`` s."""
        count = max(1, int(round(self.due[-1] / width)))
        index = np.minimum((self.due / width).astype(np.int64), count - 1)
        return [self.latency_ms[index == i] for i in range(count)]


def run_open_loop(
    server, due: np.ndarray, nodes: np.ndarray, out_dim: int,
    writes: list[tuple[float, str, object]] = (),
    drain_timeout: float = 30.0,
) -> LoadResult:
    """Send ``nodes[i]`` at ``due[i]``; run ``writes`` at their due times.

    ``writes`` is a time-sorted list of ``(due, kind, callable)``; each
    is executed inline by the generator and its wall time recorded
    under ``kind``. A response that raises, is non-finite or has the
    wrong shape counts as failed and misses every latency limit.
    """
    count = due.shape[0]
    latency = np.full(count, np.nan)
    late = np.empty(count)
    node_list = nodes.tolist()
    write_ms: dict[str, list[float]] = {}
    clock = time.perf_counter
    sleep = time.sleep
    submit = server.submit
    start = clock()

    def on_done(future) -> None:
        elapsed = clock() - start - due[future.index]
        try:
            row = future.result()
            ok = row.shape == (out_dim,) and bool(np.isfinite(row).all())
        except Exception:
            ok = False
        latency[future.index] = elapsed * 1e3 if ok else np.inf

    pending_writes = list(writes)
    next_write = 0
    for i in range(count):
        while (
            next_write < len(pending_writes)
            and pending_writes[next_write][0] <= due[i]
        ):
            w_due, kind, fn = pending_writes[next_write]
            next_write += 1
            delay = start + w_due - clock()
            if delay > 0:
                sleep(delay)
            t0 = clock()
            fn()
            write_ms.setdefault(kind, []).append((clock() - t0) * 1e3)
        target = start + due[i]
        delay = target - clock()
        if delay > 0:
            sleep(delay)
        late[i] = (clock() - target) * 1e3
        future = submit(node_list[i])
        future.index = i
        future.add_done_callback(on_done)
    sent_at = clock()
    deadline = sent_at + drain_timeout
    while np.isnan(latency).any() and clock() < deadline:
        sleep(0.001)
    drain_s = clock() - sent_at
    latency[np.isnan(latency)] = np.inf  # never answered
    return LoadResult(
        due=due, latency_ms=latency, late_ms=late, drain_s=drain_s,
        failed=int(np.isinf(latency).sum()), write_ms=write_ms,
    )


def run_burst(server, nodes: np.ndarray, out_dim: int) -> tuple[float, int]:
    """Submit all of ``nodes`` at once; ``(requests per second, failed)``."""
    t0 = time.perf_counter()
    futures = server.submit_many(nodes)
    failed = 0
    for future in futures:
        try:
            row = future.result(timeout=60.0)
            if row.shape != (out_dim,) or not np.isfinite(row).all():
                failed += 1
        except Exception:
            failed += 1
    return len(futures) / (time.perf_counter() - t0), failed

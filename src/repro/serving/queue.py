"""Admission queue: hand an idle worker whatever is pending, at once.

Online inference traffic arrives one seed vertex at a time, but the
engine's cost is dominated by per-batch fixed work (union sampling,
kernel launch sweeps), so throughput comes from *coalescing* requests
into one union batch. The queue is work-conserving: a worker blocks
only while nothing is pending, then takes up to ``max_batch`` requests
at once. Batches grow only from load — requests that arrive while every
worker is busy — and an idle server never holds a request back.

:meth:`AdmissionQueue.submit` / :meth:`~AdmissionQueue.submit_many` are
the client edge (``serve.admit`` span; one future per seed, resolving
to its output row; a burst enters under one lock hold and one wake-up).
:meth:`~AdmissionQueue.next_batch` is the worker edge: it drains FIFO
and marks each future running, so it can no longer be cancelled; one
cancelled before that is dropped and counted in ``serving.cancelled``.
Queue depth is the ``serving.queue_depth`` gauge, each request's
queueing delay the ``serving.queue_wait_ms`` histogram.
"""

from __future__ import annotations

import numbers
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.obs.metrics import metrics
from repro.obs.tracer import tracer

__all__ = ["AdmissionQueue", "InferenceRequest"]


def _positive_int(name: str, value) -> int:
    """``value`` as an int; a bool or a fraction raises, never truncates."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 1
    ):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass
class InferenceRequest:
    """One queued seed vertex and the future its output row resolves."""

    node: int
    future: Future = field(default_factory=Future)
    t_submit: float = field(default_factory=time.perf_counter)


class AdmissionQueue:
    """Work-conserving FIFO request queue with a batch-size cap.

    ``max_batch`` 64 is large enough that a saturating open-loop load
    amortises sampling across a whole union batch, small enough that
    one flush's working set stays cache-resident.
    """

    def __init__(self, max_batch: int = 64) -> None:
        self.max_batch = _positive_int("max_batch", max_batch)
        self._pending: deque[InferenceRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    def submit(self, node: int) -> Future:
        """Enqueue one seed vertex; returns the future of its output row.

        Raises ``RuntimeError`` after :meth:`close` — a closed queue
        can no longer guarantee the future would ever resolve.
        """
        return self.submit_many([node])[0]

    def submit_many(self, nodes) -> list[Future]:
        """Enqueue a burst under one lock hold and one wake-up, so an idle
        worker sees all of it; one future per node, as :meth:`submit`."""
        requests = [InferenceRequest(node=int(node)) for node in nodes]
        with tracer().span("serve.admit", requests=len(requests)):
            with self._cond:
                if self._closed:
                    raise RuntimeError("admission queue is closed")
                self._pending.extend(requests)
                depth = len(self._pending)
                self._cond.notify()
        registry = metrics()
        registry.counter("serving.requests").inc(len(requests))
        registry.gauge("serving.queue_depth").set(depth)
        return [request.future for request in requests]

    # ------------------------------------------------------------------
    def next_batch(self) -> list[InferenceRequest] | None:
        """Block while the queue is empty and open; drain at once.

        Returns up to ``max_batch`` pending requests in FIFO order, each
        future marked running; requests cancelled while they waited are
        dropped. Returns ``None`` once the queue is closed *and* drained
        — the worker's exit signal.
        """
        registry = metrics()
        batch: list[InferenceRequest] = []
        with self._cond:
            while not batch:
                while not self._pending:
                    if self._closed:
                        return None
                    self._cond.wait()
                while self._pending and len(batch) < self.max_batch:
                    request = self._pending.popleft()
                    if request.future.set_running_or_notify_cancel():
                        batch.append(request)
                    else:
                        registry.counter("serving.cancelled").inc()
            depth = len(self._pending)
            if depth:
                # What is left is another idle worker's batch.
                self._cond.notify()
        registry.gauge("serving.queue_depth").set(depth)
        now = time.perf_counter()
        registry.histogram("serving.queue_wait_ms").observe_many(
            [(now - request.t_submit) * 1e3 for request in batch]
        )
        return batch

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new submissions; wake workers to drain what is left."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

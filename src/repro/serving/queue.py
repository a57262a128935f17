"""Admission queue: collect concurrent requests into coalescable batches.

Online inference traffic arrives one seed vertex at a time, but the
engine's cost is dominated by per-batch fixed work (union sampling,
kernel launch sweeps), so serving throughput comes from *coalescing*:
requests accumulate here until either ``max_batch`` of them are
pending or the oldest has waited ``max_delay_ms`` — the standard
batching-delay tradeoff (TensorFlow Serving's ``batching_parameters``;
the delay bound caps the latency cost of waiting for a fuller batch).

:meth:`AdmissionQueue.submit` is the client edge: it enqueues the seed
under the ``serve.admit`` span and returns a
:class:`concurrent.futures.Future` that resolves to the model's output
row for that vertex. :meth:`next_batch` is the worker edge: it blocks
until a flush is due and drains up to ``max_batch`` requests in FIFO
order.

Queue depth is exported as the ``serving.queue_depth`` gauge and each
request's queueing delay as the ``serving.queue_wait_ms`` histogram.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.obs.metrics import metrics
from repro.obs.tracer import tracer

__all__ = ["AdmissionQueue", "InferenceRequest"]


@dataclass
class InferenceRequest:
    """One queued seed vertex and the future its output row resolves."""

    node: int
    future: Future = field(default_factory=Future)
    t_submit: float = field(default_factory=time.perf_counter)


class AdmissionQueue:
    """FIFO request queue with a max-batch / max-delay flush policy.

    ``max_batch`` 64 is large enough that a saturating open-loop load
    amortises sampling across a whole union batch, small enough that
    one flush's working set stays cache-resident. ``max_delay_ms`` 0
    disables waiting entirely (every flush takes whatever is pending —
    the lowest-latency, lowest-throughput corner).
    """

    def __init__(self, max_batch: int = 64, max_delay_ms: float = 2.0) -> None:
        if (
            isinstance(max_batch, bool)
            or not isinstance(max_batch, numbers.Integral)
            or max_batch < 1
        ):
            raise ValueError(
                f"max_batch must be a positive integer, got {max_batch!r}"
            )
        # A NaN or infinite delay would make next_batch() sleep on a
        # lone request until the queue is closed.
        if not (math.isfinite(max_delay_ms) and max_delay_ms >= 0.0):
            raise ValueError(
                "max_delay_ms must be a finite, non-negative number of "
                f"milliseconds, got {max_delay_ms!r}"
            )
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_ms) / 1e3
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
        request = InferenceRequest(node=int(node))
        with tracer().span("serve.admit", node=int(node)):
            with self._cond:
                if self._closed:
                    raise RuntimeError("admission queue is closed")
                self._pending.append(request)
                depth = len(self._pending)
                self._cond.notify()
        registry = metrics()
        registry.counter("serving.requests").inc()
        registry.gauge("serving.queue_depth").set(depth)
        return request.future

    # ------------------------------------------------------------------
    def next_batch(self) -> list[InferenceRequest] | None:
        """Block until a flush is due; drain up to ``max_batch`` requests.

        A flush is due when ``max_batch`` requests are pending or the
        oldest has aged past the delay bound. Returns ``None`` once the
        queue is closed *and* drained — the worker's exit signal.
        """
        with self._cond:
            while True:
                if self._pending:
                    if len(self._pending) >= self.max_batch:
                        return self._drain()
                    wait = (
                        self._pending[0].t_submit
                        + self.max_delay_s
                        - time.perf_counter()
                    )
                    if wait <= 0.0 or self._closed:
                        return self._drain()
                    self._cond.wait(timeout=wait)
                elif self._closed:
                    return None
                else:
                    self._cond.wait()

    def _drain(self) -> list[InferenceRequest]:
        batch = [
            self._pending.popleft()
            for _ in range(min(self.max_batch, len(self._pending)))
        ]
        metrics().gauge("serving.queue_depth").set(len(self._pending))
        now = time.perf_counter()
        waits = metrics().histogram("serving.queue_wait_ms")
        for request in batch:
            waits.observe((now - request.t_submit) * 1e3)
        return batch

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new submissions; wake workers to drain what is left."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

"""Online inference serving: coalescing, ego-batching, caching.

Training amortises kernel-launch and sampling overheads across large
planned batches; online inference gets neither for free — requests
arrive one seed vertex at a time. This package recovers the batch
economics at serving time with three composable levers:

* **Request coalescing** (:mod:`repro.serving.queue`) — an idle worker
  takes every pending request at once, up to ``max_batch``.
* **Union ego-batching** (:mod:`repro.serving.batcher`) — each flush
  samples *one* union ego-subgraph for all queued seeds and runs a
  single fused forward; overlapping neighbourhoods (power-law hubs)
  are computed once per flush.
* **Activation caching** (:mod:`repro.serving.cache`) — hot nodes'
  hidden activations persist across flushes in a one-live-version LRU;
  cache hits truncate sampling depth.

:mod:`repro.serving.engine` ties them together behind
:class:`ServingEngine` (consistent snapshots, hot reload, graph and
feature deltas) and :class:`ServingServer` (worker threads and
futures). Latency and throughput are measured by the ``serve_openloop``
and ``serve_churn`` workloads of ``benchmarks/e2e/run.py``.
"""

from repro.serving.batcher import coalesce, compute_union_rows, flush_batch
from repro.serving.cache import ActivationCache
from repro.serving.engine import ServingEngine, ServingServer
from repro.serving.queue import AdmissionQueue, InferenceRequest

__all__ = [
    "ActivationCache",
    "AdmissionQueue",
    "InferenceRequest",
    "ServingEngine",
    "ServingServer",
    "coalesce",
    "compute_union_rows",
    "flush_batch",
]

"""Observability: span tracing, metrics, and Perfetto export.

The runtime's accounting islands — :class:`~repro.util.counters.FlopCounter`
and the per-rank :class:`~repro.runtime.stats.CommStats` — answer *how
much work and traffic*; this package holds everything else a run
records about itself. Nested timed spans over every execution layer
(kernel sweeps, IR ops, schedule steps, a rank's sends and waits,
epochs and batches), exported as Chrome trace-event JSON that Perfetto
renders as one timeline track per rank; and the one
counter/gauge/histogram registry (:func:`metrics`) every occurrence
count in the library goes to — cache hits, plan-memo hits, sampler
hops, the serving histograms — so ``metrics().snapshot()`` is the one
dump.

Tracing is off by default and costs nothing when off: the accessor
:func:`~repro.obs.tracer.tracer` returns a shared null tracer whose
``span()`` is a no-op (mirroring
:func:`~repro.util.counters.null_counter`). Enable it per run with
``REPRO_TRACE=1`` (see :func:`repro.config.trace_enabled_default`)
or install a :class:`~repro.obs.tracer.Tracer` explicitly.
"""

from repro.obs.export import (
    diff_sends,
    format_top_spans,
    profile_spans,
    to_chrome_trace,
    write_chrome_trace,
    write_profile_csv,
    write_profile_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    install_global_tracer,
    install_tracer,
    null_tracer,
    traced,
    tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "install_global_tracer",
    "install_tracer",
    "null_tracer",
    "traced",
    "tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "diff_sends",
    "format_top_spans",
    "profile_spans",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_profile_csv",
    "write_profile_json",
]

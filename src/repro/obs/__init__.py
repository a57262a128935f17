"""Observability: span tracing, metrics, and Perfetto export.

The runtime's accounting islands — :class:`~repro.util.counters.FlopCounter`,
:class:`~repro.util.counters.EventCounter`, the per-rank
:class:`~repro.runtime.stats.CommStats` and the bounded
:class:`~repro.runtime.trace.CommTrace` — answer *how much*; this
package answers *when* and *where*: nested timed spans over every
execution layer (kernel sweeps, IR ops, schedule steps, epochs and
batches), exported as Chrome trace-event JSON that Perfetto renders as
one timeline track per rank, plus a counter/gauge/histogram registry
with exact quantiles.

Tracing is off by default and costs nothing when off: the accessor
:func:`~repro.obs.tracer.tracer` returns a shared null tracer whose
``span()`` is a no-op (mirroring
:func:`~repro.util.counters.null_counter`). Enable it per run with
``REPRO_TRACE=1`` (see :func:`repro.config.trace_enabled_default`)
or install a :class:`~repro.obs.tracer.Tracer` explicitly.
"""

from repro.obs.export import (
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
    "format_top_spans",
    "profile_spans",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_profile_csv",
    "write_profile_json",
]

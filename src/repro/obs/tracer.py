"""Nested timed spans with a zero-overhead null fast path.

A :class:`Tracer` records :class:`Span` intervals — name, wall-clock
``[t0, t1)``, nesting depth, free-form attributes, and the
:class:`~repro.util.counters.FlopCounter` and registry-counter deltas
that accrued inside the interval — so a run can be replayed as a timeline
(:mod:`repro.obs.export`) instead of a pile of totals.

Design rules, mirrored from :func:`repro.util.counters.null_counter`:

* **Disabled is free.** The process-global accessor :func:`tracer`
  returns a shared :class:`_NullTracer` unless one was installed;
  its ``span()`` hands back one shared no-op context manager, so
  instrumentation sites cost one attribute lookup and one call.
  No instrumented code ever checks an ``if tracing:`` flag.
* **One tracer per rank.** SPMD rank programs get their own
  :class:`Tracer`, installed thread-locally by the executor, and the
  driver finds the instance on :attr:`CommStats.tracer
  <repro.runtime.stats.CommStats>` afterwards. :class:`Tracer` and
  :class:`Span` are plain picklable objects; the thread-local registry
  lives at module level, not on the tracer.
* **Timestamps are absolute** ``time.perf_counter()`` readings, one
  clock for every rank thread and the driver; the exporter normalises
  to the run's earliest span.

Run-wide tracing is a deployment setting: ``REPRO_TRACE``, read at
call time by :func:`repro.config.trace_enabled_default`.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any

from repro.obs.metrics import metrics
from repro.util.counters import FlopCounter

__all__ = [
    "Span",
    "Tracer",
    "install_global_tracer",
    "install_tracer",
    "null_tracer",
    "traced",
    "tracer",
]


class Span:
    """One closed timed interval recorded by a :class:`Tracer`.

    ``flops`` is the delta of the :class:`FlopCounter` passed to
    :meth:`Tracer.span` (0 when none was); ``events`` is the delta of
    ``metrics().increments`` over the interval: every registry counter
    increment any thread made between the two boundaries. Both are
    *inclusive* of child spans — the exporter derives exclusive
    ("self") figures from the nesting.
    """

    __slots__ = ("name", "t0", "t1", "depth", "attrs", "flops", "events")

    def __init__(
        self,
        name: str,
        t0: float,
        t1: float,
        depth: int = 0,
        attrs: dict[str, Any] | None = None,
        flops: int = 0,
        events: int = 0,
    ) -> None:
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.depth = depth
        self.attrs = attrs or {}
        self.flops = flops
        self.events = events

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    def __getstate__(self):
        return (self.name, self.t0, self.t1, self.depth, self.attrs,
                self.flops, self.events)

    def __setstate__(self, state):
        (self.name, self.t0, self.t1, self.depth, self.attrs,
         self.flops, self.events) = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms, "
            f"depth={self.depth}, flops={self.flops})"
        )


class _SpanHandle:
    """Context manager for one in-flight span (one per ``span()`` call)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_counter",
                 "_t0", "_flops0", "_events0", "_depth")

    def __init__(self, tracer: "Tracer", name: str,
                 counter: FlopCounter | None, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._counter = counter
        self._t0 = 0.0
        self._flops0 = 0
        self._events0 = 0
        self._depth = 0

    def __enter__(self) -> "_SpanHandle":
        t = self._tracer
        self._depth = t._depth
        t._depth += 1
        t._open.append(self)
        if self._counter is not None:
            self._flops0 = self._counter.total
        self._events0 = metrics().increments
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        t = self._tracer
        t._depth -= 1
        t._open.pop()
        flops = 0
        if self._counter is not None:
            flops = self._counter.total - self._flops0
        t.spans.append(Span(
            self._name, self._t0, t1, self._depth, self._attrs,
            flops, metrics().increments - self._events0,
        ))
        return False

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered after the span opened."""
        self._attrs.update(attrs)


class Tracer:
    """Collects the spans of one rank (or of the driver).

    Plain picklable state; a rank's tracer is left for the driver on
    its :class:`~repro.runtime.stats.CommStats`.
    """

    #: Class-level flag: ``tracer().enabled`` distinguishes a live
    #: tracer from the null one without an isinstance check.
    enabled = True

    __slots__ = ("rank", "spans", "_depth", "_open")

    def __init__(self, rank: int = 0) -> None:
        self.rank = rank
        self.spans: list[Span] = []
        self._depth = 0
        self._open: list[_SpanHandle] = []

    def span(self, name: str, counter: FlopCounter | None = None,
             **attrs: Any) -> _SpanHandle:
        """Open a timed span: ``with tracer().span("spmm", heads=4): ...``

        Pass the kernel's :class:`FlopCounter` as ``counter`` to record
        the flop delta accrued inside the interval.
        """
        return _SpanHandle(self, name, counter, attrs)

    def add_slice(self, name: str, t0: float, t1: float,
                  **attrs: Any) -> None:
        """Record an already-measured interval (e.g. a blocked wait).

        Timestamps are absolute ``time.perf_counter()`` readings; the
        slice is assigned one nesting level below whatever span is open
        around the call site (``_depth`` counts open spans, so it is
        already the innermost open span's depth + 1).
        """
        self.spans.append(Span(name, t0, t1, self._depth, attrs))

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op if none).

        Lets a function annotated by an enclosing span record facts it
        only learns mid-body (e.g. the ``backend=`` a kernel resolves
        after its span opened).
        """
        if self._open:
            self._open[-1].annotate(**attrs)

    def __getstate__(self):
        return (self.rank, self.spans, self._depth)

    def __setstate__(self, state):
        self.rank, self.spans, self._depth = state
        self._open = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer(rank={self.rank}, spans={len(self.spans)})"


class _NullSpanHandle:
    """The shared do-nothing span (disabled-tracing fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpanHandle()


class _NullTracer(Tracer):
    """A tracer that records nothing (avoids ``if tracing`` checks)."""

    enabled = False

    def span(self, name: str, counter: FlopCounter | None = None,
             **attrs: Any) -> _NullSpanHandle:  # type: ignore[override]
        return _NULL_SPAN

    def add_slice(self, name: str, t0: float, t1: float,
                  **attrs: Any) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL = _NullTracer()


def null_tracer() -> Tracer:
    """The shared no-op tracer used when tracing is disabled."""
    return _NULL


# ----------------------------------------------------------------------
# Active-tracer registry.
#
# Thread-local first, process-global second: every rank is a thread of
# this process and installs its own tracer thread-locally; a driver
# that wants kernels on whatever thread they run installs globally. The
# registry lives at module level so Tracer itself stays picklable.
# ----------------------------------------------------------------------
_TLS = threading.local()
_GLOBAL: Tracer = _NULL


def tracer() -> Tracer:
    """The active tracer: thread-local, else process-global, else null."""
    t = getattr(_TLS, "tracer", None)
    return t if t is not None else _GLOBAL


def install_tracer(t: Tracer | None) -> None:
    """Install ``t`` as this thread's tracer (``None`` uninstalls)."""
    _TLS.tracer = t


def install_global_tracer(t: Tracer | None) -> None:
    """Install ``t`` process-globally (``None`` restores the null one)."""
    global _GLOBAL
    _GLOBAL = t if t is not None else _NULL


def traced(name: str):
    """Decorator spanning a function under the active tracer.

    When tracing is off the wrapper is one call plus one attribute
    check on top of the function — unmeasurable at bench-gate
    resolution. When on, the span records the call's wall interval and
    the flop delta of its ``counter=`` keyword, if the caller passed
    one; the body can attach more attributes via
    :meth:`Tracer.annotate`.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = tracer()
            if not t.enabled:
                return fn(*args, **kwargs)
            with t.span(name, counter=kwargs.get("counter")):
                return fn(*args, **kwargs)

        return wrapper

    return deco

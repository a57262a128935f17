"""Counter/gauge/histogram registry with exact quantiles, in bounded memory.

The third leg of the observability stack (spans show *when*, the
registry shows *how the distribution looks*). A histogram keeps its
first :data:`RESERVOIR_CAP` observations as they are — exact
:func:`numpy.quantile` over the raw samples, not bucket interpolation —
because the populations read here (per-batch latencies, per-epoch
losses, one benchmark window) are thousands of points and the serving
harness asserts on quantiles bit-for-bit. A process that never resets
(a week-long ``ServingServer``) goes past the cap; from there the
retained observations are a uniform sample of everything seen, so
quantiles become estimates while ``count``, ``sum``, ``mean``, ``min``
and ``max`` stay exact and memory stays flat.

All three metric types share the registry's flat ``snapshot()`` form so
one JSON dump carries the whole process state::

    from repro.obs import metrics
    metrics().counter("batches").inc()
    metrics().histogram("batch_ms").observe(3.2)
    print(metrics().snapshot())
"""

from __future__ import annotations

import math
import random
import threading

import numpy as np

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "metrics",
    "RESERVOIR_CAP",
]

#: Observations a histogram retains (~4 MB of floats). Arrivals just
#: past the cap are the likeliest to be taken (probability ``cap /
#: arrivals``, a generator draw each), so it sits above a whole
#: benchmark run's ~10^5 unreset observations, not in their middle.
RESERVOIR_CAP = 1 << 17


class Counter:
    """A monotonically increasing count, exact under threads.

    Every increment is also added to the owning registry's
    :attr:`MetricsRegistry.increments`, under the registry's lock; a
    counter built on its own owns a private registry.
    """

    __slots__ = ("name", "value", "_registry")

    def __init__(
        self, name: str, registry: "MetricsRegistry | None" = None
    ) -> None:
        self.name = name
        self.value = 0
        self._registry = registry if registry is not None else MetricsRegistry()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        registry = self._registry
        # acquire/release, not ``with``: half the cost on CPython 3.11,
        # and this runs two to four times per kernel call.
        registry._lock.acquire()
        try:
            self.value += amount
            registry.increments += amount
        finally:
            registry._lock.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Quantiles over the retained observations; exact moments.

    Past :data:`RESERVOIR_CAP` observations ``values`` is a uniform
    reservoir (Vitter's Algorithm L: one generator draw per
    *replacement*, one integer comparison per observation passed over),
    seeded so a run is reproducible; the moments of the observations it
    no longer holds are kept beside it.
    """

    __slots__ = ("name", "values", "_lock", "_rng", "_w", "_next",
                 "_out_count", "_out_sum", "_out_min", "_out_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []
        # Moments of the observations ``values`` does not hold: those
        # passed over and those evicted, one per arrival past the cap.
        self._out_count = 0
        self._out_sum = 0.0
        self._out_min = math.inf
        self._out_max = -math.inf
        self._lock = threading.Lock()
        self._rng = random.Random(0)
        # Strictly below 1 so log1p(-w) is finite whatever the draw.
        self._w = math.nextafter(1.0, 0.0)
        self._next = 0
        self._skip()

    def _skip(self) -> None:
        """Algorithm L: which arrival past the cap is taken next."""
        self._w *= math.exp(-self._rng.expovariate(1.0) / RESERVOIR_CAP)
        self._next += 1 + int(
            self._rng.expovariate(1.0) / -math.log1p(-self._w)
        )

    def observe(self, value: float) -> None:
        value = float(value)
        if len(self.values) < RESERVOIR_CAP:
            # list.append is atomic, so concurrent observers need no
            # lock here (racing at the boundary they may overshoot the
            # cap by an entry each, which stays retained).
            self.values.append(value)
            return
        with self._lock:
            self._out_count += 1
            if self._out_count == self._next:
                slot = self._rng.randrange(RESERVOIR_CAP)
                value, self.values[slot] = self.values[slot], value
                self._skip()
            # ``value`` is now one the reservoir does not hold.
            self._out_sum += value
            self._out_min = min(self._out_min, value)
            self._out_max = max(self._out_max, value)

    def observe_many(self, values) -> None:
        """:meth:`observe` each of ``values``: one ``extend`` below the cap."""
        values = [float(value) for value in values]
        room = max(RESERVOIR_CAP - len(self.values), 0)
        self.values.extend(values[:room])
        for value in values[room:]:
            self.observe(value)

    @property
    def count(self) -> int:
        return len(self.values) + self._out_count

    @property
    def sum(self) -> float:
        return float(sum(self.values)) + self._out_sum

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else 0.0

    def quantile(self, q: float) -> float:
        """``q``-quantile of the retained observations (linear
        interpolation between samples) — exact up to the cap.

        An empty series has no quantiles: the result is ``NaN`` (never
        a fabricated 0.0, which would read as a real latency) and the
        ``histogram.empty_quantile`` warning counter in the process
        registry is bumped so dashboards can flag the misread.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.values:
            metrics().counter("histogram.empty_quantile").inc()
            return float("nan")
        return float(np.quantile(np.asarray(self.values), q))

    def percentiles(self, *ps: float) -> dict[str, float]:
        """Named percentile dict, e.g. ``percentiles(50, 99)``."""
        out = {}
        for p in ps:
            key = f"p{p:g}".replace(".", "_")
            out[key] = self.quantile(p / 100.0)
        return out

    def summary(self) -> dict[str, float]:
        """count/sum/mean/min/max plus the p50/p95/p99 trio."""
        if not self.values:
            nan = float("nan")
            return {"count": 0, "sum": 0.0, "mean": nan,
                    "min": nan, "max": nan, "p50": nan, "p95": nan,
                    "p99": nan}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": min(min(self.values), self._out_min),
            "max": max(max(self.values), self._out_max),
            **self.percentiles(50, 95, 99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count})"


class MetricsRegistry:
    """Name-keyed home for counters, gauges and histograms.

    Accessors are get-or-create and type-strict: asking for an
    existing name as a different metric type raises rather than
    silently shadowing. Creation and :meth:`Counter.inc` are exact
    under threads; :meth:`reset` may run beside them, so callers look a
    metric up per use instead of holding one across calls (an object
    kept over a reset counts into nothing the registry can see).
    """

    __slots__ = ("_metrics", "_lock", "increments")

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()
        #: Sum of every :meth:`Counter.inc` made through this registry.
        #: It survives :meth:`reset`, so the delta a span reads at its
        #: two boundaries is never negative.
        self.increments = 0

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, cls(name, *args))
        if type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, self)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def counters(self) -> dict[str, float]:
        """The counters alone, by name."""
        with self._lock:
            return {
                name: metric.value
                for name, metric in self._metrics.items()
                if type(metric) is Counter
            }

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """Flat point-in-time view: scalars for counters/gauges,
        the :meth:`Histogram.summary` dict for histograms."""
        out: dict[str, float | dict[str, float]] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY

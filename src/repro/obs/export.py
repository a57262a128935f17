"""Span exporters: Chrome trace-event JSON (Perfetto) + profile tables.

:func:`to_chrome_trace` turns the spans of one or more per-rank
:class:`~repro.obs.tracer.Tracer` instances into the Chrome trace-event
format (the JSON Perfetto's https://ui.perfetto.dev loads directly):
one ``pid`` per rank — so ranks render as separate tracks — with
``B``/``E`` begin/end pairs whose microsecond timestamps are normalised
to the run's earliest span. Wait slices recorded by the communicator
(:meth:`CommStats.record_wait <repro.runtime.stats.CommStats>`) arrive
as ordinary spans named ``"wait"`` and render as explicit slices inside
whatever schedule step they stalled.

Emission guarantees, which the test suite asserts:

* ``ts`` values are non-decreasing over the whole event list;
* every ``B`` has a matching ``E`` on the same ``(pid, tid)`` with the
  same name, properly nested;
* intervals recorded out-of-band (waits) that straddle a span boundary
  by clock jitter are clamped into their parent rather than emitted as
  crossed pairs.

:func:`profile_spans` is the flat view: per-name count, inclusive and
exclusive (self) seconds, and the flop and registry-counter deltas
captured at span boundaries — :func:`format_top_spans` renders it as
the CLI's top-spans table, :func:`write_profile_json` /
:func:`write_profile_csv` persist it. :func:`diff_sends` compares two
ranks' ``"send"`` slices, the tool for a tag-mismatch hang.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.tracer import Span, Tracer

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "profile_spans",
    "format_top_spans",
    "write_profile_json",
    "write_profile_csv",
    "diff_sends",
]


def _ordered(spans: Iterable[Span]) -> list[Span]:
    """Chronological order with containing spans before contained ones."""
    return sorted(spans, key=lambda s: (s.t0, -s.t1))


def _rank_events(spans: list[Span], t_min: float, pid: int) -> list[dict]:
    """Emit one rank's B/E stream via an explicit nesting stack.

    The walk pops (emitting ``E``) every span that ends at or before
    the next span's start, and clamps a span's end into its parent's —
    so the stream is sorted and well nested even when an out-of-band
    slice overhangs its enclosing span by clock jitter.
    """

    def us(t: float) -> float:
        return round((t - t_min) * 1e6, 3)

    events: list[dict] = []
    stack: list[tuple[Span, float]] = []  # (span, clamped end)

    def pop_one() -> None:
        span, end = stack.pop()
        events.append({
            "name": span.name, "ph": "E", "ts": us(end),
            "pid": pid, "tid": 0,
        })

    for span in _ordered(spans):
        while stack and stack[-1][1] <= span.t0:
            pop_one()
        end = span.t1
        if stack and end > stack[-1][1]:
            end = stack[-1][1]
        args: dict[str, Any] = dict(span.attrs)
        if span.flops:
            args["flops"] = span.flops
        if span.events:
            args["events"] = span.events
        record = {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "B",
            "ts": us(span.t0),
            "pid": pid,
            "tid": 0,
        }
        if args:
            record["args"] = args
        events.append(record)
        stack.append((span, end))
    while stack:
        pop_one()
    return events


def to_chrome_trace(
    tracers: Iterable[Tracer],
    labels: dict[int, str] | None = None,
) -> dict[str, Any]:
    """Chrome trace-event JSON document for a set of per-rank tracers.

    Each tracer becomes one ``pid`` (= its :attr:`Tracer.rank`) so
    Perfetto shows one track per rank; ``labels`` overrides the
    ``process_name`` metadata (default ``"rank <r>"``).
    """
    tracers = [t for t in tracers if t is not None]
    all_spans = [s for t in tracers for s in t.spans]
    t_min = min((s.t0 for s in all_spans), default=0.0)
    labels = labels or {}

    events: list[dict] = []
    for t in sorted(tracers, key=lambda t: t.rank):
        name = labels.get(t.rank, f"rank {t.rank}")
        events.append({
            "name": "process_name", "ph": "M", "ts": 0.0,
            "pid": t.rank, "tid": 0, "args": {"name": name},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "ts": 0.0,
            "pid": t.rank, "tid": 0, "args": {"sort_index": t.rank},
        })
    for t in tracers:
        events.extend(_rank_events(t.spans, t_min, t.rank))
    # Globally non-decreasing ts; the sort is stable, so each rank's
    # B/E discipline (and metadata-first placement at ts 0) survives.
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path,
    tracers: Iterable[Tracer],
    labels: dict[int, str] | None = None,
) -> Path:
    """Write the Perfetto-loadable trace file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(tracers, labels=labels), fh)
    return path


# ----------------------------------------------------------------------
# Flat profile
# ----------------------------------------------------------------------
PROFILE_FIELDS = ("name", "count", "total_s", "self_s", "flops", "events")


def profile_spans(tracers: Iterable[Tracer]) -> list[dict[str, Any]]:
    """Aggregate spans by name across all tracers.

    Returns rows (sorted by inclusive ``total_s``, descending) with
    ``count``, inclusive ``total_s``, exclusive ``self_s`` (inclusive
    minus the time covered by child spans), and the summed
    flop/event-counter deltas. ``total_s`` sums over ranks, so on a
    ``p``-rank run it can legitimately exceed wall-clock.
    """
    rows: dict[str, dict[str, Any]] = {}

    def close(entry: list) -> float:
        span, end, child_t = entry
        duration = max(0.0, end - span.t0)
        row = rows.get(span.name)
        if row is None:
            row = rows[span.name] = {
                "name": span.name, "count": 0, "total_s": 0.0,
                "self_s": 0.0, "flops": 0, "events": 0,
            }
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += max(0.0, duration - child_t)
        row["flops"] += span.flops
        row["events"] += span.events
        return duration

    for t in tracers:
        if t is None:
            continue
        stack: list[list] = []  # [span, clamped end, child seconds]
        for span in _ordered(t.spans):
            while stack and stack[-1][1] <= span.t0:
                duration = close(stack.pop())
                if stack:
                    stack[-1][2] += duration
            end = span.t1
            if stack and end > stack[-1][1]:
                end = stack[-1][1]
            stack.append([span, end, 0.0])
        while stack:
            duration = close(stack.pop())
            if stack:
                stack[-1][2] += duration
    return sorted(rows.values(), key=lambda r: -r["total_s"])


def format_top_spans(rows: list[dict[str, Any]], limit: int = 15) -> str:
    """Fixed-width top-spans table (sorted as given, truncated)."""
    header = (
        f"{'span':<32} {'count':>7} {'total ms':>10} {'self ms':>10} "
        f"{'flops':>14} {'events':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows[:limit]:
        lines.append(
            f"{row['name']:<32} {row['count']:>7} "
            f"{row['total_s'] * 1e3:>10.3f} {row['self_s'] * 1e3:>10.3f} "
            f"{row['flops']:>14} {row['events']:>8}"
        )
    if len(rows) > limit:
        lines.append(f"... and {len(rows) - limit} more span names")
    return "\n".join(lines)


def write_profile_json(
    path: str | Path,
    rows: list[dict[str, Any]],
    extra: dict[str, Any] | None = None,
) -> Path:
    """Persist the profile (plus optional counter/metric blocks)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc: dict[str, Any] = {"spans": rows}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def write_profile_csv(path: str | Path, rows: list[dict[str, Any]]) -> Path:
    """Persist the profile as CSV (one row per span name)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=PROFILE_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in PROFILE_FIELDS})
    return path


def diff_sends(a: Tracer, b: Tracer) -> str:
    """First divergence between two rank tracers' send sequences.

    SPMD collectives keep ranks' *phase sequences* aligned even though
    payload sizes differ; a phase divergence pinpoints a rank taking a
    different code path (the root cause of most tag-mismatch hangs).
    Reads the ``"send"`` slices :meth:`CommStats.record_send
    <repro.runtime.stats.CommStats>` adds under ``$REPRO_TRACE``;
    returns a human-readable report (``"traces agree"`` if none).
    """
    sends_a, sends_b = (
        [s.attrs for s in t.spans if s.name == "send"] for t in (a, b)
    )
    for index, (sa, sb) in enumerate(zip(sends_a, sends_b)):
        if sa["phase"] != sb["phase"]:
            return (
                f"divergence at event {index}: "
                f"rank {a.rank} sent in phase {sa['phase']!r} "
                f"({sa['nbytes']} B) but rank {b.rank} sent in phase "
                f"{sb['phase']!r} ({sb['nbytes']} B)"
            )
    first = min(len(sends_a), len(sends_b))
    for tracer, sends in ((a, sends_a), (b, sends_b)):
        if len(sends) > first:
            extra = sends[first]
            return (
                f"rank {tracer.rank} has extra events from index {first}: "
                f"first extra is #{extra['seq']} {extra['phase']} "
                f"{extra['nbytes']} B"
            )
    return "traces agree"

"""Tests for the observability subsystem (span tracing + metrics).

Covers the tracer's null fast path and env gating, span nesting and
counter deltas, picklability, the metrics registry's exact
quantiles, the Chrome trace-event emission
guarantees Perfetto relies on (sorted timestamps, matched and
well-nested B/E pairs, one pid per rank), the flat profile's
flop-reconciliation against standalone counters, run-level tracing
through the SPMD executor, and the report CLI — including the
traced-vs-untraced bit-identity contract.
"""

import json
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.config import TRACE_ENV_VAR, trace_enabled_default
from repro.graphs import synthetic_classification
from repro.models import build_model
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
from repro.runtime.executor import run_spmd
from repro.runtime.stats import CommStats, RunStats
from repro.tensor.kernels import spmm
from repro.training import SGD, SoftmaxCrossEntropyLoss, Trainer
from repro.util.counters import FlopCounter
from tests import _spmd_programs as programs


@pytest.fixture
def live_tracer():
    """A thread-locally installed tracer, uninstalled afterwards."""
    t = Tracer(rank=0)
    install_tracer(t)
    yield t
    install_tracer(None)


class TestEnvGate:
    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        assert trace_enabled_default() is False

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("ON", True), ("yes", True),
        ("0", False), ("false", False), ("off", False), ("NO", False),
    ])
    def test_boolean_spellings(self, monkeypatch, raw, expected):
        monkeypatch.setenv(TRACE_ENV_VAR, raw)
        assert trace_enabled_default() is expected

    def test_garbage_fails_fast(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "verbose")
        with pytest.raises(ValueError, match=TRACE_ENV_VAR):
            trace_enabled_default()


class TestNullFastPath:
    def test_default_tracer_is_null(self):
        assert tracer() is null_tracer()
        assert tracer().enabled is False

    def test_null_span_is_shared_noop(self):
        t = null_tracer()
        handle = t.span("anything", counter=FlopCounter(), attr=1)
        assert handle is t.span("other")
        with handle as h:
            h.annotate(extra=2)
        t.add_slice("wait", 0.0, 1.0)
        t.annotate(foo=3)
        assert t.spans == []

    def test_traced_decorator_disabled_is_passthrough(self):
        calls = []

        @traced("probe")
        def fn(x, counter=None):
            calls.append(x)
            return x * 2

        assert fn(21) == 42
        assert calls == [21]
        assert null_tracer().spans == []


class TestTracer:
    def test_nesting_depths_and_order(self, live_tracer):
        with live_tracer.span("outer", kind="a"):
            with live_tracer.span("inner"):
                pass
            with live_tracer.span("inner"):
                pass
        names = [(s.name, s.depth) for s in live_tracer.spans]
        # Spans close innermost-first.
        assert names == [("inner", 1), ("inner", 1), ("outer", 0)]
        outer = live_tracer.spans[-1]
        assert outer.attrs == {"kind": "a"}
        assert outer.t1 >= max(s.t1 for s in live_tracer.spans[:-1])

    def test_flop_delta_captured(self, live_tracer):
        counter = FlopCounter()
        with live_tracer.span("work", counter=counter):
            counter.add(123, "k")
        counter.add(999, "outside")
        assert live_tracer.spans[0].flops == 123

    def test_event_delta_captured(self, live_tracer):
        # A span's ``events`` is exactly what the registry's counters
        # took inside it, whichever counters they were.
        metrics().counter("obs_test_outside").inc(2)
        with live_tracer.span("work"):
            metrics().counter("obs_test_probe").inc(7)
            with live_tracer.span("inner"):
                metrics().counter("obs_test_other").inc(3)
        metrics().counter("obs_test_outside").inc(5)
        inner, work = live_tracer.spans
        assert (inner.events, work.events) == (3, 10)

    def test_annotate_hits_innermost_open_span(self, live_tracer):
        with live_tracer.span("outer"):
            with live_tracer.span("inner"):
                live_tracer.annotate(strategy="merge", blocks=4)
        inner = next(s for s in live_tracer.spans if s.name == "inner")
        outer = next(s for s in live_tracer.spans if s.name == "outer")
        assert inner.attrs == {"strategy": "merge", "blocks": 4}
        assert outer.attrs == {}

    def test_annotate_without_open_span_is_noop(self, live_tracer):
        live_tracer.annotate(ignored=True)
        assert live_tracer.spans == []

    def test_add_slice_renders_inside_open_span(self, live_tracer):
        with live_tracer.span("step"):
            live_tracer.add_slice("wait", 1.0, 2.0, phase="fetch")
        wait = next(s for s in live_tracer.spans if s.name == "wait")
        step = next(s for s in live_tracer.spans if s.name == "step")
        assert wait.depth == step.depth + 1
        assert wait.attrs == {"phase": "fetch"}
        assert wait.duration_s == 1.0

    def test_pickle_roundtrip(self, live_tracer):
        with live_tracer.span("a", key="v"):
            pass
        clone = pickle.loads(pickle.dumps(live_tracer))
        assert clone.rank == live_tracer.rank
        assert [(s.name, s.attrs) for s in clone.spans] == [("a", {"key": "v"})]
        # _open is rebuilt: the clone can record fresh spans.
        with clone.span("b"):
            pass
        assert clone.spans[-1].name == "b"

    def test_thread_local_beats_global(self):
        local, global_ = Tracer(rank=1), Tracer(rank=2)
        install_global_tracer(global_)
        try:
            assert tracer() is global_
            install_tracer(local)
            assert tracer() is local
        finally:
            install_tracer(None)
            install_global_tracer(None)
        assert tracer() is null_tracer()

    def test_traced_decorator_records_counter_kwarg(self, live_tracer):
        @traced("probe")
        def fn(counter=None):
            counter.add(50, "x")

        fn(counter=FlopCounter())
        assert live_tracer.spans[0].name == "probe"
        assert live_tracer.spans[0].flops == 50


def _hammer(fn, workers: int) -> None:
    """Run ``fn`` on ``workers`` threads (more than the box has cores)
    that switch every few bytecodes, and see every one of them finish."""
    threads = [threading.Thread(target=fn) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestMetrics:
    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counts_exact_under_rank_threads(self):
        """Get-or-create and ``inc`` from four threads lose nothing: one
        Counter per name, every increment in it and in the total."""
        reg = MetricsRegistry()

        def count():
            for _ in range(50_000):
                reg.counter("fresh").inc()

        _hammer(count, workers=4)
        assert reg.counters() == {"fresh": 200_000}
        assert reg.increments == 200_000

    def test_gauge(self):
        g = Gauge("depth")
        g.set(3.5)
        g.inc()
        g.dec(0.5)
        assert g.value == 4.0

    def test_histogram_exact_quantiles(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.sum == pytest.approx(5050.0)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        # Exact quantiles: np.quantile over the retained observations.
        assert h.quantile(0.5) == np.quantile(np.arange(1.0, 101.0), 0.5)
        pct = h.percentiles(50, 99)
        assert set(pct) == {"p50", "p99"}

    def test_histogram_is_exact_up_to_the_cap(self):
        from repro.obs.metrics import RESERVOIR_CAP

        assert RESERVOIR_CAP >= 1 << 16
        values = np.random.default_rng(0).lognormal(size=RESERVOIR_CAP)
        h = Histogram("lat")
        for v in values:
            h.observe(v)
        assert h.count == len(h.values) == RESERVOIR_CAP
        # The exact oracle: np.quantile over every observation.
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == float(np.quantile(values, q))
        assert h.sum == float(sum(values.tolist()))
        summary = h.summary()
        assert (summary["min"], summary["max"]) == (values.min(), values.max())

    def test_histogram_memory_is_bounded_past_the_cap(self):
        from repro.obs.metrics import RESERVOIR_CAP

        n = 10**6
        # Integer-valued, so the float sum is exact in any order.
        values = np.random.default_rng(1).permutation(n) + 1.0
        h = Histogram("lat")
        for v in values.tolist():
            h.observe(v)
        assert len(h.values) <= RESERVOIR_CAP
        assert h.count == n
        assert h.sum == n * (n + 1) / 2
        assert h.mean == (n + 1) / 2
        summary = h.summary()
        assert (summary["min"], summary["max"]) == (1.0, float(n))
        # Quantiles are now estimates from a uniform sample.
        for q in (0.5, 0.99):
            assert h.quantile(q) == pytest.approx(np.quantile(values, q), rel=0.02)
        # Seeded: a second run retains the same sample.
        again = Histogram("lat")
        for v in values.tolist():
            again.observe(v)
        assert again.values == h.values

    def test_histogram_concurrent_observers_lose_nothing(self, monkeypatch):
        # ``repro.obs.metrics`` the attribute is the accessor function;
        # the module is reachable through ``sys.modules``.
        module = sys.modules["repro.obs.metrics"]
        monkeypatch.setattr(module, "RESERVOIR_CAP", 64)
        h = Histogram("lat")
        workers, each = 8, 5000

        def observe():
            for _ in range(each):
                h.observe(1.0)

        _hammer(observe, workers)
        # A lost update past the cap would show in the exact moments.
        assert h.count == workers * each
        assert h.sum == float(workers * each)
        assert len(h.values) <= 64 + workers

    def test_observe_many_is_a_loop_of_observe(self, monkeypatch):
        """Below the cap, across it and past it: the same retained
        values, count, sum, min and max as one ``observe`` per value."""
        module = sys.modules["repro.obs.metrics"]
        monkeypatch.setattr(module, "RESERVOIR_CAP", 64)
        values = np.random.default_rng(2).lognormal(size=400).tolist()
        many, loop = Histogram("many"), Histogram("loop")
        for chunk in (values[:10], values[10:50], values[50:90], values[90:]):
            many.observe_many(chunk)
            for value in chunk:
                loop.observe(value)
            assert many.values == loop.values
            assert many.count == loop.count and many.sum == loop.sum
            summary, expected = many.summary(), loop.summary()
            assert (summary["min"], summary["max"]) == (
                expected["min"], expected["max"]
            )
        assert len(many.values) == 64 and many.count == 400

    def test_histogram_validates_quantile(self):
        h = Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_histogram_quantile_is_nan_and_counted(self):
        # An empty series must answer NaN (a fabricated 0.0 would read
        # as a real latency) and bump the process-wide warning counter.
        # The registry's counters are monotone, so assert the delta.
        warn = metrics().counter("histogram.empty_quantile")
        before = warn.value
        h = Histogram("lat")
        for q in (0.0, 0.5, 0.99):
            assert np.isnan(h.quantile(q))
        assert warn.value == before + 3
        assert np.isnan(h.percentiles(50)["p50"])
        # A non-empty histogram does not touch the warning counter.
        h.observe(1.0)
        assert h.quantile(0.5) == 1.0
        assert warn.value == before + 4

    def test_registry_type_strict(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError):
            reg.gauge("x")
        assert "x" in reg
        assert "y" not in reg

    def test_registry_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("sends").inc(3)
        reg.gauge("depth").set(2.0)
        reg.histogram("lat").observe(1.0)
        snap = reg.snapshot()
        assert snap["sends"] == 3
        assert snap["depth"] == 2.0
        assert snap["lat"]["count"] == 1
        assert reg.counters() == {"sends": 3}
        reg.reset()
        assert reg.snapshot() == {}
        # The running total spans read is not a metric: it survives, so
        # a span open across a reset still gets a non-negative delta.
        reg.counter("later").inc(2)
        assert reg.increments == 5


class TestOneDump:
    def test_snapshot_holds_every_subsystem(self):
        """A full-batch epoch, a sampled epoch and a serving burst in
        one process: the structure cache, the sampler and the serving
        stack all count into the one registry."""
        from repro.serving import ServingEngine, ServingServer
        from repro.training import MinibatchTrainer

        problem = synthetic_classification(n=60, feature_dim=6, seed=2)
        a, y = problem.adjacency.astype(np.float64), problem.labels
        h = problem.features.astype(np.float64)
        model = build_model("GAT", 6, 8, 4, num_layers=2, seed=5,
                            dtype=np.float64)
        metrics().reset()
        Trainer(model, SoftmaxCrossEntropyLoss(), SGD(0.01)).fit(
            a, h, y, epochs=1
        )
        MinibatchTrainer(
            model, SoftmaxCrossEntropyLoss(), SGD(0.01), fanouts=(2, 2),
            batch_size=16, seed=0,
        ).fit(a, h, y, epochs=1, full_eval=False)
        engine = ServingEngine(model, a, h, fanouts=(2, 2), cache=64, seed=5)
        with ServingServer(engine, max_batch=8) as server:
            for _ in range(2):  # the second burst hits the cache
                for future in server.submit_many(list(range(20))):
                    future.result(timeout=30)
        snap = metrics().snapshot()
        for name in ("pattern.registered", "megakernel.forward",
                     "megakernel.backward",
                     "sampling_graph.hit", "sample.hop",
                     "sample.candidates", "serving.cache.hit",
                     "serving.requests"):
            assert snap[name] > 0, name
        for name in ("serving.queue_wait_ms", "serving.batch_size"):
            assert snap[name]["count"] > 0, name
        json.dumps(snap)  # one exportable document


def _make_spanned_tracer(rank: int) -> Tracer:
    t = Tracer(rank=rank)
    t.spans.extend([
        Span("root", 0.0, 10.0, depth=0),
        Span("child", 1.0, 4.0, depth=1, attrs={"k": 1}, flops=5),
        Span("child", 5.0, 9.0, depth=1),
        # An out-of-band slice overhanging its parent by "jitter":
        Span("wait", 8.5, 10.5, depth=2),
    ])
    return t


def _check_be_discipline(events: list[dict]) -> None:
    """Every B has a matching, properly nested E on its (pid, tid)."""
    stacks: dict[tuple, list[str]] = {}
    for e in events:
        if e["ph"] == "M":
            continue
        stack = stacks.setdefault((e["pid"], e["tid"]), [])
        if e["ph"] == "B":
            stack.append(e["name"])
        else:
            assert e["ph"] == "E"
            assert stack, f"E without open B: {e}"
            assert stack.pop() == e["name"]
    for stack in stacks.values():
        assert stack == []


class TestChromeTrace:
    def test_document_shape_and_ordering(self):
        doc = to_chrome_trace([_make_spanned_tracer(0),
                               _make_spanned_tracer(1)])
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        _check_be_discipline(events)
        assert {e["pid"] for e in events} == {0, 1}

    def test_one_process_track_per_rank(self):
        doc = to_chrome_trace(
            [_make_spanned_tracer(0), _make_spanned_tracer(3)],
            labels={3: "driver"},
        )
        meta = [e for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"]
        assert {(e["pid"], e["args"]["name"]) for e in meta} == {
            (0, "rank 0"), (3, "driver"),
        }

    def test_overhanging_slice_is_clamped_not_crossed(self):
        doc = to_chrome_trace([_make_spanned_tracer(0)])
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        _check_be_discipline(events)
        # The wait slice starts inside the second child span [5, 9], so
        # it is clamped to that parent's end (9.0) rather than emitted
        # as a crossed pair running to its raw 10.5 end.
        wait_end = [e for e in events
                    if e["name"] == "wait" and e["ph"] == "E"]
        assert wait_end[0]["ts"] == pytest.approx(9.0 * 1e6)

    def test_args_carry_attrs_and_flops(self):
        doc = to_chrome_trace([_make_spanned_tracer(0)])
        begin = [e for e in doc["traceEvents"]
                 if e["ph"] == "B" and e["name"] == "child"]
        assert begin[0]["args"] == {"k": 1, "flops": 5}
        assert begin[0]["cat"] == "child"

    def test_none_tracers_skipped(self):
        doc = to_chrome_trace([None, _make_spanned_tracer(2)])
        assert {e["pid"] for e in doc["traceEvents"]} == {2}

    def test_written_file_is_valid_json(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "trace.json", [_make_spanned_tracer(0)]
        )
        with open(path) as fh:
            doc = json.load(fh)
        assert "traceEvents" in doc


class TestProfile:
    def test_self_vs_total_seconds(self):
        rows = profile_spans([_make_spanned_tracer(0)])
        by_name = {r["name"]: r for r in rows}
        root = by_name["root"]
        assert root["count"] == 1
        assert root["total_s"] == pytest.approx(10.0)
        # Children cover [1,4] + [5,9] = 7s of the root's 10s.
        assert root["self_s"] == pytest.approx(3.0)
        assert by_name["child"]["count"] == 2
        assert by_name["child"]["flops"] == 5
        # The overhanging wait slice is clamped into its parent child
        # span, so it contributes [8.5, 9.0] rather than its raw 2.0s.
        assert by_name["wait"]["total_s"] == pytest.approx(0.5)
        # Sorted by inclusive time, descending.
        assert rows[0]["name"] == "root"

    def test_format_top_spans_truncates(self):
        rows = profile_spans([_make_spanned_tracer(0)])
        table = format_top_spans(rows, limit=1)
        assert "root" in table
        assert "more span names" in table

    def test_writers(self, tmp_path):
        rows = profile_spans([_make_spanned_tracer(0)])
        jpath = write_profile_json(tmp_path / "p.json", rows,
                                   extra={"case": "t"})
        cpath = write_profile_csv(tmp_path / "p.csv", rows)
        doc = json.loads(jpath.read_text())
        assert doc["case"] == "t"
        assert doc["spans"][0]["name"] == "root"
        header = cpath.read_text().splitlines()[0]
        assert header == "name,count,total_s,self_s,flops,events"

    def test_kernel_flop_deltas_match_standalone_counter(self):
        """Span-boundary FlopCounter deltas = a standalone counter run."""
        from repro.graphs import erdos_renyi
        from repro.graphs.prep import prepare_adjacency

        rng = np.random.default_rng(0)
        n, k = 64, 8
        a = prepare_adjacency(erdos_renyi(n, 4 * n, seed=0))
        h = rng.normal(size=(n, k))

        standalone = FlopCounter()
        spmm(a, h, counter=standalone)

        t = Tracer(rank=0)
        install_tracer(t)
        try:
            traced_counter = FlopCounter()
            spmm(a, h, counter=traced_counter)
        finally:
            install_tracer(None)
        assert traced_counter.total == standalone.total
        spans = [s for s in t.spans if s.name == "kernel.spmm"]
        assert len(spans) == 1
        assert spans[0].flops == standalone.total


class TestRunLevelTracing:
    def test_thread_executor_installs_per_rank_tracers(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        result = run_spmd(2, programs.traced_span_work, timeout=30)
        # At least child.step; the collective may add wait slices.
        assert all(v >= 1 for v in result.values)
        for rank, stats in enumerate(result.stats.per_rank):
            t = stats.tracer
            assert t is not None and t.rank == rank
            names = [s.name for s in t.spans]
            assert "child.step" in names
            assert names[-1] == "rank.program"

    def test_disabled_run_carries_no_tracer(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        result = run_spmd(2, programs.traced_span_work, timeout=30)
        assert result.values == [0, 0]
        assert all(s.tracer is None for s in result.stats.per_rank)

    def test_wait_slices_land_on_rank_timeline(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        result = run_spmd(2, programs.waity_pingpong, timeout=30,
                          sleep_s=0.05)
        t = result.stats.per_rank[0].tracer
        waits = [s for s in t.spans if s.name == "wait"]
        assert waits, "blocked recv should record a wait slice"
        assert waits[0].attrs["phase"] == "stall"
        assert waits[0].duration_s >= 0.02
        assert result.stats.per_rank[0].wait_s == pytest.approx(
            sum(w.duration_s for w in waits), rel=1e-6
        )

    def test_record_wait_slice_matches_charged_seconds(self):
        stats = CommStats(rank=0)
        stats.tracer = Tracer(rank=0)
        stats.set_phase("fetch")
        stats.record_wait(0.25)
        slice_ = stats.tracer.spans[0]
        assert slice_.name == "wait"
        assert slice_.attrs == {"phase": "fetch"}
        assert slice_.duration_s == pytest.approx(0.25, rel=1e-6)


class TestRunStatsWaitSummary:
    def _stats(self, rank, wall, waits):
        s = CommStats(rank=rank)
        s.wall_s = wall
        for phase, seconds in waits:
            s.set_phase(phase)
            s.record_wait(seconds)
        return s

    def test_summary_wait_columns(self):
        run = RunStats(per_rank=[
            self._stats(0, 2.0, [("alpha", 0.5), ("beta", 0.25)]),
            self._stats(1, 4.0, [("alpha", 1.0)]),
        ])
        summary = run.summary()
        assert summary["total_wait_s"] == pytest.approx(1.75)
        assert summary["wait_fraction"] == pytest.approx(1.0 / 4.0)
        assert summary["max_wait_alpha_s"] == pytest.approx(1.0)
        assert summary["max_wait_beta_s"] == pytest.approx(0.25)

    def test_wait_fraction_zero_without_wall(self):
        run = RunStats(per_rank=[self._stats(0, 0.0, [("a", 1.0)])])
        assert run.wait_fraction == 0.0


class TestBitIdentity:
    def test_traced_run_is_bit_identical_to_untraced(self):
        problem = synthetic_classification(n=40, feature_dim=6, seed=2)
        h = problem.features.astype(np.float64)

        def run() -> list[float]:
            model = build_model("AGNN", 6, 8, 4, num_layers=2, seed=5,
                                dtype=np.float64)
            trainer = Trainer(
                model, SoftmaxCrossEntropyLoss(problem.train_mask),
                SGD(0.01),
            )
            result = trainer.fit(problem.adjacency, h, problem.labels,
                                 epochs=3)
            return result.losses

        untraced = run()
        t = Tracer(rank=0)
        install_tracer(t)
        try:
            traced_losses = run()
        finally:
            install_tracer(None)
        assert traced_losses == untraced
        assert any(s.name == "train.epoch" for s in t.spans)


class TestReportCli:
    def test_refuses_without_env(self, monkeypatch, capsys):
        from repro.obs import report

        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        with pytest.raises(SystemExit, match=TRACE_ENV_VAR):
            report.main(["--case", "fullbatch"])

    def test_fullbatch_case_end_to_end(self, monkeypatch, tmp_path, capsys):
        from repro.obs import report

        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        report.main([
            "--case", "fullbatch", "--out-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert "[OK]" in out
        trace = json.loads((tmp_path / "trace_fullbatch.json").read_text())
        ts = [e["ts"] for e in trace["traceEvents"]]
        assert ts == sorted(ts)
        _check_be_discipline(trace["traceEvents"])
        profile = json.loads(
            (tmp_path / "profile_fullbatch.json").read_text()
        )
        summary = profile["summary"]
        assert summary["counter_flops"] == summary["span_flops"] > 0
        assert (tmp_path / "profile_fullbatch.csv").exists()

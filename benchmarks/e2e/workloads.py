"""The six end-to-end workloads (names are fixed; later issues cite them).

Every workload derives its graph, features, labels, model and request
trace from the one ``--seed``; the program under test only ever sees
the generated inputs. All use float32, ``k_in = hidden = 32``, 8
classes and single-head attention.

A workload is ``setup`` (timed by the runner, several times per run),
``measure`` (tracing off; returns the end-to-end numbers), ``check``
(output checks that decide ``correct``), ``unit`` (one unit of work,
replayed by the traced pass) and ``close``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.distributed.api import distributed_inference, distributed_train
from repro.fusion.layer import DagLayer
from repro.graphs import kronecker, powerlaw_graph, prepare_adjacency
from repro.models import build_model, state_dict
from repro.models.base import GnnModel
from repro.obs import metrics as obs_metrics
from repro.serving import ServingEngine, ServingServer
from repro.training import (
    SGD,
    Adam,
    MinibatchTrainer,
    SoftmaxCrossEntropyLoss,
    Trainer,
)

from loadgen import (
    degree_proportional,
    poisson_schedule,
    run_burst,
    run_open_loop,
)

K = 32  # input and hidden feature width
CLASSES = 8
DTYPE = np.float32


@dataclass(frozen=True)
class Sizes:
    """Everything that differs between the real run and ``--smoke``."""

    log_n: int = 15  # full-batch, sampled and serving graphs
    log_n_dist: int = 14
    targets: int = 8192  # sampled_train: fixed target set, 32 steps/epoch
    batch: int = 256
    dist_epochs: int = 4  # epochs per distributed_train call
    rate: float = 2000.0  # open-loop reference rate, requests/s
    window_s: float = 0.5  # 1000 samples per window, 10 beyond p99
    burst: int = 10000
    cache_rows: int = 1 << 14  # smaller than the hot working set
    delta_every_s: float = 0.25
    reload_every_s: float = 2.0
    setups: int = 3  # set-ups per run; setup_s is their median


FULL = Sizes()
SMOKE = Sizes(
    log_n=10, log_n_dist=10, targets=512, batch=128, dist_epochs=2,
    rate=1000.0, window_s=0.1, burst=400, cache_rows=1 << 8,
    delta_every_s=0.05, reload_every_s=0.2, setups=1,
)
FANOUTS = (8, 8)
DELTA_NODES = 16


@dataclass
class Problem:
    """One workload's inputs; the layer probes run on these operands."""

    a: object
    features: np.ndarray
    labels: np.ndarray
    model_name: str
    num_layers: int
    seed: int

    @property
    def n(self) -> int:
        return int(self.a.shape[0])

    def build_model(self) -> GnnModel:
        return build_model(
            self.model_name, K, K, CLASSES, num_layers=self.num_layers,
            seed=self.seed,
        )

    def build_fused_model(self, fused: bool = True) -> GnnModel:
        """The same layer stack through ``fusion/`` (IR runner + autodiff)."""
        dims = [K] * self.num_layers + [CLASSES]
        hidden = "elu" if self.model_name == "gat" else "relu"
        rng = np.random.default_rng([self.seed, 5])
        return GnnModel([
            DagLayer(
                self.model_name, dims[i], dims[i + 1],
                activation=hidden if i + 1 < self.num_layers else "identity",
                fused=fused, seed=rng, dtype=DTYPE,
            )
            for i in range(self.num_layers)
        ])


def make_problem(
    kind: str, log_n: int, degree: int, model_name: str, num_layers: int,
    seed: int, log,
) -> Problem:
    n = 1 << log_n
    generator = {"kronecker": kronecker, "powerlaw": powerlaw_graph}[kind]
    with log.span("graphs.generate"):
        coo = generator(n, degree * n, seed=seed)
    with log.span("graphs.prepare"):
        a = prepare_adjacency(coo)
    rng = np.random.default_rng([seed, 1])
    return Problem(
        a=a,
        features=rng.normal(size=(n, K)).astype(DTYPE),
        labels=rng.integers(0, CLASSES, n),
        model_name=model_name, num_layers=num_layers, seed=seed,
    )


@dataclass
class Measured:
    metrics: dict[str, float]
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


class Calibrator:
    """Scales wall-clock to a quiet machine, sample by sample.

    The box this benchmark was written on flips, for seconds to minutes
    at a time, between speed states (about 1x, 1.45x and 3.3x slower,
    every kind of kernel alike: a neighbour on the same core), so a raw
    12-second run can read 80 % off and no choice of median survives
    that. Each timed sample is therefore bracketed by a fixed kernel
    (interpreter loop, small GEMM, gather, add: the mix the workloads
    are made of; ~1.5 ms, eight times over) and multiplied by
    ``REFERENCE_S`` over the kernel's time beside it. Reported times are thus *calibrated* ms:
    what the sample would have taken with the kernel at its reference
    speed. The raw medians and the kernel's median are in the detail
    line; dividing by ``detail.calib_scale`` recovers raw wall-clock.
    """

    #: The kernel's time on the reference box in its quiet state.
    REFERENCE_S = 1.45e-3

    def __init__(self) -> None:
        self._dense = np.ones((192, 192), dtype=np.float32)
        self._vector = np.ones(1 << 16, dtype=np.float32)
        self._index = np.random.default_rng(0).integers(0, 1 << 16, 1 << 16)
        self._last = (-1.0, 0.0)  # (when taken, seconds)
        self.samples: list[float] = []

    def _kernel(self) -> None:
        total = 0
        for i in range(20000):
            total += i
        for _ in range(4):
            self._dense @ self._dense
            self._vector[self._index]
            np.add(self._vector, self._vector)

    def sample(self, fresh: bool = False) -> float:
        """Mean of eight kernel runs back to back; reused if under 5 ms old.

        About 12 ms in one piece and a mean, not a median of short runs:
        a neighbour that takes the CPU for a few ms at a time leaves
        most 1.5 ms runs untouched, so their median reads quiet while a
        30 ms forward pass is 50 % slower.
        """
        taken, value = self._last
        if not fresh and time.perf_counter() - taken < 0.005:
            return value
        t0 = time.perf_counter()
        for _ in range(8):
            self._kernel()
        value = (time.perf_counter() - t0) / 8
        self._last = (time.perf_counter(), value)
        self.samples.append(value)
        return value

    def timed(self, fn) -> tuple[float, float]:
        """``(raw seconds, calibrated seconds)`` of one call of ``fn``."""
        before = self.sample()
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        after = self.sample()
        return raw, raw * self.REFERENCE_S / (0.5 * (before + after))

    def scale_since(self, before: float) -> float:
        """Factor for something that ran between ``before`` and now."""
        return self.REFERENCE_S / (0.5 * (before + self.sample()))


def quartiles(values) -> dict[str, float]:
    q1, q2, q3 = np.quantile(np.asarray(values, dtype=np.float64),
                             [0.25, 0.5, 0.75])
    return {"n": len(values), "q1": float(q1), "median": float(q2),
            "q3": float(q3)}


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
class TrainingWorkload:
    """Shared measuring loop: training calls and inference passes in turn.

    ``unit_ms`` is the median warm epoch, ``tail_ms`` its upper quartile
    (a run yields tens of epochs, so that is the highest percentile with
    ten samples beyond it), ``work_per_s`` the attention edges processed
    per second over the whole timed phase (total work over total time,
    so it also sees what a median hides) and ``infer_ms`` the median
    inference-only pass.
    """

    epochs_per_call = 1

    def train_call(self, st) -> list[float]:
        """Run one timed training call; per-epoch losses."""
        raise NotImplementedError

    def infer_call(self, st) -> None:
        raise NotImplementedError

    def edges_per_epoch(self, st) -> int:
        return int(st.problem.a.nnz) * st.problem.num_layers

    def measure(self, st, seconds: float, calib: Calibrator) -> Measured:
        # Training calls and inference passes alternate, so a slow spell
        # of the machine falls on both alike.
        losses: list[float] = []
        calls, infers = [], []
        end = time.perf_counter() + seconds
        while len(calls) < 4 or time.perf_counter() < end:
            calls.append(calib.timed(
                lambda: losses.extend(self.train_call(st))))
            infers.append(calib.timed(lambda: self.infer_call(st)))
        raw_epochs, epochs = np.asarray(calls).T / self.epochs_per_call
        raw_infers, infers = np.asarray(infers).T
        edges = self.edges_per_epoch(st)
        st.losses = losses
        bad = sum(1 for value in losses if not np.isfinite(value))
        return Measured(
            metrics={
                "unit_ms": float(np.median(epochs)) * 1e3,
                "tail_ms": float(np.quantile(epochs, 0.75)) * 1e3,
                "work_per_s": edges * len(epochs) / float(epochs.sum()),
                "infer_ms": float(np.median(infers)) * 1e3,
            },
            attempted=len(losses) + len(infers),
            failed=bad,
            detail={
                "epoch_s": quartiles(epochs),
                "infer_s": quartiles(infers),
                "raw_epoch_s": quartiles(raw_epochs),
                "raw_infer_s": quartiles(raw_infers),
                "edges_per_epoch": edges,
                "nnz": int(st.problem.a.nnz),
                "n": st.problem.n,
                "first_loss": st.first_loss,
                "last_loss": losses[-1],
            },
        )

    def check(self, st, measured: Measured) -> dict[str, bool]:
        return {
            "losses_finite": all(np.isfinite(v) for v in st.losses),
            "loss_below_epoch0": st.losses[-1] < st.first_loss,
        }

    def unit(self, st):
        self.train_call(st)
        return []

    def close(self, st) -> None:
        pass


class Fullbatch(TrainingWorkload):
    """Kronecker n=2^15, m=16n; 3-layer GAT; full forward+backward epochs.

    ``fused=False`` is the default path (``tensor.kernels`` plus the
    hand-derived ``models/``); ``fused=True`` runs the same problem
    through ``fusion/`` and ``tensor.megakernel``.
    """

    def __init__(self, name: str, fused: bool) -> None:
        self.name = name
        self.fused = fused

    def setup(self, seed: int, sizes: Sizes, log):
        problem = make_problem(
            "kronecker", sizes.log_n, 16, "gat", 3, seed, log
        )
        with log.span("setup.build"):
            model = (
                problem.build_fused_model() if self.fused
                else problem.build_model()
            )
            trainer = Trainer(model, SoftmaxCrossEntropyLoss(), Adam(lr=0.01))
        st = SimpleNamespace(problem=problem, model=model, trainer=trainer)
        with log.span("setup.cold_unit"):
            st.first_loss = self.train_call(st)[0]
        with log.span("setup.warm_up"):
            self.train_call(st)
        return st

    def train_call(self, st) -> list[float]:
        p = st.problem
        return st.trainer.fit(p.a, p.features, p.labels, epochs=1).losses

    def infer_call(self, st) -> None:
        st.model.forward(st.problem.a, st.problem.features, training=False)


class SampledTrain(TrainingWorkload):
    """Power-law n=2^15, m=8n; 2-layer GAT; fan-out (8, 8) mini-batches.

    Every block is a fresh sparsity pattern, so the cold
    ``tensor.structure`` path runs each step and the kernels run on
    small blocks where interpreter overhead shows.
    """

    name = "sampled_train"

    def setup(self, seed: int, sizes: Sizes, log):
        problem = make_problem(
            "powerlaw", sizes.log_n, 8, "gat", 2, seed, log
        )
        with log.span("setup.build"):
            model = problem.build_model()
            trainer = MinibatchTrainer(
                model, SoftmaxCrossEntropyLoss(), Adam(lr=0.01),
                fanouts=FANOUTS, batch_size=sizes.batch, shuffle=True,
                seed=seed,
            )
            targets = np.sort(
                np.random.default_rng([seed, 2]).choice(
                    problem.n, size=min(sizes.targets, problem.n),
                    replace=False,
                )
            )
        st = SimpleNamespace(
            problem=problem, model=model, trainer=trainer, targets=targets,
            sampled_edges=[],
        )
        # No separate warm-up: the cold epoch is already 32 steps long.
        with log.span("setup.cold_unit"):
            st.first_loss = self.train_call(st)[0]
        return st

    def train_call(self, st) -> list[float]:
        p = st.problem
        result = st.trainer.fit(
            p.a, p.features, p.labels, epochs=1, targets=st.targets,
            full_eval=False,
        )
        st.sampled_edges.append(result.sampled_edges)
        return result.losses

    def infer_call(self, st) -> None:
        st.model.forward(st.problem.a, st.problem.features, training=False)

    def edges_per_epoch(self, st) -> int:
        return int(st.sampled_edges[0])

    def check(self, st, measured: Measured) -> dict[str, bool]:
        checks = super().check(st, measured)
        # fit() restarts its sampling stream, so a seed fixes the count.
        checks["sampled_edges_repeat"] = len(set(st.sampled_edges)) == 1
        return checks


class DistTrainP4(TrainingWorkload):
    """Kronecker n=2^14, m=16n; 3-layer AGNN on a 2x2 grid (1.5D).

    Thread backend: four rank threads share the interpreter lock on two
    cores, so this measures the schedule and communicator's coordination
    cost, not scaling. Launch and partitioning are inside each call and
    amortised over its epochs.
    """

    name = "dist_train_p4"

    def __init__(self, sizes: Sizes) -> None:
        self.epochs_per_call = sizes.dist_epochs

    def setup(self, seed: int, sizes: Sizes, log):
        problem = make_problem(
            "kronecker", sizes.log_n_dist, 16, "agnn", 3, seed, log
        )
        st = SimpleNamespace(problem=problem, words=[], call_losses=[])
        with log.span("setup.cold_unit"):
            st.first_loss = self.train_call(st)[0]
        with log.span("setup.warm_up"):
            self.train_call(st)
        return st

    def _train(self, st, **kwargs):
        p = st.problem
        return distributed_train(
            p.model_name, p.a, p.features, p.labels, K, CLASSES,
            num_layers=p.num_layers, p=4, epochs=self.epochs_per_call,
            seed=p.seed, backend="thread", collect_output=False, **kwargs,
        )

    def train_call(self, st) -> list[float]:
        result = self._train(st)
        st.words.append(result.stats.max_words_sent)
        st.call_losses = result.losses
        st.stats = result.stats
        return result.losses

    def infer_call(self, st) -> None:
        p = st.problem
        distributed_inference(
            p.model_name, p.a, p.features, K, CLASSES,
            num_layers=p.num_layers, p=4, seed=p.seed, backend="thread",
        )

    def measure(self, st, seconds: float, calib: Calibrator) -> Measured:
        measured = super().measure(st, seconds, calib)
        measured.detail["comm_words_max"] = int(st.words[0])
        return measured

    def check(self, st, measured: Measured) -> dict[str, bool]:
        p = st.problem
        # Each call trains a fresh model from the seed, so the loss curve
        # is per call; a plain single-process Trainer must reproduce it.
        single = Trainer(
            p.build_model(), SoftmaxCrossEntropyLoss(), SGD(0.01)
        ).fit(p.a, p.features, p.labels, epochs=self.epochs_per_call)
        return {
            "losses_finite": all(np.isfinite(v) for v in st.losses),
            "loss_below_epoch0": st.call_losses[-1] < st.call_losses[0],
            "losses_equal_single_process": bool(
                np.allclose(st.call_losses, single.losses, rtol=1e-8, atol=0)
            ),
            "comm_words_repeat": len(set(st.words)) == 1,
        }

    def unit(self, st):
        result = self._train(st)
        return [s.tracer for s in result.stats.per_rank if s.tracer]


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class Serve:
    """Power-law n=2^15, m=8n; 2-layer GAT behind one serving worker.

    Open loop: Poisson arrivals at the reference rate, seeds drawn in
    proportion to degree, latency from each request's due time. The
    activation cache is smaller than the hot working set, so hits and
    sampled misses mix. ``churn=True`` adds writes beside the reads: a
    16-vertex feature delta every 250 ms and a model reload every 2 s.

    ``unit_ms``/``tail_ms`` are the medians over 0.5 s windows of the
    per-window p50/p99 (a single window's p99 swings with one
    garbage-collection pause; the median over windows does not),
    ``work_per_s`` the median throughput of full-backlog bursts and
    ``infer_ms`` an offline full-graph forward with the served model.
    """

    def __init__(self, name: str, churn: bool) -> None:
        self.name = name
        self.churn = churn

    def setup(self, seed: int, sizes: Sizes, log):
        problem = make_problem(
            "powerlaw", sizes.log_n, 8, "gat", 2, seed, log
        )
        with log.span("setup.build"):
            model = problem.build_model()
            engine = ServingEngine(
                model, problem.a, problem.features, fanouts=FANOUTS,
                cache=sizes.cache_rows, weights="hub", seed=seed,
            )
            server = ServingServer(engine)
        st = SimpleNamespace(
            problem=problem, model=model, engine=engine, server=server,
            sizes=sizes, state=state_dict(model),
            popularity=degree_proportional(problem.a),
            rng=np.random.default_rng([seed, 3]),
        )
        with log.span("setup.cold_unit"):
            self._window(st, sizes.window_s)
        with log.span("setup.warm_up"):
            self._window(st, 2 * sizes.window_s)
        return st

    def _delta(self, st):
        nodes = st.rng.choice(st.problem.n, size=DELTA_NODES, replace=False)
        rows = st.rng.normal(size=(DELTA_NODES, K)).astype(DTYPE)
        return lambda: st.engine.apply_feature_delta(nodes, rows)

    def _writes(self, st, duration: float, index: int) -> list:
        """Writes of window number ``index``: a feature delta every
        ``delta_every_s``, and a reload in the window that completes each
        ``reload_every_s`` of open-loop time."""
        if not self.churn:
            return []
        sizes = st.sizes
        writes = [
            (t, "delta", self._delta(st))
            for t in np.arange(sizes.delta_every_s, duration + 1e-9,
                               sizes.delta_every_s)
        ]
        period = max(1, round(sizes.reload_every_s / duration))
        if index % period == period - 1:
            writes.append((0.5 * sizes.delta_every_s, "reload",
                           lambda: st.engine.reload(st.state)))
        return sorted(writes, key=lambda w: w[0])

    def _window(self, st, duration: float, index: int = 0):
        due, nodes = poisson_schedule(
            st.rng, st.sizes.rate, duration, st.popularity
        )
        return run_open_loop(
            st.server, due, nodes, CLASSES,
            writes=self._writes(st, duration, index),
        )

    def _burst(self, st, count: int) -> tuple[float, int]:
        if self.churn:
            self._delta(st)()
        nodes = st.rng.choice(st.problem.n, size=count, p=st.popularity)
        return run_burst(st.server, nodes, CLASSES)

    def measure(self, st, seconds: float, calib: Calibrator) -> Measured:
        sizes = st.sizes
        cache = st.engine.cache
        hits0, misses0 = cache.hits, cache.misses
        p50, p99, raw_p50, late, writes = [], [], [], [], {}
        sent = failed = 0
        # One open-loop run per window, the calibration kernel between
        # them while the server idles. Most of a median latency here is
        # the admission queue's batching timer, which is wall-clock
        # whatever the machine does, so only the part of a latency above
        # the window's median queue wait (the program's own histogram)
        # is scaled by the kernel's time on either side of the window.
        end = time.perf_counter() + 0.6 * seconds
        while len(p50) < 3 or time.perf_counter() < end:
            obs_metrics().reset()
            before = calib.sample()
            load = self._window(st, sizes.window_s, index=len(p50))
            scale = calib.scale_since(before)
            wait = obs_metrics().histogram(
                "serving.queue_wait_ms").quantile(0.5)
            raw_p50.append(float(np.quantile(load.latency_ms, 0.50)))
            raw_p99 = float(np.quantile(load.latency_ms, 0.99))
            p50.append(wait + max(0.0, raw_p50[-1] - wait) * scale)
            p99.append(wait + max(0.0, raw_p99 - wait) * scale)
            late.append(float(np.quantile(load.late_ms, 0.99)))
            sent += load.sent
            failed += load.failed
            for kind, values in load.write_ms.items():
                writes.setdefault(kind, []).extend(
                    v * scale for v in values)
        hit_rate = (cache.hits - hits0) / max(
            1, cache.hits + cache.misses - hits0 - misses0
        )
        bursts: list[float] = []
        burst_failed = 0
        end = time.perf_counter() + 0.3 * seconds
        while len(bursts) < 3 or time.perf_counter() < end:
            before = calib.sample()
            rps, lost = self._burst(st, sizes.burst)
            bursts.append(rps / calib.scale_since(before))
            burst_failed += lost
        p = st.problem
        infers = []
        end = time.perf_counter() + 0.1 * seconds
        while len(infers) < 3 or time.perf_counter() < end:
            infers.append(calib.timed(
                lambda: st.model.forward(p.a, p.features, training=False)))
        raw_infers, infers = np.asarray(infers).T
        detail = {
            "rate_rps": sizes.rate,
            "windows": len(p50),
            "window_p50_ms": quartiles(p50),
            "window_p99_ms": quartiles(p99),
            "raw_window_p50_ms": quartiles(raw_p50),
            "samples_per_window": int(sizes.rate * sizes.window_s),
            "gen_late_ms_p99_per_window": quartiles(late),
            "burst_rps": quartiles(bursts),
            "infer_s": quartiles(infers),
            "raw_infer_s": quartiles(raw_infers),
            "cache_hit_rate": hit_rate,
            "open_loop": {"sent": sent, "failed": failed},
            "bursts": {"sent": len(bursts) * sizes.burst,
                       "failed": burst_failed},
            "nnz": int(p.a.nnz),
            "n": p.n,
        }
        for kind, values in writes.items():
            detail[f"{kind}_apply_ms"] = quartiles(values)
        return Measured(
            metrics={
                "unit_ms": float(np.median(p50)),
                "tail_ms": float(np.median(p99)),
                "work_per_s": float(np.median(bursts)),
                "infer_ms": float(np.median(infers)) * 1e3,
            },
            attempted=sent + len(bursts) * sizes.burst + len(infers),
            failed=failed + burst_failed,
            detail=detail,
        )

    def check(self, st, measured: Measured) -> dict[str, bool]:
        # Pre-flight: with full fan-out, rows served as one union batch
        # are the full-graph forward's rows. Same arithmetic, but BLAS
        # blocks a 32-row-cone product and a 2^15-row one differently, so
        # in float32 they agree to a few ulp (seen: 3.6e-7), not bitwise.
        p = st.problem
        exact = ServingEngine(
            st.model, p.a, p.features, fanouts=None, cache=None, seed=p.seed
        )
        nodes = np.random.default_rng([p.seed, 4]).choice(
            p.n, size=32, replace=False
        )
        reference = st.model.forward(p.a, p.features, training=False)
        return {
            "served_rows_match_forward": bool(np.allclose(
                exact.serve(nodes), reference[nodes], rtol=1e-5, atol=1e-6
            )),
            "every_response_finite": measured.failed == 0,
        }

    def unit(self, st):
        self._burst(st, max(64, st.sizes.burst // 5))
        return []

    def close(self, st) -> None:
        st.server.close()


def build_workloads(sizes: Sizes) -> dict[str, object]:
    workloads = [
        Fullbatch("fullbatch_train", fused=False),
        Fullbatch("fullbatch_fused", fused=True),
        SampledTrain(),
        DistTrainP4(sizes),
        Serve("serve_openloop", churn=False),
        Serve("serve_churn", churn=True),
    ]
    return {w.name: w for w in workloads}

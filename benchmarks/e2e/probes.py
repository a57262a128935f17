"""The traced pass: per-layer numbers, measured from outside.

Each probe calls one layer's public functions on the *workload's own*
operands (its graph, features, labels and model shape) inside a
benchmark-side span, so every per-layer metric is a fresh measurement
on every workload and a layer's number can be set beside the
end-to-end number of the workload it serves. Times are medians over
the probe's repetitions; ``*_flops`` come from a ``FlopCounter`` passed
to the call; ``*_bytes_computed`` are operand plus result array sizes,
each counted once (computed, not measured: cache misses are ignored).

The budget part runs the workload's unit under the program's own
``repro.obs.Tracer`` and folds ``profile_spans`` self times into
kernel / IR / schedule / sampler / serving / untraced buckets.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.distributed.api import distributed_train
from repro.fusion.layer import compiled_layer_program
from repro.models import state_dict
from repro.obs import (
    Tracer,
    install_global_tracer,
    metrics as obs_metrics,
    profile_spans,
)
from repro.runtime.costmodel import CostModel
from repro.serving import (
    ActivationCache,
    InferenceRequest,
    ServingEngine,
    ServingServer,
    coalesce,
)
from repro.tensor import CSRMatrix, mm, sddmm_add, sddmm_cosine, sddmm_dot, spmm
from repro.tensor.kernels import (
    masked_row_softmax,
    masked_row_softmax_backward,
)
from repro.tensor.megakernel import (
    attention_backward,
    attention_forward,
    plan_sweep,
)
from repro.tensor.sampling_graph import hub_bias_weights, sample_blocks
from repro.tensor.workspace import workspace_high_water_bytes
from repro.theory import predict_training_words
from repro.training import Adam, SoftmaxCrossEntropyLoss, Trainer, train_step
from repro.training.minibatch import backward_blocks, forward_blocks
from repro.util.counters import FlopCounter

from loadgen import (
    degree_proportional,
    poisson_schedule,
    run_open_loop,
)
from workloads import CLASSES, DELTA_NODES, DTYPE, K

SLO_P99_MS = 25.0  # latency limit for the rate ladder
SLO_LATE_MS = 5.0  # the generator must keep its schedule for a rate to count
SLO_DRAIN_S = 0.5


def _until(budget_s: float, min_count: int = 2):
    """Iterate until ``budget_s`` has passed, at least ``min_count`` times."""
    end = time.perf_counter() + budget_s
    count = 0
    while count < min_count or time.perf_counter() < end:
        yield count
        count += 1


def _fresh_pattern(a) -> CSRMatrix:
    """The same matrix over new index arrays: every cached structure is cold."""
    return CSRMatrix(a.indptr.copy(), a.indices.copy(), a.data, a.shape)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    if hasattr(value, "indptr"):  # CSR operand: pattern plus values
        return value.indptr.nbytes + value.indices.nbytes + value.data.nbytes
    return 0


# ----------------------------------------------------------------------
# Machine calibration (both passes; tells a machine shift from a code shift)
# ----------------------------------------------------------------------
def calibrate() -> dict[str, float]:
    """Three tiny fixed kernels: dense GEMM, streaming triad, interpreter."""
    def best(fn, reps: int = 5) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    size = 768
    left = np.ones((size, size), dtype=np.float32)
    gemm = best(lambda: left @ left)
    # 4 Mi float32 per array: 16 MiB each, beyond the last-level cache.
    count = 1 << 22
    x, y, z = (np.ones(count, dtype=np.float32) for _ in range(3))

    def triad() -> None:
        np.multiply(y, 3.0, out=x)
        np.add(x, z, out=x)

    stream = best(triad)

    def pyloop() -> None:
        total = 0
        for i in range(100_000):
            total += i

    loop = best(pyloop)
    return {
        "calib.gemm_gflops": 2.0 * size**3 / gemm / 1e9,
        "calib.triad_gbps": 5.0 * count * 4 / stream / 1e9,
        "calib.pyloop_mops": 100_000 / loop / 1e6,
    }


def calibration_drift(first: dict, last: dict) -> float:
    return max(abs(last[k] - first[k]) / first[k] for k in first)


# ----------------------------------------------------------------------
# Budget: the workload's unit under the program's own tracer
# ----------------------------------------------------------------------
BUCKETS = {
    "kernel": ("kernel.", "megakernel."),
    "ir": ("ir.", "daglayer."),
    "schedule": ("sched.", "wait"),
    "sampler": ("minibatch.sample",),
    "serving": ("serve.admit", "serve.cache", "serve.flush"),
}


def _bucket_of(name: str) -> str:
    for bucket, prefixes in BUCKETS.items():
        if name.startswith(prefixes):
            return bucket
    return "untraced"  # container spans: interpreter time between layers


def budget(workload, st, seconds: float, log) -> dict[str, float]:
    """Tracing overhead and per-bucket self-time shares of one unit."""
    plain, traced, tracers = [], [], []
    for _ in _until(0.08 * seconds):
        with log.span("unit.untraced") as span:
            workload.unit(st)
        plain.append(span["end"] - span["start"])
        driver = Tracer()
        install_global_tracer(driver)
        # Rank threads only get tracers of their own under $REPRO_TRACE.
        os.environ["REPRO_TRACE"] = "1"
        try:
            with log.span("unit.traced") as span:
                ranks = workload.unit(st)
        finally:
            del os.environ["REPRO_TRACE"]
            install_global_tracer(None)
        traced.append(span["end"] - span["start"])
        tracers = [t for t in [driver, *ranks] if t.spans]
    rows = profile_spans(tracers)
    self_total = sum(row["self_s"] for row in rows)
    shares = {bucket: 0.0 for bucket in [*BUCKETS, "untraced"]}
    for row in rows:
        shares[_bucket_of(row["name"])] += row["self_s"]
    # One lane per tracer that recorded: the driver, or each rank thread.
    wall = traced[-1] * max(1, len(tracers))
    out = {
        f"budget.{bucket}_share": value / self_total if self_total else 0.0
        for bucket, value in shares.items()
    }
    out["obs.trace_overhead_share"] = (
        float(np.median(traced)) / float(np.median(plain)) - 1.0
    )
    out["obs.reconcile_gap_share"] = abs(wall - self_total) / wall
    return out


# ----------------------------------------------------------------------
# Layer probes
# ----------------------------------------------------------------------
def probe_structure(p, log, seconds) -> dict[str, float]:
    for _ in _until(0.02 * seconds):
        fresh = _fresh_pattern(p.a)
        log.timed("structure.transpose_cold", fresh.transpose)
        log.timed("structure.transpose_warm", fresh.transpose)
    cold = log.median_s("structure.transpose_cold")
    warm = log.median_s("structure.transpose_warm")
    return {
        "structure.transpose_cold_s": cold,
        "structure.transpose_warm_s": warm,
        "structure.cold_over_warm": cold / warm,
    }


def probe_kernels(p, log, seconds) -> dict[str, float]:
    a, h = p.a, p.features
    rng = np.random.default_rng([p.seed, 7])
    weight = rng.normal(size=(K, K)).astype(DTYPE)
    u, v = (rng.normal(size=p.n).astype(DTYPE) for _ in range(2))
    scores = a.with_data(rng.normal(size=a.nnz).astype(DTYPE))
    soft = masked_row_softmax(scores).data
    grad = rng.normal(size=a.nnz).astype(DTYPE)
    rows = a.expand_rows()
    g = rng.normal(size=(p.n, K)).astype(DTYPE)
    h_t = np.ascontiguousarray(h.T)
    kernels = {
        "spmm": (lambda c: spmm(a, h, counter=c), (a, h)),
        "sddmm_add": (lambda c: sddmm_add(a, u, v, counter=c), (a, u, v)),
        "sddmm_dot": (lambda c: sddmm_dot(a, h, h, counter=c), (a, h, h)),
        "sddmm_cosine": (lambda c: sddmm_cosine(a, h, counter=c), (a, h)),
        "softmax": (lambda c: masked_row_softmax(scores, counter=c),
                    (scores,)),
        "softmax_bwd": (
            lambda c: masked_row_softmax_backward(
                soft, grad, a.indptr, rows=rows, counter=c),
            (soft, grad, a.indptr, rows),
        ),
        "mm_nk_kk": (lambda c: mm(h, weight, counter=c), (h, weight)),
        "mm_kn_nk": (lambda c: mm(h_t, g, counter=c), (h_t, g)),
    }
    out: dict[str, float] = {}
    for name, (call, operands) in kernels.items():
        counter = FlopCounter()
        for _ in _until(0.01 * seconds):
            result = log.timed(f"kernels.{name}", lambda: call(counter))
        if isinstance(result, CSRMatrix):
            result = result.data  # a CSR result shares its operand's pattern
        flops = counter.total / len(log.durations(f"kernels.{name}"))
        moved = _nbytes(operands) + _nbytes(result)
        out[f"kernels.{name}_s"] = log.median_s(f"kernels.{name}")
        out[f"kernels.{name}_flops"] = flops
        out[f"kernels.{name}_bytes_computed"] = moved
        out[f"kernels.{name}_flops_per_byte"] = flops / moved
    return out


def probe_megakernel(p, log, seconds) -> dict[str, float]:
    a, y = p.a, p.features
    rng = np.random.default_rng([p.seed, 8])
    if p.model_name == "gat":
        psi = "add"
        ops = {"u": rng.normal(size=p.n).astype(DTYPE),
               "v": rng.normal(size=p.n).astype(DTYPE)}
    else:
        psi = "cosine"
        ops = {"x_src": y, "norms": np.linalg.norm(y, axis=1).astype(DTYPE)}
    dz = rng.normal(size=y.shape).astype(DTYPE)
    counter = FlopCounter()
    for _ in _until(0.06 * seconds):
        fresh = _fresh_pattern(a)
        log.timed("megakernel.plan_cold",
                  lambda: plan_sweep(fresh.structure, 1, K))
        _, stats = log.timed(
            "megakernel.fwd",
            lambda: attention_forward(a, psi, y, counter=counter, **ops),
        )
        log.timed(
            "megakernel.bwd",
            lambda: attention_backward(
                a, psi, y, dz, stats=stats, counter=counter, **ops),
        )
    return {
        "megakernel.fwd_s": log.median_s("megakernel.fwd"),
        "megakernel.bwd_s": log.median_s("megakernel.bwd"),
        "megakernel.flops":
            counter.total / len(log.durations("megakernel.fwd")),
        "megakernel.plan_cold_s": log.median_s("megakernel.plan_cold"),
    }


def probe_fusion(p, log, seconds, kernel_s: dict) -> dict[str, float]:
    loss = SoftmaxCrossEntropyLoss()
    # The program cache is keyed on (model, beta, slope): an unused pair
    # forces a real derive-and-fuse without reaching into the cache.
    for i in range(3):
        nudge = (i + 1) * 1e-9
        log.timed(
            "fusion.compile",
            lambda: compiled_layer_program(
                p.model_name, beta=1.0 + nudge, slope=0.2 + nudge),
        )
    model = p.build_fused_model()
    for _ in _until(0.08 * seconds):
        out = log.timed(
            "fusion.forward",
            lambda: model.forward(p.a, p.features, training=True),
        )
        d_out = loss.gradient(out, p.labels)
        log.timed("fusion.backward", lambda: model.backward(d_out))
    interp = Trainer(p.build_fused_model(fused=False), loss, Adam(lr=0.01))
    log.timed(
        "fusion.interp_epoch",
        lambda: interp.fit(p.a, p.features, p.labels, epochs=1),
    )
    forward = log.median_s("fusion.forward")
    backward = log.median_s("fusion.backward")
    # Per layer: one megakernel sweep each way, HW forward, and the two
    # weight/feature products of the backward pass.
    accounted = p.num_layers * (
        kernel_s["megakernel.fwd_s"] + kernel_s["megakernel.bwd_s"]
        + 2 * kernel_s["kernels.mm_nk_kk_s"] + kernel_s["kernels.mm_kn_nk_s"]
    )
    return {
        "fusion.compile_s": log.median_s("fusion.compile"),
        "fusion.forward_s": forward,
        "fusion.backward_s": backward,
        "fusion.overhead_s": forward + backward - accounted,
        "fusion.interp_epoch_s": log.median_s("fusion.interp_epoch"),
    }


def probe_models(p, log, seconds) -> dict[str, float]:
    """One default-path epoch replayed call by call, beside ``Trainer.fit``."""
    model = p.build_model()
    loss, optimizer = SoftmaxCrossEntropyLoss(), Adam(lr=0.01)
    trainer = Trainer(model, loss, optimizer)
    trainer.fit(p.a, p.features, p.labels, epochs=1)  # warm the pattern
    for _ in _until(0.12 * seconds):
        log.unit += 1
        with log.span("fullbatch.epoch_replay"):
            out = log.timed(
                "models.forward",
                lambda: model.forward(p.a, p.features, training=True),
            )
            d_out = log.timed(
                "training.loss",
                lambda: (loss.value(out, p.labels),
                         loss.gradient(out, p.labels))[1],
            )
            grads = log.timed("models.backward",
                              lambda: model.backward(d_out))
            log.timed("training.optim",
                      lambda: optimizer.step(model, grads))
        log.timed("training.fit_epoch",
                  lambda: trainer.fit(p.a, p.features, p.labels, epochs=1))
        log.timed(
            "models.infer_forward",
            lambda: model.forward(p.a, p.features, training=False),
        )
    parts = {
        "models.forward_s": log.median_s("models.forward"),
        "models.backward_s": log.median_s("models.backward"),
        "training.loss_s": log.median_s("training.loss"),
        "training.optim_s": log.median_s("training.optim"),
    }
    fit = log.median_s("training.fit_epoch")
    return {
        **parts,
        "models.infer_forward_s": log.median_s("models.infer_forward"),
        "fullbatch.unattributed_share": (fit - sum(parts.values())) / fit,
        "dist.single_epoch_s": fit,
    }


def probe_sampling(p, sizes, log, seconds) -> dict[str, float]:
    """The sampler alone, then one sampled step replayed call by call."""
    a = p.a
    fanouts = (8,) * p.num_layers
    rng = np.random.default_rng([p.seed, 6])
    weights = hub_bias_weights(a)
    model = p.build_model()
    loss, optimizer = SoftmaxCrossEntropyLoss(), Adam(lr=0.01)
    edges = 0
    batch = min(sizes.batch, p.n)
    for _ in _until(0.12 * seconds, min_count=3):
        log.unit += 1
        targets = rng.choice(p.n, size=batch, replace=False)
        blocks = log.timed(
            "sampler.sample_blocks",
            lambda: sample_blocks(a, targets, fanouts, rng),
        )
        edges += sum(b.sampled_edges for b in blocks)
        log.timed(
            "sampler.weighted_sample",
            lambda: sample_blocks(a, targets, fanouts, rng, weights),
        )
        h0 = np.ascontiguousarray(p.features[blocks[0].src_nodes])
        out, caches = log.timed(
            "minibatch.forward", lambda: forward_blocks(model, blocks, h0))
        d_out = loss.gradient(out, p.labels[blocks[-1].dst_nodes])
        log.timed(
            "minibatch.backward",
            lambda: backward_blocks(model, blocks, caches, d_out),
        )
        log.timed(
            "minibatch.step",
            lambda: train_step(
                model, loss, optimizer, blocks, p.features, p.labels),
        )
    sample = log.durations("sampler.sample_blocks")
    step = log.median_s("minibatch.step")
    return {
        "sampler.sample_blocks_s": float(np.median(sample)),
        "sampler.sample_blocks_s_p90": float(np.quantile(sample, 0.9)),
        "sampler.weighted_sample_s": log.median_s("sampler.weighted_sample"),
        "sampler.edges_per_s": edges / sum(sample),
        "sampler.sampled_edges": edges,
        "sampler.share_of_step": float(np.median(sample))
        / (float(np.median(sample)) + step),
        "minibatch.forward_s": log.median_s("minibatch.forward"),
        "minibatch.backward_s": log.median_s("minibatch.backward"),
        "minibatch.step_s": step,
    }


def probe_distributed(p, log, single_epoch_s: float) -> dict[str, float]:
    """One p=4 call each: synchronous, launch-only, overlapped."""
    epochs = 2

    def train(**kwargs):
        return distributed_train(
            p.model_name, p.a, p.features, p.labels, K, CLASSES,
            num_layers=p.num_layers, p=4, seed=p.seed, backend="thread",
            collect_output=False, **kwargs,
        )

    stats = log.timed("dist.train", lambda: train(epochs=epochs)).stats
    log.timed("dist.launch_partition", lambda: train(epochs=0))
    log.timed("dist.train_overlap",
              lambda: train(epochs=epochs, overlap=True))
    launch = log.median_s("dist.launch_partition")
    epoch = (log.median_s("dist.train") - launch) / epochs
    theory = epochs * predict_training_words(
        p.n, K, 4, p.num_layers, model=p.model_name)
    waits = stats.max_wait_by_phase()
    out = {
        "dist.epoch_s": epoch,
        "dist.words_max": stats.max_words_sent,
        "dist.messages_max": stats.max_messages_sent,
        "dist.bytes_total": stats.total_bytes_sent,
        "dist.max_flops": stats.max_flops,
        "dist.wait_fraction": stats.wait_fraction,
        "dist.max_wait_s": stats.max_wait_s,
        "dist.launch_partition_s": launch,
        "dist.modeled_epoch_s": CostModel().time(stats) / epochs,
        "dist.theory_words": theory,
        "dist.words_over_theory": stats.max_words_sent / theory,
        "dist.speedup_vs_single": single_epoch_s / epoch,
        "dist.overlap_epoch_s":
            (log.median_s("dist.train_overlap") - launch) / epochs,
    }
    for phase in ("psi", "softmax", "backward", "redistribute"):
        out[f"dist.wait_s.{phase}"] = waits.get(phase, 0.0)
    return out


def _histogram(name: str):
    return obs_metrics().histogram(name)


def probe_serving(p, sizes, log, seconds) -> dict[str, float]:
    """Engine, batcher and cache calls replayed synchronously, then one
    open-loop window, a rate ladder and a churn window through a server."""
    fanouts = (8,) * p.num_layers
    model = p.build_model()
    rng = np.random.default_rng([p.seed, 9])
    popularity = degree_proportional(p.a)
    engine = ServingEngine(
        model, p.a, p.features, fanouts=fanouts, cache=sizes.cache_rows,
        weights="hub", seed=p.seed,
    )
    cache = engine.cache

    def draw(count: int) -> np.ndarray:
        return rng.choice(p.n, size=count, p=popularity)

    for _ in _until(0.04 * seconds, min_count=10):
        seeds = np.unique(draw(64))
        log.timed("engine.flush", lambda: engine.serve_unique(seeds))
        one = draw(1)
        log.timed("engine.flush_seq", lambda: engine.serve_unique(one))
    requests = [InferenceRequest(node=int(node)) for node in draw(64)]
    log.timed("batcher.coalesce", lambda: coalesce(requests), reps=200)

    bare = ActivationCache(capacity=sizes.cache_rows)
    keys = np.arange(min(1024, sizes.cache_rows))
    values = rng.normal(size=(keys.size, K)).astype(DTYPE)
    for _ in range(5):
        log.timed("cache.put_rows", lambda: bare.put_rows(1, keys, values, 0))
        log.timed("cache.get_rows", lambda: bare.get_rows(1, keys, 0))

    def window(server, rate: float, duration: float, writes=()):
        due, nodes = poisson_schedule(rng, rate, duration, popularity)
        with log.span(f"serve.window@{rate:g}"):
            return run_open_loop(server, due, nodes, CLASSES, writes=writes)

    def delta():
        nodes = rng.choice(p.n, size=DELTA_NODES, replace=False)
        rows = rng.normal(size=(DELTA_NODES, K)).astype(DTYPE)
        return lambda: engine.apply_feature_delta(nodes, rows)

    obs_metrics().reset()
    with ServingServer(engine) as server:
        window(server, sizes.rate, sizes.window_s)  # fill the cache
        hits0, misses0, evict0 = cache.hits, cache.misses, cache.evictions
        obs_metrics().reset()
        base = window(server, sizes.rate, 2 * sizes.window_s)
        hit_rate = (cache.hits - hits0) / (
            cache.hits + cache.misses - hits0 - misses0)
        out = {
            "queue.wait_ms_p50":
                _histogram("serving.queue_wait_ms").quantile(0.5),
            "queue.wait_ms_p99":
                _histogram("serving.queue_wait_ms").quantile(0.99),
            "queue.batch_size_mean": _histogram("serving.batch_size").mean,
            "queue.unique_seeds_mean":
                _histogram("serving.unique_seeds").mean,
            "cache.hit_rate": hit_rate,
            "cache.evictions": cache.evictions - evict0,
            "cache.entries": len(cache),
            "gen.late_ms_p99": float(np.quantile(base.late_ms, 0.99)),
            "gen.sent": base.sent,
            "gen.completed": base.sent - base.failed,
        }
        nodes = draw(max(64, sizes.burst // 5))
        with log.span("queue.submit_many") as span:
            futures = server.submit_many(nodes)
        for future in futures:
            future.result(timeout=60.0)
        out["queue.submit_us"] = (
            (span["end"] - span["start"]) / len(futures) * 1e6)

        # Rate ladder: the highest rate that keeps p99 under the limit
        # while the generator keeps its schedule and the backlog drains.
        slo_rate = 0.0
        for multiple in (1, 2, 4, 8):
            rate = sizes.rate * multiple
            load = base if multiple == 1 else window(
                server, rate, sizes.window_s)
            if (
                np.quantile(load.latency_ms, 0.99) <= SLO_P99_MS
                and np.quantile(load.late_ms, 0.99) <= SLO_LATE_MS
                and load.drain_s <= SLO_DRAIN_S
            ):
                slo_rate = rate
        out["serve.slo_rate_rps"] = slo_rate

        # Churn: deltas beside reads, timed under the read load.
        hits0, misses0 = cache.hits, cache.misses
        duration = 2 * sizes.window_s
        writes = [
            (t, "delta", delta())
            for t in np.arange(0.0, duration, sizes.delta_every_s / 2)
        ]
        churn = window(server, sizes.rate, duration, writes)
        out["cache.hit_rate_churn"] = (cache.hits - hits0) / (
            cache.hits + cache.misses - hits0 - misses0)
        out["engine.feature_delta_ms"] = float(
            np.median(churn.write_ms["delta"]))

    entries = len(cache)
    delta()()
    out["cache.invalidated_rows"] = entries - len(cache)
    state = state_dict(model)
    touched = rng.choice(p.n, size=DELTA_NODES, replace=False)
    for _ in range(3):
        log.timed("engine.reload", lambda: engine.reload(state))
        log.timed("engine.graph_delta",
                  lambda: engine.apply_graph_delta(p.a, touched_dst=touched))
    flush = np.asarray(log.durations("engine.flush")) * 1e3
    out.update({
        "engine.flush_ms_p50": float(np.quantile(flush, 0.5)),
        "engine.flush_ms_p99": float(np.quantile(flush, 0.99)),
        "engine.flush_seq_ms": log.median_s("engine.flush_seq") * 1e3,
        "batcher.coalesce_us": log.median_s("batcher.coalesce") * 1e6,
        "engine.reload_ms": log.median_s("engine.reload") * 1e3,
        "engine.graph_delta_ms": log.median_s("engine.graph_delta") * 1e3,
        "cache.get_rows_us":
            log.median_s("cache.get_rows") / keys.size * 1e6,
        "cache.put_rows_us":
            log.median_s("cache.put_rows") / keys.size * 1e6,
    })
    return out


def run_probes(problem, sizes, seconds: float, log) -> dict[str, float]:
    """Every layer probe on one workload's operands."""
    out = probe_structure(problem, log, seconds)
    out.update(probe_kernels(problem, log, seconds))
    out.update(probe_megakernel(problem, log, seconds))
    out.update(probe_fusion(problem, log, seconds, out))
    out.update(probe_models(problem, log, seconds))
    out.update(probe_sampling(problem, sizes, log, seconds))
    out.update(probe_distributed(problem, log, out["dist.single_epoch_s"]))
    out.update(probe_serving(problem, sizes, log, seconds))
    out["workspace.high_water_mb"] = workspace_high_water_bytes() / 2**20
    return out

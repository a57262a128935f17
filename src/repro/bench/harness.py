"""Run one benchmark configuration and report the paper's metrics.

A configuration is (model, formulation, task, graph, k, L, p). The
harness executes it on the simulated cluster and reports:

* ``measured_s`` — wall-clock of the threaded simulation (one host; a
  sanity signal, not the plotted quantity);
* ``modeled_s`` — the alpha-beta-gamma machine-model time computed from
  the exact per-rank flop/byte/message accounting. This is what the
  figures plot, because it is the quantity whose *shape* transfers to
  a real cluster (see DESIGN.md's substitution table);
* ``comm_words`` — the BSP communication volume (max words sent by any
  rank), the Section-7 quantity;
* phase breakdowns (attention/softmax/redistribution vs. halo/fetch).
"""

from __future__ import annotations

import csv
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines.dist_local import dist_local_inference, dist_local_train
from repro.baselines.minibatch import MiniBatchConfig, minibatch_train
from repro.distributed.api import distributed_inference, distributed_train
from repro.graphs import erdos_renyi, kronecker, powerlaw_graph
from repro.graphs.prep import graph_stats, prepare_adjacency
from repro.models.gcn import normalize_adjacency
from repro.runtime.costmodel import CostModel
from repro.runtime.stats import RunStats
from repro.tensor.csr import CSRMatrix
from repro.util.rng import make_rng

__all__ = ["BenchRow", "make_graph", "run_config", "write_csv"]


@dataclass
class BenchRow:
    """One measurement — a row of the unified results CSV."""

    figure: str
    model: str
    formulation: str  # "global" | "local" | "minibatch"
    task: str         # "inference" | "training"
    n: int
    m: int
    density: float
    max_degree: int
    k: int
    layers: int
    p: int
    measured_s: float
    modeled_s: float
    modeled_compute_s: float
    modeled_comm_s: float
    comm_words: int
    comm_messages: int
    flops: int
    extra: dict = field(default_factory=dict)

    def as_flat_dict(self) -> dict:
        row = asdict(self)
        extra = row.pop("extra")
        for key, value in extra.items():
            row[f"extra_{key}"] = value
        return row


def make_graph(
    kind: str, n: int, m: int, seed: int = 0
) -> CSRMatrix:
    """Generate an attention-ready adjacency (artifact's ``-d`` flag).

    ``kind`` ∈ {"kronecker", "uniform", "powerlaw"} matching the
    artifact's dataset options (B0/B2/B1-substitute).
    """
    if kind == "kronecker":
        coo = kronecker(n, m, seed=seed)
    elif kind == "uniform":
        coo = erdos_renyi(n, m, seed=seed)
    elif kind == "powerlaw":
        coo = powerlaw_graph(n, m, seed=seed)
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return prepare_adjacency(coo)


def run_config(
    figure: str,
    model: str,
    formulation: str,
    task: str,
    a: CSRMatrix,
    k: int,
    layers: int,
    p: int,
    seed: int = 0,
    cost_model: CostModel | None = None,
    minibatch_size: int = 1024,
    minibatch_fanout: int = 10,
    timeout: float = 600.0,
    extra_info: dict | None = None,
) -> BenchRow:
    """Execute one configuration and return its measurement row.

    ``extra_info`` entries are merged into the row's ``extra`` dict
    (e.g. the nominal density of a sweep point, which the generated
    graph only approximates).
    """
    cost_model = cost_model or CostModel()
    rng = make_rng(seed)
    n = a.shape[0]
    stats_summary = graph_stats(a)
    # N(0, 0.1^2): a VA layer is cubic in its input, and three of them
    # on unit-variance features overflow float32. Counted words, flops
    # and modeled time do not depend on a value.
    features = rng.normal(0, 0.1, (n, k)).astype(np.float32)
    labels = rng.integers(0, max(2, min(16, k)), n, dtype=np.int64)
    out_dim = max(2, min(16, k))
    adjacency = normalize_adjacency(a) if model.lower() == "gcn" else a

    start = time.perf_counter()
    stats = _dispatch(
        formulation, task, model, adjacency, features, labels, k, out_dim,
        layers, p, seed, minibatch_size, minibatch_fanout, timeout,
    )
    measured = time.perf_counter() - start

    breakdown = cost_model.breakdown(stats)
    return BenchRow(
        figure=figure,
        model=model.upper(),
        formulation=formulation,
        task=task,
        n=n,
        m=stats_summary.m,
        density=stats_summary.density,
        max_degree=stats_summary.max_degree,
        k=k,
        layers=layers,
        p=p,
        measured_s=measured,
        modeled_s=breakdown["total_s"],
        modeled_compute_s=breakdown["compute_s"],
        modeled_comm_s=breakdown["communication_s"],
        comm_words=stats.max_words_sent,
        comm_messages=stats.max_messages_sent,
        flops=stats.max_flops,
        extra={
            **(extra_info or {}),
            **{f"phase_{k_}": v for k_, v in stats.phase_bytes().items()},
        },
    )


def _dispatch(
    formulation, task, model, a, features, labels, k, out_dim, layers, p,
    seed, minibatch_size, minibatch_fanout, timeout,
) -> RunStats:
    if formulation == "global":
        if task == "inference":
            return distributed_inference(
                model, a, features, k, out_dim, num_layers=layers, p=p,
                seed=seed, timeout=timeout,
            ).stats
        return distributed_train(
            model, a, features, labels, k, out_dim, num_layers=layers,
            p=p, epochs=1, seed=seed, timeout=timeout, collect_output=False,
        ).stats
    if formulation == "local":
        if task == "inference":
            return dist_local_inference(
                model, a, features, k, out_dim, num_layers=layers, p=p,
                seed=seed, timeout=timeout,
            )[1]
        return dist_local_train(
            model, a, features, labels, k, out_dim, num_layers=layers,
            p=p, epochs=1, seed=seed, timeout=timeout,
        )[1]
    if formulation == "minibatch":
        config = MiniBatchConfig(
            batch_size=minibatch_size,
            fanouts=tuple([minibatch_fanout] * layers),
            seed=seed,
        )
        return minibatch_train(
            model, a, features, labels, k, out_dim, num_layers=layers,
            p=p, iterations=1, config=config, seed=seed, timeout=timeout,
        )[1]
    raise ValueError(f"unknown formulation {formulation!r}")


def write_csv(rows: list[BenchRow], path: str | Path) -> None:
    """Append rows to a unified results CSV (header written once)."""
    path = Path(path)
    rows_flat = [row.as_flat_dict() for row in rows]
    fields: list[str] = []
    for row in rows_flat:
        for key in row:
            if key not in fields:
                fields.append(key)
    exists = path.exists()
    with path.open("a", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, restval="")
        if not exists:
            writer.writeheader()
        writer.writerows(rows_flat)

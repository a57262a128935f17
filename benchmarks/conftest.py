"""Shared infrastructure for the figure-regeneration benchmarks.

Each benchmark file regenerates one figure of the paper: it sweeps that
figure's (model, formulation, n, m, k, p) grid on the simulated
cluster, prints the series the figure plots (modeled time and
communication volume per configuration), appends them to
``benchmarks/results/unified_results.csv``, and asserts the figure's
qualitative claims (who wins, how the gap moves). Wall-clock of a
representative configuration is measured through the pytest-benchmark
fixture so ``--benchmark-only`` produces a timing table as well.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro.bench.harness import BenchRow, make_graph, run_config, write_csv

RESULTS_DIR = Path(__file__).parent / "results"


@functools.lru_cache(maxsize=32)
def cached_graph(kind: str, n: int, m: int, seed: int = 0):
    """Graphs are expensive to generate; share them across sweep points."""
    return make_graph(kind, n, m, seed=seed)


def run_point(
    figure: str,
    model: str,
    formulation: str,
    task: str,
    kind: str,
    n: int,
    m: int,
    k: int,
    p: int,
    layers: int = 3,
    seed: int = 0,
    minibatch_fraction: float = 0.125,
    minibatch_fanout: int = 10,
    rho: float | None = None,
) -> BenchRow:
    """Run one sweep point (graph cached by parameters).

    ``minibatch_fraction`` scales the DistDGL-like batch with the graph,
    preserving the paper's 16k-of-131k ratio at reduced n; the fan-out
    stays at DistDGL's absolute per-hop budget of 10, and the density
    ladder preserves the paper's average-degree-vs-fan-out regimes (see
    ``repro.bench.configs``).
    """
    graph = cached_graph(kind, n, m, seed)
    return run_config(
        figure=figure,
        model=model,
        formulation=formulation,
        task=task,
        a=graph,
        k=k,
        layers=layers,
        p=p,
        seed=seed,
        minibatch_size=max(8, int(graph.shape[0] * minibatch_fraction)),
        minibatch_fanout=minibatch_fanout,
        extra_info=None if rho is None else {"rho": rho},
    )


def emit(rows: list[BenchRow], csv_name: str) -> None:
    """Print figure series and append them to the results CSV."""
    RESULTS_DIR.mkdir(exist_ok=True)
    header = (
        f"{'figure':<14} {'model':<5} {'form':<10} {'task':<9} "
        f"{'n':>7} {'m':>9} {'k':>4} {'p':>3} "
        f"{'modeled_s':>12} {'comm_words':>11}"
    )
    print()
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row.figure:<14} {row.model:<5} {row.formulation:<10} "
            f"{row.task:<9} {row.n:>7} {row.m:>9} {row.k:>4} {row.p:>3} "
            f"{row.modeled_s:>12.6f} {row.comm_words:>11}"
        )
    write_csv(rows, RESULTS_DIR / csv_name)


def by(rows, **filters):
    """Select rows matching attribute filters."""
    out = rows
    for key, value in filters.items():
        out = [r for r in out if getattr(r, key) == value]
    return out


@pytest.fixture
def sweep_benchmark(benchmark):
    """Run a full sweep exactly once under the benchmark timer."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

    return runner

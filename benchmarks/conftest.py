"""Shared infrastructure for the figure-regeneration benchmarks.

Each benchmark file regenerates one figure of the paper: it sweeps that
figure's (model, formulation, n, m, k, p) grid on the simulated
cluster through :func:`repro.bench.sweep.run_sweep` (the
``python -m repro.bench.sweep`` loop), prints the series the figure
plots (modeled time and communication volume per configuration),
writes them to ``benchmarks/results/<figure>.csv``, and asserts the
figure's qualitative claims (who wins, how the gap moves). Wall-clock of a
representative configuration is measured through the pytest-benchmark
fixture so ``--benchmark-only`` produces a timing table as well.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.harness import BenchRow, write_csv

RESULTS_DIR = Path(__file__).parent / "results"


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

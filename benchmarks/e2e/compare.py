#!/usr/bin/env python3
"""Compare two result files of ``run.py --out`` (parent A, change B).

One row per (workload, end-to-end metric): both medians and quartiles,
the change of B's median against A's in the *worse* direction, and the
bound from ``BENCHMARK.json``. A row whose run-to-run spread (distance
between quartiles over the median, the larger of the two sides) exceeds
the bound is *unresolved*, not unchanged -- unless every run of B reads
better than every run of A. Counts that a seed fixes (failed operations,
words sent by the busiest rank, sampled edges per epoch) must be equal in
both files. Exit code 1 when any row is out of bound.

    python3 benchmarks/e2e/compare.py A.json B.json
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> list[dict]:
    """The untraced runs of a results file that printed a result."""
    return [run for run in json.loads(path.read_text())["runs"]
            if not run.get("trace") and "result" in run]


def metric_values(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return values


def exact_counts(runs: list[dict]) -> dict[tuple[str, int, str], float]:
    """(workload, seed, name) -> counts that must repeat exactly per seed."""
    counts: dict[tuple[str, int, str], float] = {}
    for run in runs:
        key = (run["workload"], run["seed"])
        counts[(*key, "failed")] = run["result"]["failed"]
        for name in ("comm_words_max", "edges_per_epoch"):
            if name in run.get("detail", {}):
                counts[(*key, name)] = run["detail"][name]
    return counts


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a_path: Path, b_path: Path, spec: dict) -> int:
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    a_values, b_values = metric_values(a_runs), metric_values(b_runs)
    out_of_bound = 0
    header = (f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'worse by':>9} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                print(f"{workload:<16} {metric['name']:<12} missing in "
                      f"{'A' if key not in a_values else 'B'}")
                out_of_bound += 1
                continue
            a, b = a_values[key], b_values[key]
            a_q1, a_med, a_q3 = summary(a)
            b_q1, b_med, b_q3 = summary(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (b_med - a_med) / a_med
            spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
            all_better = (
                max(b) < min(a) if metric["better"] == "lower"
                else min(b) > max(a)
            )
            if worse_by > metric["bound"]:
                verdict = "OUT OF BOUND"
                out_of_bound += 1
            elif spread > metric["bound"] and not all_better:
                verdict = f"unresolved (spread {spread:.1%})"
            else:
                verdict = "within bound"
            print(
                f"{workload:<16} {metric['name']:<12} "
                f"{a_med:>12.5g} [{a_q1:>8.5g}, {a_q3:>8.5g}] "
                f"{b_med:>12.5g} [{b_q1:>8.5g}, {b_q3:>8.5g}] "
                f"{worse_by:>+9.1%} {metric['bound']:>6.0%}  {verdict}"
            )
    a_counts, b_counts = exact_counts(a_runs), exact_counts(b_runs)
    for key in sorted(set(a_counts) & set(b_counts)):
        if a_counts[key] != b_counts[key]:
            workload, seed, name = key
            print(f"{workload:<16} seed {seed}: {name} differs, "
                  f"{a_counts[key]} vs {b_counts[key]}  OUT OF BOUND")
            out_of_bound += 1
    return 1 if out_of_bound else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(Path(argv[0]), Path(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

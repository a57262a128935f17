"""Benchmark harness regenerating the paper's evaluation.

* :mod:`repro.bench.harness` — run one (model, formulation, task,
  graph, k, L, p) configuration end-to-end on the simulated cluster and
  report measured wall time, modeled time (alpha-beta-gamma), and
  communication volume.
* :mod:`repro.bench.configs` — the per-figure parameter grids, scaled
  to the simulated substrate (see DESIGN.md's experiment index).
* :mod:`repro.bench.unified_bench` — a CLI mirroring the artifact's
  ``unified_single_bench.py`` / ``unified_distr_bench.py`` flags.
* :mod:`repro.bench.sweep`, :mod:`repro.bench.report`,
  :mod:`repro.bench.validate` — the artifact's sweep scripts, plot
  step and reference-implementation check.

The figures compare *counted* quantities (per-rank words, flops,
modeled time). Wall-clock regressions are judged elsewhere, by
``benchmarks/e2e/run.py`` and ``compare.py``; nothing outside this
package imports it.
"""

from repro.bench.configs import FIGURE_CONFIGS, scaled_figure
from repro.bench.harness import BenchRow, make_graph, run_config, write_csv

__all__ = [
    "BenchRow",
    "run_config",
    "make_graph",
    "write_csv",
    "FIGURE_CONFIGS",
    "scaled_figure",
]

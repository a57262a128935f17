"""Figure-sweep driver — the artifact's ``unified_strong.sh`` /
``unified_weak.sh`` equivalents.

The artifact ships shell scripts that enqueue every (model, graph, k,
node-count) job of a figure into SLURM. On the simulated cluster the
whole sweep runs in-process:

.. code-block:: console

    $ python -m repro.bench.sweep fig6_k16 --output benchmarks/results
    $ python -m repro.bench.sweep --list
    $ python -m repro.bench.sweep fig8_weak_kron --scale 2.0

The figure benchmarks (``benchmarks/test_fig*.py``) run the same
:func:`run_sweep`, so either way a figure's CSV gets the same rows.
After a sweep, render the figures with ``python -m repro.bench.report``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from repro.bench.configs import FIGURE_CONFIGS
from repro.bench.harness import make_graph, run_config, write_csv

__all__ = ["run_sweep", "main"]


@functools.lru_cache(maxsize=32)
def _graph(kind: str, n: int, m: int, seed: int):
    """Graphs are expensive to generate; every sweep of a process shares them."""
    return make_graph(kind, n, m, seed=seed)


def run_sweep(
    figure: str,
    scale: float = 1.0,
    seed: int = 0,
    verbose: bool = True,
) -> list:
    """Run every sweep point of a figure, task by task; returns the rows.

    A weak-scaling point records its nominal density as ``extra_rho``: n
    grows with p there, so the generated graphs' measured densities
    drift, and the nominal one names the rung of the density ladder.
    """
    config = FIGURE_CONFIGS[figure]
    rows = []
    for task in config.tasks:
        for model, formulation, n, m, k, p, rho in config.points(scale):
            a = _graph(config.graph_kind, n, m, seed)
            start = time.perf_counter()
            row = run_config(
                figure=figure,
                model=model,
                formulation=formulation,
                task=task,
                a=a,
                k=k,
                layers=config.layers,
                p=p,
                seed=seed,
                # An eighth of the graph per batch keeps the paper's 16k-of-131k
                # DistDGL batch at reduced n (its fan-out stays 10 per hop).
                minibatch_size=max(8, a.shape[0] // 8),
                extra_info={"rho": rho} if config.scaling == "weak" else None,
            )
            rows.append(row)
            if verbose:
                wall = time.perf_counter() - start
                print(
                    f"  {model:<5} {formulation:<10} {task:<9} n={n:<7} k={k:<4} "
                    f"p={p:<3} rho={rho:<8.4g} modeled={row.modeled_s:.3e}s "
                    f"({wall:.1f}s wall)"
                )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sweep", description="Run one figure's full benchmark sweep."
    )
    parser.add_argument("figure", nargs="?", help="figure name")
    parser.add_argument("--list", action="store_true",
                        help="list available figures")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="problem-size multiplier")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="benchmarks/results",
                        help="directory for the results CSV")
    args = parser.parse_args(argv)

    if args.list or not args.figure:
        for name, config in FIGURE_CONFIGS.items():
            print(f"{name:<16} {config.description}")
        return 0
    if args.figure not in FIGURE_CONFIGS:
        print(f"unknown figure {args.figure!r}; use --list", file=sys.stderr)
        return 1
    print(f"sweeping {args.figure} (scale {args.scale}) ...")
    rows = run_sweep(args.figure, scale=args.scale, seed=args.seed)
    from pathlib import Path

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(rows, out_dir / f"{args.figure}.csv")
    print(f"{len(rows)} rows appended to {out_dir / (args.figure + '.csv')}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())

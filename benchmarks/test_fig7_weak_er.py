"""Figure 7 (three rightmost plots) — weak scaling on Erdős–Rényi
graphs: the empirical verification of the Section-7 analysis.

Paper setup: random uniform graphs at densities 1% / 0.1% / 0.01%,
inference, n ∝ sqrt(p); the global formulation vs. DistDGL (the local
formulation), plus a C-GNN (Section 8.4) showing the same volume law.

Reproduced claims (asserted):

* The local/global gap *grows consistently with density* — the paper's
  key predicted trend (Section 7.3: denser ER graphs favour the global
  view; "the difference between DistDGL and our work consistently
  decreases" as rho drops).
* The crossover sits where the theory puts it, q ≈ sqrt(p)/n: at
  p = 16 the lowest-density point lies *below* the crossover (local
  wins) and the highest-density point lies *above* it for the C-GNN
  and VA (global wins), in words sent for both models and in modeled
  time for the C-GNN. VA's modeled time still wins below the crossover
  but no longer above it (0.99 since the local engine counts the
  layers' own flops); that one claim is a strict xfail,
  ``test_fig7_va_modeled_crossover``.
* Measured local halo volume matches the closed-form ER expectation of
  Section 7.3 within a modest factor.

Deviation note (recorded in EXPERIMENTS.md): our local baseline is a
*full-batch* halo-exchange engine, a strictly stronger baseline than
the mini-batch DistDGL the paper plots, so the absolute gaps here are
smaller than the paper's; the density trend and crossover position are
the theory-bearing observables and both reproduce.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import by, emit, sweep_benchmark
from repro.bench.sweep import run_sweep
from repro.theory import erdos_renyi_local_words


def _gaps(rows, model, p, metric="modeled_s"):
    """local/global ``metric`` ratios by increasing density."""
    candidates = by(rows, model=model, p=p)
    out = []
    for rho in sorted({r.extra["rho"] for r in candidates}):
        point = [r for r in candidates if r.extra["rho"] == rho]
        glob = min(
            getattr(r, metric) for r in point if r.formulation == "global"
        )
        local = min(
            getattr(r, metric) for r in point if r.formulation == "local"
        )
        out.append(local / glob)
    return out


def test_fig7_weak_er(sweep_benchmark):
    rows = sweep_benchmark(lambda: run_sweep("fig7_weak_er"))
    emit(rows, "fig7_weak_er.csv")

    models = ("VA", "AGNN", "GAT", "GCN")

    for model in models:
        for p in (4, 16):
            series = _gaps(rows, model, p)
            assert all(a < b for a, b in zip(series, series[1:])), (
                f"{model} p={p}: the local/global gap must grow "
                f"monotonically with density ({series})"
            )
    # Crossover location at p=16 (theory: q = sqrt(16)/4096 ≈ 0.001):
    # below it the local view wins, above it the global view wins for
    # the volume-lean models (C-GNN of Sec. 8.4, and VA) — in words
    # sent, and in modeled time except VA above the crossover (see
    # test_fig7_va_modeled_crossover).
    for model, metric in (
        ("GCN", "comm_words"), ("VA", "comm_words"), ("GCN", "modeled_s"),
    ):
        series = _gaps(rows, model, 16, metric)
        assert series[0] < 1.0, (
            f"{model} {metric}: local should win below the crossover "
            f"({series[0]:.2f})"
        )
        assert series[-1] > 1.0, (
            f"{model} {metric}: global should win above the crossover "
            f"({series[-1]:.2f})"
        )
    series = _gaps(rows, "VA", 16)
    assert series[0] < 1.0, (
        f"VA: local should win below the crossover ({series[0]:.2f})"
    )
    # Attention models carry an extra broadcast; they must still close
    # to near-parity at the densest point.
    for model in ("AGNN", "GAT"):
        series = _gaps(rows, model, 16)
        assert series[-1] > 0.8, (
            f"{model}: expected near-parity at the densest point "
            f"({series[-1]:.2f})"
        )

    # Measured local halo volume tracks the Section-7.3 expectation.
    for row in by(rows, model="GCN", formulation="local", p=4):
        rho = row.m / row.n**2
        predicted = erdos_renyi_local_words(row.n, row.k, row.p, rho)
        halo_words = row.extra.get("phase_halo", 0) // 4
        per_layer = halo_words / row.layers
        assert per_layer == pytest.approx(predicted, rel=0.5), (
            f"n={row.n} rho={rho}: measured {per_layer} vs "
            f"predicted {predicted}"
        )


@pytest.mark.xfail(
    strict=True,
    reason="VA's densest local/global modeled-time ratio is 0.99, not "
    "> 1: the local engine's counted compute is the layers' own flops "
    "(EXPERIMENTS.md, Fig. 7 weak scaling)",
)
def test_fig7_va_modeled_crossover():
    series = _gaps(run_sweep("fig7_weak_er", verbose=False), "VA", 16)
    assert series[-1] > 1.0, (
        f"VA: global should win above the crossover ({series[-1]:.2f})"
    )

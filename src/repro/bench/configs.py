"""Per-figure benchmark configurations, scaled to the simulated cluster.

The artifact's parameter tables (its Tables 1–3) pin each figure's
(n, m, k, node-count) grid; here each figure keeps its *structure* —
which quantities sweep, which stay fixed, the density ladder
1% / 0.1% / 0.01%, n ∝ sqrt(p) weak scaling — while n shrinks by a
constant factor so a laptop-scale simulation finishes in minutes (the
``scale`` knob of :func:`scaled_figure` restores larger sizes when more
time is available).

Scaling map (paper → default here):
    Fig. 6 strong scaling: n = 131k/262k/1M/2M, p ≤ 256
        → n = 2^12, p ∈ {1, 4, 16}
    Fig. 7 weak scaling (Kronecker + ER): n0 = 131k → n0 = 2^10
    Fig. 8 MAKG 111M vertices → power-law 2^13 vertices, 29 edges/vertex
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FigureConfig", "FIGURE_CONFIGS", "scaled_figure"]

MODELS = ("VA", "AGNN", "GAT")
P_GRID = (1, 4, 16)


@dataclass(frozen=True)
class FigureConfig:
    """One figure's sweep description."""

    figure: str
    description: str
    graph_kind: str
    tasks: tuple[str, ...]            # each runs the whole grid, in order
    scaling: str                      # "strong" | "weak"
    base_n: int
    densities: tuple[float, ...]
    ks: tuple[int, ...]
    layers: int = 3
    models: tuple[str, ...] = MODELS
    p_grid: tuple[int, ...] = P_GRID
    formulations: tuple[str, ...] = ("global", "minibatch")

    def points(self, scale: float = 1.0):
        """Yield (model, formulation, n, m, k, p, rho) sweep points.

        Strong scaling fixes (n, m) and sweeps p; weak scaling grows
        n ∝ sqrt(p) at fixed density, so m (= rho n^2) grows ∝ p —
        exactly the paper's setup.
        """
        for model in self.models:
            for formulation in self.formulations:
                for k in self.ks:
                    for rho in self.densities:
                        for p in self.p_grid:
                            if self.scaling == "strong":
                                n = int(self.base_n * scale)
                            else:
                                n = int(self.base_n * scale * (p ** 0.5))
                            m = max(n, int(rho * n * n))
                            yield (model, formulation, n, m, k, p, rho)


FIGURE_CONFIGS: dict[str, FigureConfig] = {
    "fig6_k16": FigureConfig(
        figure="fig6_k16",
        description="Strong scaling, Kronecker, training, k=16 (Fig. 6 a-d)",
        graph_kind="kronecker",
        tasks=("training",),
        scaling="strong",
        base_n=1 << 12,
        # Degree-preserving ladder: the paper's rho in {1%, 0.1%, 0.01%}
        # at n = 131k..262k corresponds to average degrees ~{1310, 131,
        # 13} relative to DistDGL's fixed fan-out budget; at n = 4096 the
        # same degree regimes are d in {1024, 96, 8}.
        densities=(1024 / 4096, 96 / 4096, 8 / 4096),
        ks=(16,),
    ),
    "fig6_k128": FigureConfig(
        figure="fig6_k128",
        description="Strong scaling, Kronecker, training, k=128 (Fig. 6 e-h)",
        graph_kind="kronecker",
        tasks=("training",),
        scaling="strong",
        base_n=1 << 12,
        densities=(1024 / 4096, 8 / 4096),
        ks=(128,),
    ),
    "fig8_weak_kron": FigureConfig(
        figure="fig8_weak_kron",
        description="Weak scaling, Kronecker, training, k=16 (Fig. 8)",
        graph_kind="kronecker",
        tasks=("training",),
        scaling="weak",
        base_n=1 << 11,
        # Chosen so the per-rank edge work (rho * n0^2 edges) amortises
        # message latency, as the paper's 131k-vertex bases do.
        densities=(0.02, 0.002),
        ks=(16,),
    ),
    "fig7_weak_er": FigureConfig(
        figure="fig7_weak_er",
        description=(
            "Weak scaling, Erdos-Renyi, inference, global vs local "
            "(Fig. 7, three rightmost plots / Sec. 8.4)"
        ),
        graph_kind="uniform",
        tasks=("inference",),
        scaling="weak",
        base_n=1 << 10,
        densities=(0.01, 0.001, 0.0001),
        ks=(16,),
        models=("VA", "AGNN", "GAT", "GCN"),
        formulations=("global", "local"),
    ),
    "fig7_makg": FigureConfig(
        figure="fig7_makg",
        description=(
            "Strong scaling on the MAKG-like power-law graph, inference "
            "+ training (Fig. 7, two leftmost plots)"
        ),
        graph_kind="powerlaw",
        tasks=("inference", "training"),
        scaling="strong",
        base_n=1 << 13,
        densities=(29.0 / (1 << 13),),  # 29 edges per vertex, MAKG-like
        ks=(16, 64),
        formulations=("global",),
    ),
}


def scaled_figure(name: str, scale: float = 1.0) -> list[tuple]:
    """All sweep points of a figure at the given size multiplier."""
    config = FIGURE_CONFIGS[name]
    return list(config.points(scale))

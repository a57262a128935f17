"""Communication-cost theory (Section 7).

Closed-form predictors for the per-layer communication volume of the
global and local formulations, the Erdős–Rényi specialisation of
Section 7.3, and exact (graph-aware) calculators that the verification
benchmarks compare against measured traffic.
"""

from repro.theory.comm_model import (
    crossover_density,
    exact_local_halo_words,
    global_layer_words,
    erdos_renyi_local_words,
    predict_training_words,
)

__all__ = [
    "global_layer_words",
    "erdos_renyi_local_words",
    "exact_local_halo_words",
    "crossover_density",
    "predict_training_words",
]

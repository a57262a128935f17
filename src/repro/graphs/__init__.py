"""Graph generators, IO and preprocessing.

The paper's evaluation uses three dataset families (artifact B0–B2):

* **Kronecker graphs** (B0) — Graph500-style R-MAT generator with
  heavy-tail skew, deduplication and minimum-degree repair.
* **MAKG** (B1) — a 111M-vertex real-world graph; substituted here by a
  power-law (Chung–Lu) synthetic with matching skew, see DESIGN.md.
* **Erdős–Rényi graphs** (B2) — random uniform degree distribution,
  used to verify the communication-volume analysis of Section 7.3.

COO ``.npz`` loading/saving matches the artifact's file format.
"""

from repro.graphs.erdos_renyi import erdos_renyi
from repro.graphs.io import load_npz, save_npz
from repro.graphs.kronecker import kronecker
from repro.graphs.powerlaw import powerlaw_graph
from repro.graphs.prep import (
    density,
    graph_stats,
    prepare_adjacency,
)
from repro.graphs.reorder import (
    degree_sort_order,
    load_balance_report,
    permute,
    random_order,
)
from repro.graphs.datasets import synthetic_classification

__all__ = [
    "kronecker",
    "erdos_renyi",
    "powerlaw_graph",
    "load_npz",
    "save_npz",
    "prepare_adjacency",
    "density",
    "graph_stats",
    "synthetic_classification",
    "permute",
    "random_order",
    "degree_sort_order",
    "load_balance_report",
]

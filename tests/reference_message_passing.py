"""A DGL-flavoured message-passing engine (the local formulation; test-only).

DGL's programming model exposes two primitives: ``apply_edges`` (a
generalized SDDMM — compute a value per edge from its endpoint data)
and ``update_all`` (a generalized SpMM — aggregate edge messages into
destination vertices). This module reimplements that model on our CSR
substrate and expresses VA, AGNN and GAT through it, i.e. *exactly the
local formulations of Section 2.2* the paper argues against. They are
the Section-2.2 oracle: local and global formulations must agree
numerically, which ``TestLocalVsGlobalFormulation`` asserts against the
fused sweep. Nothing in the library runs them — the distributed local engine,
:mod:`repro.baselines.dist_local`, runs the global layers. AGNN and GAT
here read the adjacency as a *pattern*, as DGL's ``edge_softmax`` does:
they are comparators on binary graphs only — the global layers multiply
stored weights into the score before the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.activations import leaky_relu
from repro.tensor.csr import CSRMatrix
from repro.tensor.segment import segment_softmax, segment_sum
from repro.util.counters import FlopCounter, null_counter

__all__ = [
    "LocalGraph",
    "local_va_layer",
    "local_agnn_layer",
    "local_gat_layer",
]


@dataclass
class LocalGraph:
    """Graph view for message passing over possibly-remote columns.

    ``pattern`` is a (local-rows x extended-cols) CSR: in the
    single-node case extended == all vertices; in the distributed
    local engine the columns index the rank's owned-plus-halo feature
    table. ``row_features``/``col_features`` are the per-endpoint
    tables — identical objects on a single node.
    """

    pattern: CSRMatrix
    row_features: np.ndarray
    col_features: np.ndarray

    @classmethod
    def single_node(cls, a: CSRMatrix, h: np.ndarray) -> "LocalGraph":
        return cls(pattern=a, row_features=h, col_features=h)

    # ------------------------------------------------------------------
    # DGL-style primitives
    # ------------------------------------------------------------------
    def apply_edges(
        self,
        fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Generalized SDDMM: ``fn(h_src, h_dst, edge_weight)`` per edge.

        ``h_src`` are destination-vertex rows? No — following the
        row-major CSR convention used throughout: the CSR *row* is the
        aggregating vertex and the *column* its neighbour, so ``fn``
        receives ``(h_row, h_col, weight)`` gathers of shape
        ``(nnz, k)``.
        """
        rows = self.pattern.expand_rows()
        cols = self.pattern.indices
        return fn(
            self.row_features[rows], self.col_features[cols], self.pattern.data
        )

    def update_all(
        self,
        messages: np.ndarray,
        reducer: str = "sum",
    ) -> np.ndarray:
        """Generalized SpMM: segment-reduce per-edge messages to rows."""
        if reducer != "sum":
            raise NotImplementedError("baseline engine reduces by sum")
        return segment_sum(messages, self.pattern.indptr)

    def edge_softmax(self, scores: np.ndarray) -> np.ndarray:
        """Per-destination softmax over incident edge scores."""
        return segment_softmax(scores, self.pattern.indptr)


# ----------------------------------------------------------------------
# Local formulations of the three A-GNN layers (inference forward)
# ----------------------------------------------------------------------
def local_va_layer(
    graph: LocalGraph,
    weight: np.ndarray,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """VA in the local view: per-edge dot scores, weighted sum, project.

    Numerically identical to the global :math:`(\\mathcal{A} \\odot
    H H^T) H W`, but expressed edge-wise as DGL would run it.
    """
    nnz, k = graph.pattern.nnz, graph.col_features.shape[1]
    scores = graph.apply_edges(
        lambda hr, hc, w: w * np.einsum("ij,ij->i", hr, hc)
    )
    counter.add(3 * nnz * k, "local_edges")
    messages = scores[:, None] * graph.col_features[graph.pattern.indices]
    aggregated = graph.update_all(messages)
    counter.add(2 * nnz * k + 2 * aggregated.size * weight.shape[1], "local_agg")
    return aggregated @ weight


def local_agnn_layer(
    graph: LocalGraph,
    weight: np.ndarray,
    beta: float = 1.0,
    eps: float = 1e-12,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """AGNN in the local view: cosine scores, edge softmax, sum, project."""
    nnz, k = graph.pattern.nnz, graph.col_features.shape[1]
    norms_row = np.sqrt(
        np.einsum("ij,ij->i", graph.row_features, graph.row_features)
    )
    norms_col = np.sqrt(
        np.einsum("ij,ij->i", graph.col_features, graph.col_features)
    )
    rows = graph.pattern.expand_rows()
    cols = graph.pattern.indices
    cos = graph.apply_edges(
        lambda hr, hc, w: np.einsum("ij,ij->i", hr, hc)
    ) / np.maximum(norms_row[rows] * norms_col[cols], eps)
    attn = graph.edge_softmax(beta * cos)
    counter.add(3 * nnz * k + 7 * nnz, "local_edges")
    messages = attn[:, None] * graph.col_features[cols]
    aggregated = graph.update_all(messages)
    counter.add(2 * nnz * k + 2 * aggregated.size * weight.shape[1], "local_agg")
    return aggregated @ weight


def local_gat_layer(
    graph: LocalGraph,
    weight: np.ndarray,
    a_src: np.ndarray,
    a_dst: np.ndarray,
    slope: float = 0.2,
    counter: FlopCounter = null_counter(),
) -> np.ndarray:
    """GAT in the local view: the per-edge concatenated dot product
    :math:`\\mathbf{a}^T[W h_i \\| W h_j]`, LeakyReLU, edge softmax,
    weighted sum of projected neighbours."""
    nnz = graph.pattern.nnz
    hp_row = graph.row_features @ weight
    hp_col = (
        hp_row
        if graph.col_features is graph.row_features
        else graph.col_features @ weight
    )
    counter.add(
        2 * graph.row_features.size * weight.shape[1], "local_project"
    )
    u = hp_row @ a_src
    v = hp_col @ a_dst
    rows = graph.pattern.expand_rows()
    cols = graph.pattern.indices
    logits = leaky_relu(u[rows] + v[cols], slope)
    attn = graph.edge_softmax(logits)
    counter.add(8 * nnz, "local_edges")
    messages = attn[:, None] * hp_col[cols]
    aggregated = graph.update_all(messages)
    counter.add(2 * nnz * weight.shape[1], "local_agg")
    return aggregated

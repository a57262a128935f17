"""Pre-built :math:`\\Psi` and full-layer DAGs for VA, AGNN and GAT.

These are the global tensor formulations written in the toolchain IR —
the programmability demonstration of the paper: each model is a handful
of Table-2 building blocks, and the fusion pass turns every virtual
intermediate into an SDDMM-like kernel automatically. They are the
library's only definition of these models:
:data:`repro.models.attention.SPECS` lowers the layer DAGs to the specs
every engine runs.

Two granularities are provided:

* ``*_psi_dag`` — the attention operator alone; the DAG output is the
  SPARSE score matrix :math:`\\Psi` (Figure 1).
* ``*_layer_dag`` — the whole layer pre-activation :math:`Z = \\Psi
  (H W)`; the DAG output is DENSE, which is what
  :func:`repro.fusion.autodiff.build_vjp` seeds with :math:`dZ` to
  derive every parameter gradient of the layer (including GAT's
  two-path :math:`dW`) from one joint program. The sparse scores stay
  reachable through the named output ``"S"``.

Inputs expected at execution:

* VA / AGNN — ``H`` (n x k), ``A`` (sparse CSR); layer DAGs add ``W``.
* GAT — ``H``, ``A``, ``W`` (k x k'), ``a_src``/``a_dst`` (k' vectors).
"""

from __future__ import annotations

from repro.fusion.dag import OpDag

__all__ = [
    "va_psi_dag", "agnn_psi_dag", "gat_psi_dag",
    "va_layer_dag", "agnn_layer_dag", "gat_layer_dag",
]


def _graph_softmax(dag: OpDag, scores: int) -> int:
    """Attach the Section-4.2 softmax: exp, row-sum, replicate, divide.

    ``scores`` must be SPARSE; the replicated denominator is virtual
    and fuses into the final sampled division.
    """
    exp = dag.exp(scores)
    denom = dag.replicate(dag.row_sum(exp))
    return dag.divide(exp, denom)


# ----------------------------------------------------------------------
# Psi sub-graphs (shared by the psi-level and layer-level builders)
# ----------------------------------------------------------------------
def _va_psi(dag: OpDag, h: int, a: int) -> int:
    gram = dag.matmul(h, dag.transpose(h))  # virtual n x n
    return dag.hadamard(a, gram)            # sampled on A


def _agnn_psi(dag: OpDag, h: int, a: int, beta: float) -> int:
    gram = dag.matmul(h, dag.transpose(h))          # virtual
    norms = dag.row_norm(h)
    denom = dag.outer(norms, norms)                 # virtual n n^T
    cos = dag.divide(gram, denom)                   # virtual
    masked = dag.hadamard(a, dag.scale(cos, beta))  # sampled
    return _graph_softmax(dag, masked)


def _gat_psi(
    dag: OpDag, hw: int, a: int, a_src: int, a_dst: int, slope: float
) -> int:
    u = dag.matmul(hw, a_src)
    v = dag.matmul(hw, a_dst)
    c = dag.add(dag.replicate(u), dag.replicate_t(v))  # virtual C
    logits = dag.leaky_relu(c, slope=slope)            # virtual
    masked = dag.hadamard(a, logits)                   # sampled
    return _graph_softmax(dag, masked)


# ----------------------------------------------------------------------
# Psi-level DAGs (output: the sparse attention scores)
# ----------------------------------------------------------------------
def va_psi_dag() -> OpDag:
    """:math:`\\Psi_{VA} = \\mathcal{A} \\odot (H H^T)`."""
    dag = OpDag()
    h = dag.input("H", "nk")
    a = dag.input("A", "nn", sparse=True)
    dag.set_output(_va_psi(dag, h, a))
    return dag


def agnn_psi_dag(beta: float = 1.0) -> OpDag:
    """:math:`\\Psi_{AGNN} = \\mathrm{sm}(\\mathcal{A} \\odot \\beta
    (H H^T \\oslash n n^T))`."""
    dag = OpDag()
    h = dag.input("H", "nk")
    a = dag.input("A", "nn", sparse=True)
    dag.set_output(_agnn_psi(dag, h, a, beta))
    return dag


def gat_psi_dag(slope: float = 0.2) -> OpDag:
    """:math:`\\Psi_{GAT} = \\mathrm{sm}(\\mathcal{A} \\odot
    \\mathrm{LeakyReLU}(\\mathrm{rep}(HWa) + \\mathrm{rep}^T(HW\\bar a)))`.

    The Figure-2 derivation verbatim: the concatenated dot product
    splits into :math:`u_i + v_j`, expressed as two replications of the
    projected score vectors.
    """
    dag = OpDag()
    h = dag.input("H", "nk")
    a = dag.input("A", "nn", sparse=True)
    w = dag.input("W", "kk")
    a_src = dag.input("a_src", "k")
    a_dst = dag.input("a_dst", "k")
    hw = dag.matmul(h, w)
    dag.set_output(_gat_psi(dag, hw, a, a_src, a_dst, slope))
    return dag


# ----------------------------------------------------------------------
# Full-layer DAGs (output: the dense pre-activation Z = Psi H W)
# ----------------------------------------------------------------------
def va_layer_dag() -> OpDag:
    """VA layer pre-activation :math:`Z = (\\mathcal{A} \\odot H H^T)
    (H W)` with ``S`` as a named output."""
    dag = OpDag()
    h = dag.input("H", "nk")
    a = dag.input("A", "nn", sparse=True)
    w = dag.input("W", "kk")
    psi = _va_psi(dag, h, a)
    dag.mark_output("S", psi)
    dag.set_output(dag.matmul(psi, dag.matmul(h, w)))
    return dag


def agnn_layer_dag(beta: float = 1.0) -> OpDag:
    """AGNN layer pre-activation :math:`Z = \\Psi_{AGNN} (H W)`.

    ``beta`` is baked into the DAG as a ``scale`` attribute — the
    paper's formulation keeps the temperature fixed; the lowering makes
    it a trained parameter when asked
    (:func:`repro.fusion.lower.lower_layer_dag` with
    ``learnable_beta=True``, as ``build_model("agnn",
    learnable_beta=True)`` asks).
    """
    dag = OpDag()
    h = dag.input("H", "nk")
    a = dag.input("A", "nn", sparse=True)
    w = dag.input("W", "kk")
    psi = _agnn_psi(dag, h, a, beta)
    dag.mark_output("S", psi)
    dag.set_output(dag.matmul(psi, dag.matmul(h, w)))
    return dag


def gat_layer_dag(slope: float = 0.2) -> OpDag:
    """GAT layer pre-activation :math:`Z = \\Psi_{GAT} (H W)`.

    The projection ``H W`` is a *shared* node: the attention logits and
    the aggregation both consume it, so the autodiff pass accumulates
    both Eq.-(7) weight-gradient paths into one ``grad:W`` output
    automatically.
    """
    dag = OpDag()
    h = dag.input("H", "nk")
    a = dag.input("A", "nn", sparse=True)
    w = dag.input("W", "kk")
    a_src = dag.input("a_src", "k")
    a_dst = dag.input("a_dst", "k")
    hw = dag.matmul(h, w)
    psi = _gat_psi(dag, hw, a, a_src, a_dst, slope)
    dag.mark_output("S", psi)
    dag.set_output(dag.matmul(psi, hw))
    return dag

"""Tensor-op DAG: the IR of the toolchain (Figure 4).

Nodes carry a symbolic *shape kind* rather than concrete dimensions —
what matters for sparsity inference and fusion is whether a tensor is
``n x n`` (graph-sized), ``n x k`` (tall), ``k x k`` / ``k`` (parameter
sized), or ``n`` (per-vertex). The op vocabulary covers everything the
three A-GNN :math:`\\Psi` formulations *and their Section-5 backward
formulations* need: matmul, transpose, Hadamard product/division,
addition, row/column summation (the adjoints of ``rep``/``rep^T``),
replication (``rep``/``rep^T`` of Table 2), outer products, row
scaling, element-wise exp/LeakyReLU/scale, and explicit pattern
sampling. A DAG may carry several *named* outputs (forward value plus
per-input gradients), which is how
:mod:`repro.fusion.autodiff` returns joint forward+backward programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["OpNode", "OpDag", "SHAPE_KINDS", "UNARY", "BINARY_ELEMENTWISE"]

SHAPE_KINDS = ("nn", "nk", "kn", "kk", "n", "k", "scalar")

#: The element-wise op vocabulary: sparsity inference, the fusion pass
#: and the executors all dispatch on these two sets.
UNARY = frozenset(
    {"exp", "leaky_relu", "leaky_relu_grad", "scale", "reciprocal"}
)
BINARY_ELEMENTWISE = frozenset({"hadamard", "divide", "add"})


@dataclass
class OpNode:
    """One operation (or input) of the DAG."""

    id: int
    op: str
    inputs: tuple[int, ...]
    shape_kind: str
    name: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or f"%{self.id}"
        args = ", ".join(f"%{i}" for i in self.inputs)
        return f"{label} = {self.op}({args}) : {self.shape_kind}"


class OpDag:
    """A small SSA-style tensor-op graph with a builder API.

    Example — the VA attention operator::

        dag = OpDag()
        h = dag.input("H", "nk")
        a = dag.input("A", "nn", sparse=True)
        scores = dag.matmul(h, dag.transpose(h))   # virtual n x n
        psi = dag.hadamard(a, scores)              # sampled on A
        dag.set_output(psi)
    """

    def __init__(self) -> None:
        self.nodes: list[OpNode] = []
        self.output: int | None = None
        self.outputs: dict[str, int] = {}
        self._sparse_inputs: set[int] = set()

    # ------------------------------------------------------------------
    def _add(self, op: str, inputs: tuple[int, ...], kind: str,
             name: str | None = None, **attrs) -> int:
        if kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {kind!r}")
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise ValueError(f"undefined operand %{i}")
        node = OpNode(len(self.nodes), op, inputs, kind, name, attrs)
        self.nodes.append(node)
        return node.id

    def _kind(self, a: int) -> str:
        """Shape kind of operand ``a`` (validating the reference)."""
        if not 0 <= a < len(self.nodes):
            raise ValueError(f"undefined operand %{a}")
        return self.nodes[a].shape_kind

    def input(self, name: str, kind: str, sparse: bool = False) -> int:
        """Declare a graph input; ``sparse=True`` marks a CSR operand."""
        nid = self._add("input", (), kind, name=name)
        if sparse:
            if kind != "nn":
                raise ValueError("only n x n inputs can be sparse")
            self._sparse_inputs.add(nid)
        return nid

    @property
    def sparse_inputs(self) -> frozenset[int]:
        return frozenset(self._sparse_inputs)

    # ------------------------------------------------------------------
    # Builder ops
    # ------------------------------------------------------------------
    def matmul(self, a: int, b: int) -> int:
        """Matrix product; shape kind follows from operand kinds."""
        ka, kb = self._kind(a), self._kind(b)
        table = {
            ("nk", "kn"): "nn",
            ("nk", "kk"): "nk",
            ("nn", "nk"): "nk",
            ("kn", "nk"): "kk",
            ("kk", "kn"): "kn",
            ("nk", "k"): "n",
            ("kk", "k"): "k",
            # Backward-pass products (Section 5): sparse-times-vector
            # and the adjoints of the tall-times-vector projections.
            ("nn", "n"): "n",
            ("kn", "n"): "k",
        }
        kind = table.get((ka, kb))
        if kind is None:
            raise ValueError(f"matmul of {ka} x {kb} not supported")
        return self._add("matmul", (a, b), kind)

    def transpose(self, a: int) -> int:
        kind = {"nk": "kn", "kn": "nk", "nn": "nn", "kk": "kk"}.get(
            self._kind(a)
        )
        if kind is None:
            raise ValueError("cannot transpose a vector node")
        return self._add("transpose", (a,), kind)

    def hadamard(self, a: int, b: int) -> int:
        """Element-wise product; with a sparse operand this *samples*."""
        return self._elementwise("hadamard", a, b)

    def divide(self, a: int, b: int) -> int:
        """Element-wise (Hadamard) division ``a ⊘ b``."""
        return self._elementwise("divide", a, b)

    def add(self, a: int, b: int) -> int:
        return self._elementwise("add", a, b)

    def _elementwise(self, op: str, a: int, b: int) -> int:
        ka, kb = self._kind(a), self._kind(b)
        if ka != kb:
            raise ValueError(f"{op} operands must share a shape kind")
        return self._add(op, (a, b), ka)

    def exp(self, a: int) -> int:
        return self._add("exp", (a,), self._kind(a))

    def leaky_relu(self, a: int, slope: float = 0.2) -> int:
        return self._add(
            "leaky_relu", (a,), self._kind(a), slope=slope
        )

    def leaky_relu_grad(self, a: int, slope: float = 0.2) -> int:
        """Element-wise LeakyReLU derivative mask (1 or ``slope``)."""
        return self._add(
            "leaky_relu_grad", (a,), self._kind(a), slope=slope
        )

    def scale(self, a: int, factor: float) -> int:
        return self._add("scale", (a,), self._kind(a), factor=factor)

    def reciprocal(self, a: int, eps: float = 0.0) -> int:
        return self._add("reciprocal", (a,), self._kind(a), eps=eps)

    def row_sum(self, a: int) -> int:
        """``sum(X) = X 1`` — per-row summation (Table 2)."""
        kind = {"nn": "n", "nk": "n", "kk": "k"}.get(self._kind(a))
        if kind is None:
            raise ValueError("row_sum needs a matrix operand")
        return self._add("row_sum", (a,), kind)

    def col_sum(self, a: int) -> int:
        """``sum(X^T) = X^T 1`` — per-column summation.

        The adjoint of :meth:`replicate_t` (Table 2's ``rep^T``), used
        throughout the Section-5 backward formulations.
        """
        kind = {"nn": "n", "nk": "k", "kk": "k"}.get(self._kind(a))
        if kind is None:
            raise ValueError("col_sum needs a matrix operand")
        return self._add("col_sum", (a,), kind)

    def row_scale(self, a: int, s: int) -> int:
        """``diag(s) X`` — scale each row of ``a`` by a vector entry.

        The adjoint of :meth:`row_norm` routes through this op:
        :math:`dH \\mathrel{+}= \\mathrm{diag}(dn \\oslash n)\\,H`.
        """
        ka, ks = self._kind(a), self._kind(s)
        if (ka, ks) not in (("nk", "n"), ("nn", "n"), ("kk", "k")):
            raise ValueError(f"row_scale of {ka} by {ks} not supported")
        return self._add("row_scale", (a, s), ka)

    def sample(self, a: int) -> int:
        """Restrict an ``n x n`` operand to the adjacency pattern.

        Explicit Table-1 sampling without an adjacency multiplication:
        the output is SPARSE and carries the operand's values at the
        stored entries only. The autodiff pass emits this whenever the
        adjoint of a SPARSE node is assembled purely from virtual
        contributions (e.g. the replicated softmax-denominator
        gradient).
        """
        if self._kind(a) != "nn":
            raise ValueError("sample needs an n x n operand")
        return self._add("sample", (a,), "nn")

    def row_norm(self, a: int) -> int:
        """Per-row L2 norms of an ``n x k`` operand (AGNN's ``n`` vector)."""
        if self._kind(a) != "nk":
            raise ValueError("row_norm needs an n x k operand")
        return self._add("row_norm", (a,), "n")

    def replicate(self, a: int) -> int:
        """``rep_n(x) = x 1^T`` — column-wise replication to n x n."""
        if self._kind(a) != "n":
            raise ValueError("replicate needs an n-vector")
        return self._add("replicate", (a,), "nn")

    def replicate_t(self, a: int) -> int:
        """``rep_n^T(x) = 1 x^T`` — row-wise replication to n x n."""
        if self._kind(a) != "n":
            raise ValueError("replicate_t needs an n-vector")
        return self._add("replicate_t", (a,), "nn")

    def outer(self, a: int, b: int) -> int:
        """Outer product of two vectors.

        ``(n, n)`` gives AGNN's virtual ``n n^T``; ``(n, k)`` gives the
        rank-1 ``n x k`` feature gradients of the GAT backward pass
        (:math:`du\\,a^T`), which are DENSE (tall, not graph-quadratic).
        """
        kind = {("n", "n"): "nn", ("n", "k"): "nk", ("k", "n"): "kn"}.get(
            (self._kind(a), self._kind(b))
        )
        if kind is None:
            raise ValueError("outer needs two vector operands")
        return self._add("outer", (a, b), kind)

    def set_output(self, a: int) -> None:
        self.output = a

    def mark_output(self, name: str, a: int) -> None:
        """Register ``a`` as a named output (multi-output programs)."""
        if not 0 <= a < len(self.nodes):
            raise ValueError(f"undefined operand %{a}")
        self.outputs[name] = a

    # ------------------------------------------------------------------
    def topological_order(self) -> list[int]:
        """Node ids in definition (already topological) order."""
        return list(range(len(self.nodes)))

    def consumers(self) -> dict[int, list[int]]:
        """Map node id -> ids of nodes consuming it."""
        out: dict[int, list[int]] = {node.id: [] for node in self.nodes}
        for node in self.nodes:
            for operand in node.inputs:
                out[operand].append(node.id)
        return out

    def pretty(self) -> str:
        """Readable listing of the DAG (used in docs/tests)."""
        lines = [repr(node) for node in self.nodes]
        for name, nid in self.outputs.items():
            lines.append(f"output {name} = %{nid}")
        return "\n".join(lines)

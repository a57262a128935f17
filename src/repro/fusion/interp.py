"""The op-DAG interpreter: fused programs evaluated op by op.

This is the derived-path oracle, not a second attention executor: it
never dispatches to the compiled sweep of :mod:`repro.tensor.megakernel`.
A layer DAG reaches that sweep one way only — lowered once to an
:class:`~repro.core.formulation.AttentionSpec`
(:mod:`repro.fusion.lower`) and run by
:class:`~repro.models.attention.AttentionLayer`. Three modes, sharing
one evaluation engine:

``"fused"``
    Fused-kernel semantics: SPARSE nodes are computed by evaluating their
    upstream (possibly virtual) expressions *only at the stored entries*
    of the adjacency pattern — each :class:`~repro.fusion.fuse.FusedKernel`
    becomes one gather + vectorised arithmetic sweep over the edges.
``"tiled"``
    The unfused ablation: virtual :math:`n \\times n` intermediates ARE
    materialised, but one row tile at a time (bounded memory), and the
    sampling ops read from the tiles. Models what a tensor framework
    without the fusion pass must do, at :math:`O(n^2/\\text{tiles})`
    temporary cost per tile — the fusion benchmark quantifies the gap.
``"dense"``
    Fully materialised oracle for tiny graphs (tests only).

Inputs are bound by node *name*; the single sparse input binds a
:class:`~repro.tensor.csr.CSRMatrix` whose pattern every SPARSE node
shares. Outputs: a SPARSE result returns a CSR with the computed edge
values; DENSE results return arrays. A program with *named* outputs
(e.g. a joint forward+backward program from
:mod:`repro.fusion.autodiff`) can be run output-by-output through a
:class:`ProgramRunner`, which keeps every intermediate it computed —
so a backward output evaluated after the forward one reuses the cached
activations instead of recomputing them. A fixed set of named outputs
evaluated again and again — a lowered spec's dense operands and their
VJP, on every layer pass — runs through a :class:`Schedule` instead: one
evaluation order per program, each intermediate freed after its last
read.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.fusion.dag import BINARY_ELEMENTWISE, UNARY, OpDag
from repro.fusion.fuse import FusedProgram, fuse
from repro.fusion.sparsity import Sparsity
from repro.obs.tracer import tracer
from repro.tensor.csr import CSRMatrix
from repro.tensor.kernels import spmm
from repro.tensor.segment import bincount_sum, segment_sum

__all__ = ["execute", "ProgramRunner", "Schedule"]


def execute(
    program: OpDag | FusedProgram,
    inputs: dict[str, Any],
    mode: str = "fused",
    tile_rows: int = 128,
    outputs: list[str] | tuple[str, ...] | None = None,
):
    """Run a psi DAG; returns the output node's value.

    Parameters
    ----------
    program:
        An :class:`OpDag` (fused on the fly) or a pre-fused program.
    inputs:
        Name -> value bindings; the sparse adjacency input must be a
        :class:`CSRMatrix`.
    mode:
        ``"fused"``, ``"tiled"`` or ``"dense"``.
    tile_rows:
        Row-tile height for the tiled executor, a positive integer.
    outputs:
        Names of registered outputs (``dag.mark_output``) to evaluate;
        returns a dict, through a one-off :class:`Schedule`. With ``None``
        the single ``dag.output`` value is returned directly.
    """
    if outputs is not None:
        return Schedule(program, outputs, mode=mode, tile_rows=tile_rows).run(inputs)
    return ProgramRunner(program, inputs, mode=mode, tile_rows=tile_rows).run()


class Schedule:
    """Named outputs of one program in a fixed evaluation order: the dense
    nodes they read, depth first from each output, each step freeing the
    intermediates it reads last (a dense node read by a sparse or virtual
    one, whose edge evaluation is lazy, is kept) and a sum landing in such
    an operand of its own shape. Built once; :meth:`run` evaluates on the
    same engine as :class:`ProgramRunner`, without its per-op ``ir.*``
    spans: a schedule runs inside a caller's span, on every layer pass."""

    def __init__(self, program: OpDag | FusedProgram, outputs, mode: str = "fused",
                 tile_rows: int = 128) -> None:
        program = _checked(program, mode, tile_rows)
        dag, sparsity = program.dag, program.sparsity
        for name in outputs:
            if name not in dag.outputs:
                raise KeyError(f"no output named {name!r}")
        self.program, self.mode, self.tile_rows = program, mode, int(tile_rows)
        self.outputs = tuple((name, dag.outputs[name]) for name in outputs)
        # Depth-first from each output in turn: one output's nodes run back
        # to back, so an intermediate lives only as long as its output needs.
        order: list[int] = []

        def visit(nid: int) -> None:
            if nid not in needed:
                needed.add(nid)
                for operand in dag.nodes[nid].inputs:
                    visit(operand)
                order.append(nid)

        needed: set[int] = set()
        for _, nid in self.outputs:
            visit(nid)
        dense = [nid for nid in order if sparsity[nid] is Sparsity.DENSE]
        self.bound = tuple((nid, dag.nodes[nid].name) for nid in dense
                           if dag.nodes[nid].op == "input")
        steps = [dag.nodes[nid] for nid in dense if dag.nodes[nid].op != "input"]
        kept = {nid for _, nid in self.outputs} | {
            operand for nid in needed if sparsity[nid] is not Sparsity.DENSE
            for operand in dag.nodes[nid].inputs}
        last = {operand: node.id for node in steps for operand in node.inputs
                if operand not in kept and sparsity[operand] is Sparsity.DENSE}
        # A sum may land in an operand this step computed earlier and reads last.
        owned = {node.id for node in steps if node.op != "transpose"}
        self.steps = tuple((node, tuple(d for d, at in last.items() if at == node.id), next(
            (i for i in node.inputs if node.op == "add" and i in owned and last.get(i) == node.id),
            None)) for node in steps)

    def run(self, inputs: dict[str, Any]) -> dict[str, Any]:
        """Evaluate the outputs for one set of input bindings."""
        dag = self.program.dag
        pattern = _find_pattern(dag, inputs) if dag.sparse_inputs else None
        engine = _Engine(self.program, inputs, pattern, self.mode, self.tile_rows)
        values = engine._dense
        for nid, name in self.bound:
            values[nid] = np.asarray(inputs[name])
        for node, dead, into in self.steps:
            if into is not None and (a := values[node.inputs[0]]).shape == (
                b := values[node.inputs[1]]
            ).shape and a.dtype == b.dtype:
                values[node.id] = np.add(a, b, out=values[into])
            else:  # value() without its memo check and span: each step runs once
                values[node.id] = engine._dense_op(node)
            for done in dead:
                del values[done]
        return {name: values[nid] if nid in values else engine.result(nid)
                for name, nid in self.outputs}


def _checked(program: OpDag | FusedProgram, mode: str, tile_rows: int) -> FusedProgram:
    """``program`` fused, once ``mode`` and ``tile_rows`` are valid."""
    if isinstance(program, OpDag):
        program = fuse(program)
    if mode not in ("fused", "tiled", "dense"):
        raise ValueError("mode must be 'fused', 'tiled' or 'dense'")
    if isinstance(tile_rows, bool) or not isinstance(
        tile_rows, (int, np.integer)
    ) or tile_rows < 1:
        raise ValueError(
            f"tile_rows must be a positive integer, got {tile_rows!r}"
        )
    return program


class ProgramRunner:
    """Stateful program executor with cached activations.

    Wraps one :class:`_Engine` whose memo tables persist across
    :meth:`run` calls — the execution contract behind the interpreted
    :class:`repro.fusion.layer.DagLayer`: run the forward output first,
    :meth:`bind` the gradient seed, then run the gradient outputs; all
    forward intermediates (softmax values, projected features, …) are
    reused rather than recomputed. Inputs that no requested output
    depends on (e.g. the seed during forward) may stay unbound.
    """

    def __init__(
        self,
        program: OpDag | FusedProgram,
        inputs: dict[str, Any],
        mode: str = "fused",
        tile_rows: int = 128,
    ) -> None:
        program = _checked(program, mode, tile_rows)
        self.program = program
        self.dag = program.dag
        self._inputs = dict(inputs)
        pattern = _find_pattern(self.dag, self._inputs)
        self._engine = _Engine(
            program, self._inputs, pattern, mode, int(tile_rows)
        )

    @property
    def pattern(self) -> CSRMatrix | None:
        return self._engine.pattern

    def bind(self, name: str, value: Any) -> None:
        """Bind (or rebind) an input by name before it is first read.

        Rebinding an input whose value already flowed into cached
        results is rejected — the memoised activations would be stale.
        """
        for node in self.dag.nodes:
            if node.op == "input" and node.name == name:
                if (node.id in self._engine._dense
                        or node.id in self._engine._edge):
                    raise RuntimeError(
                        f"input {name!r} was already consumed; "
                        "rebinding would desynchronise cached values"
                    )
                if node.id in self.dag.sparse_inputs:
                    _check_sparse(name, value, self._engine.pattern)
                self._inputs[name] = value
                return
        raise KeyError(f"no input named {name!r}")

    def run(self, output: str | None = None):
        """Evaluate one output: a named one, or the default output."""
        if output is None:
            if self.dag.output is None:
                raise ValueError("DAG has no output set")
            return self._engine.result(self.dag.output)
        if output not in self.dag.outputs:
            raise KeyError(f"no output named {output!r}")
        return self._engine.result(self.dag.outputs[output])


def _check_sparse(name: str, value: Any, pattern: CSRMatrix | None) -> None:
    """A sparse input is a CSR on the pattern every sparse input shares:
    the same shape, ``indptr`` and ``indices`` (equal ``nnz`` is not
    enough — the values would land on another pattern's edges)."""
    if not isinstance(value, CSRMatrix):
        raise TypeError(f"sparse input {name!r} must be a CSRMatrix")
    if pattern is None or value.structure is pattern.structure:
        return
    if not (
        value.shape == pattern.shape
        and np.array_equal(value.indptr, pattern.indptr)
        and np.array_equal(value.indices, pattern.indices)
    ):
        raise ValueError(
            f"sparse input {name!r} is not on the pattern the other sparse "
            "inputs share"
        )


def _find_pattern(dag: OpDag, inputs: dict[str, Any]) -> CSRMatrix | None:
    pattern = None
    for nid in dag.sparse_inputs:
        name = dag.nodes[nid].name
        if name not in inputs:
            continue  # may be bound later (e.g. the autodiff seed)
        _check_sparse(name, inputs[name], pattern)
        pattern = inputs[name]
    if pattern is None and dag.sparse_inputs:
        raise TypeError(
            "at least one sparse input must be bound at construction"
        )
    return pattern


class _Engine:
    """Evaluates node values with lazy virtual semantics."""

    def __init__(self, program: FusedProgram, inputs, pattern, mode,
                 tile_rows) -> None:
        self.dag = program.dag
        self.sparsity = program.sparsity
        self.inputs = inputs
        self.pattern = pattern
        self.mode = mode
        self.tile_rows = tile_rows
        self._dense: dict[int, np.ndarray] = {}
        self._edge: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def result(self, nid: int):
        if self.sparsity[nid] is Sparsity.SPARSE:
            return self.pattern.with_data(self.edge_values(nid))
        if self.sparsity[nid] is Sparsity.VIRTUAL:
            raise ValueError("virtual output cannot be returned")
        return self.value(nid)

    # ------------------------------------------------------------------
    # Dense-value evaluation (eager)
    # ------------------------------------------------------------------
    def value(self, nid: int) -> np.ndarray:
        if nid in self._dense:
            return self._dense[nid]
        node = self.dag.nodes[nid]
        sp = self.sparsity[nid]
        if sp is Sparsity.SPARSE:
            raise RuntimeError("sparse node accessed as dense")
        if sp is Sparsity.VIRTUAL and self.mode != "dense":
            raise RuntimeError(
                f"virtual node %{nid} materialisation blocked in "
                f"{self.mode} mode"
            )
        t = tracer()
        if t.enabled:
            with t.span("ir." + node.op, node=nid):
                out = self._dense_op(node)
        else:
            out = self._dense_op(node)
        self._dense[nid] = out
        return out

    def _dense_op(self, node) -> np.ndarray:
        """One dense IR op (the interpreter's dispatch, span-wrapped)."""
        op = node.op
        if op == "input":
            value = self.inputs[node.name]
            out = (
                value.to_dense()
                if isinstance(value, CSRMatrix)
                else np.asarray(value)
            )
        elif op == "matmul":
            out = self._matmul_dense(node)
        elif op == "transpose":
            out = self.value(node.inputs[0]).T
        elif op in BINARY_ELEMENTWISE:
            a = self.value(node.inputs[0])
            b = self.value(node.inputs[1])
            out = _binary(op, a, b)
        elif op in UNARY:
            out = _apply_unary(op, self.value(node.inputs[0]), node.attrs)
        elif op == "row_sum":
            operand = node.inputs[0]
            if self.sparsity[operand] is Sparsity.SPARSE:
                out = segment_sum(self.edge_values(operand),
                                  self.pattern.indptr)
            else:
                out = self.value(operand).sum(axis=1)
        elif op == "col_sum":
            operand = node.inputs[0]
            if self.sparsity[operand] is Sparsity.SPARSE:
                out = bincount_sum(
                    self.pattern.indices,
                    self.edge_values(operand),
                    self.pattern.shape[1],
                )
            else:
                out = self.value(operand).sum(axis=0)
        elif op == "row_norm":
            x = self.value(node.inputs[0])
            out = np.sqrt(np.einsum("ij,ij->i", x, x))
        elif op == "row_scale":
            x = self.value(node.inputs[0])
            s = self.value(node.inputs[1])
            out = s[:, None] * x
        elif op in ("replicate", "replicate_t", "outer"):
            out = self._replicate_dense(node)
        else:  # pragma: no cover
            raise ValueError(f"cannot evaluate op {op!r}")
        return out

    def _as_csr(self, nid: int) -> CSRMatrix | None:
        """Resolve a node to a CSR operand for sparse matrix products.

        Handles SPARSE nodes (edge values on the shared pattern) and
        lazy transposes of SPARSE nodes (the ``S^T G`` / ``N^T H``
        SpMMs of the Section-5 backward formulations) without ever
        aligning transposed edge values with the forward pattern.
        """
        node = self.dag.nodes[nid]
        if self.sparsity[nid] is not Sparsity.SPARSE:
            return None
        if node.op == "transpose":
            operand = node.inputs[0]
            if self.sparsity[operand] is not Sparsity.SPARSE:
                return None
            return self.pattern.with_data(
                self.edge_values(operand)
            ).transpose()
        return self.pattern.with_data(self.edge_values(nid))

    def _matmul_dense(self, node) -> np.ndarray:
        left = self._as_csr(node.inputs[0])
        if left is not None:
            # SpMM / SpMV: sparse-times-dense (Table 2).
            return spmm(left, self.value(node.inputs[1]))
        a = self.value(node.inputs[0])
        b = self.value(node.inputs[1])
        if a.ndim == 2 and b.ndim == 1 and not (
            self.dag.nodes[node.inputs[0]].shape_kind == "kn" and a.T.flags.c_contiguous
        ):
            # Row-stable matrix-vector product: BLAS gemv accumulates
            # differently depending on the row count, which would make
            # attention logits (hence outputs) depend on ego-batch
            # composition; einsum keeps each row's dot bitwise fixed. A
            # column reduction X^T g of a whole X sums over every row
            # anyway and takes BLAS; of one head's strided slice it stays
            # einsum, the sum a head-stacked "nhd,nh->hd" computes.
            return np.einsum("nd,d->n", a, b)
        return a @ b

    def _replicate_dense(self, node) -> np.ndarray:
        if node.op == "outer":
            a = self.value(node.inputs[0])
            b = self.value(node.inputs[1])
            return a[:, None] * b  # np.outer's product, without its wrapper
        x = self.value(node.inputs[0])
        n = x.shape[0]
        if node.op == "replicate":
            return np.broadcast_to(x[:, None], (n, n)).copy()
        return np.broadcast_to(x[None, :], (n, n)).copy()

    # ------------------------------------------------------------------
    # Edge-value evaluation of SPARSE nodes
    # ------------------------------------------------------------------
    def edge_values(self, nid: int) -> np.ndarray:
        if nid in self._edge:
            return self._edge[nid]
        if self.pattern is None:
            raise RuntimeError("no sparse pattern bound")
        rows = self.pattern.expand_rows()
        cols = self.pattern.indices
        t = tracer()
        if t.enabled:
            with t.span("ir.edge." + self.dag.nodes[nid].op, node=nid):
                out = self._edge_op(nid, rows, cols)
        else:
            out = self._edge_op(nid, rows, cols)
        self._edge[nid] = out
        return out

    def _edge_op(self, nid: int, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
        """Evaluate a SPARSE node's stored values (span-wrapped above)."""
        if self.mode == "fused":
            return self._eval_at(nid, rows, cols)
        if self.mode == "dense":
            node = self.dag.nodes[nid]
            if node.op == "input":
                return self.inputs[node.name].data
            return self._dense_of_sparse(nid)[rows, cols]
        return self._eval_tiled(nid, rows, cols)

    def _dense_of_sparse(self, nid: int) -> np.ndarray:
        """Dense-oracle evaluation of a SPARSE node (dense mode only).

        Mask-aware recursion: a sparse tensor's op applies to *stored
        values only* (e.g. ``exp`` of a sparse matrix does not turn
        absent entries into ones), so the result is re-masked after
        every sparse-valued op. This is the executable specification
        the fused/tiled paths are tested against on tiny graphs.
        """
        node = self.dag.nodes[nid]
        mask = self.pattern.to_dense() != 0
        if node.op == "input":
            return self.inputs[node.name].to_dense()
        operands = []
        for operand in node.inputs:
            if self.sparsity[operand] is Sparsity.SPARSE:
                operands.append(self._dense_of_sparse(operand))
            else:
                # Virtual/dense operands evaluate eagerly (dense mode).
                operands.append(self.value(operand))
        op = node.op
        if op in BINARY_ELEMENTWISE:
            a, b = operands
            out = _binary(op, a, b)
        elif op == "sample":
            out = operands[0]
        elif op in UNARY:
            out = _apply_unary(op, operands[0], node.attrs)
        else:
            raise ValueError(f"sparse op {op!r} unsupported in dense mode")
        return np.where(mask, out, 0.0)

    def _eval_at(self, nid: int, rows: np.ndarray, cols: np.ndarray
                 ) -> np.ndarray:
        """Recursive per-edge evaluation — the fused SDDMM-like kernel."""
        node = self.dag.nodes[nid]
        sp = self.sparsity[nid]
        op = node.op
        if sp is Sparsity.SPARSE:
            if op == "input":
                base = self.inputs[node.name].data
                return base if rows is None else base
            # Sampling elementwise op: sparse operand keeps edge values,
            # the other side is evaluated at the edges.
            if op in BINARY_ELEMENTWISE:
                a, b = node.inputs
                va = self._operand_at(a, rows, cols)
                vb = self._operand_at(b, rows, cols)
                return _binary(op, va, vb)
            if op == "sample":
                return self._operand_at(node.inputs[0], rows, cols)
            if op in UNARY:
                v = self._operand_at(node.inputs[0], rows, cols)
                return _apply_unary(op, v, node.attrs)
            raise ValueError(f"sparse op {op!r} unsupported in fused mode")
        if sp is Sparsity.VIRTUAL:
            if op == "matmul":
                a = self.value(node.inputs[0])
                b = self.value(node.inputs[1])
                # Row slices of ``a`` against column slices of ``b``.
                return np.einsum(
                    "ij,ji->i",
                    np.take(a, rows, axis=0),
                    np.take(b, cols, axis=1),
                )
            if op == "transpose":
                return self._operand_at(node.inputs[0], cols, rows)
            if op == "replicate":
                return self.value(node.inputs[0])[rows]
            if op == "replicate_t":
                return self.value(node.inputs[0])[cols]
            if op == "outer":
                return (
                    self.value(node.inputs[0])[rows]
                    * self.value(node.inputs[1])[cols]
                )
            if op in BINARY_ELEMENTWISE:
                va = self._operand_at(node.inputs[0], rows, cols)
                vb = self._operand_at(node.inputs[1], rows, cols)
                return _binary(op, va, vb)
            if op in UNARY:
                v = self._operand_at(node.inputs[0], rows, cols)
                return _apply_unary(op, v, node.attrs)
            raise ValueError(f"virtual op {op!r} unsupported in fused mode")
        raise RuntimeError("dense node reached edge evaluation")

    def _operand_at(self, nid: int, rows, cols) -> np.ndarray:
        sp = self.sparsity[nid]
        if sp is Sparsity.DENSE:
            raise RuntimeError(
                "dense n x n operand in elementwise graph op"
            )
        if sp is Sparsity.SPARSE:
            # Edge values are aligned with the pattern's edge order.
            return self.edge_values(nid)
        return self._eval_at(nid, rows, cols)

    # ------------------------------------------------------------------
    def _eval_tiled(self, nid: int, rows, cols) -> np.ndarray:
        """Tile-materialising evaluation (the unfused ablation).

        Sparse-valued ops stay edge-wise (a framework keeps sparse
        storage sparse); only their *virtual* operands are
        materialised, one row tile at a time, and sampled — the cost a
        tensor framework without the fusion pass pays.
        """
        n = self.pattern.shape[0]
        out = np.empty(self.pattern.nnz)
        indptr = self.pattern.indptr
        for t0 in range(0, n, self.tile_rows):
            t1 = min(t0 + self.tile_rows, n)
            e0, e1 = int(indptr[t0]), int(indptr[t1])
            if e0 == e1:
                continue
            out[e0:e1] = self._edges_in_tile(
                nid, rows[e0:e1], cols[e0:e1], e0, e1, t0, t1
            )
        return out

    def _edges_in_tile(self, nid, rows, cols, e0, e1, t0, t1) -> np.ndarray:
        """Edge values of a SPARSE node restricted to a row tile."""
        node = self.dag.nodes[nid]
        op = node.op
        if op == "input":
            return self.inputs[node.name].data[e0:e1]
        operands = []
        for operand in node.inputs:
            sp = self.sparsity[operand]
            if sp is Sparsity.SPARSE:
                operands.append(
                    self._edges_in_tile(operand, rows, cols, e0, e1, t0, t1)
                )
            elif sp is Sparsity.VIRTUAL:
                tile = self._tile_value(operand, t0, t1)
                operands.append(tile[rows - t0, cols])
            else:
                raise RuntimeError(
                    "dense n x n operand in sampled elementwise op"
                )
        if op in BINARY_ELEMENTWISE:
            a, b = operands
            return _binary(op, a, b)
        if op == "sample":
            return operands[0]
        if op in UNARY:
            return _apply_unary(op, operands[0], node.attrs)
        raise ValueError(f"sparse op {op!r} unsupported in tiled mode")

    def _tile_value(self, nid: int, t0: int, t1: int) -> np.ndarray:
        """Materialise rows [t0, t1) of an n x n node (tiled mode)."""
        node = self.dag.nodes[nid]
        op = node.op
        sp = self.sparsity[nid]
        if sp is Sparsity.SPARSE and op == "input":
            block = self.inputs[node.name].extract_block(
                t0, t1, 0, self.pattern.shape[1]
            )
            return block.to_dense()
        if op == "matmul":
            a = self.value(node.inputs[0])
            b = self.value(node.inputs[1])
            return a[t0:t1] @ b
        if op == "transpose":
            raise NotImplementedError(
                "tiled executor does not transpose n x n operands"
            )
        if op == "replicate":
            return np.broadcast_to(
                self.value(node.inputs[0])[t0:t1, None],
                (t1 - t0, self.pattern.shape[1]),
            )
        if op == "replicate_t":
            return np.broadcast_to(
                self.value(node.inputs[0])[None, :],
                (t1 - t0, self.pattern.shape[1]),
            )
        if op == "outer":
            return np.outer(
                self.value(node.inputs[0])[t0:t1], self.value(node.inputs[1])
            )
        if op in BINARY_ELEMENTWISE:
            a = self._tile_value(node.inputs[0], t0, t1)
            b = self._tile_value(node.inputs[1], t0, t1)
            return _binary(op, a, b)
        if op in UNARY:
            return _apply_unary(
                op, self._tile_value(node.inputs[0], t0, t1), node.attrs
            )
        if op == "row_sum" or op == "row_norm":
            raise NotImplementedError("vector ops are not tiled")
        raise ValueError(f"cannot tile op {op!r}")


def _safe_div(a, b):
    return a / np.where(b == 0, 1.0, b) * (b != 0)


def _binary(op: str, a, b):
    if op == "hadamard":
        return a * b
    if op == "add":
        return a + b
    if op == "divide":
        return _safe_div(a, b)
    raise ValueError(op)


def _apply_unary(op: str, v: np.ndarray, attrs: dict) -> np.ndarray:
    if op == "exp":
        return np.exp(v)
    if op == "leaky_relu":
        return np.where(v > 0, v, attrs["slope"] * v)
    if op == "leaky_relu_grad":
        return np.where(v > 0, np.ones_like(v), attrs["slope"])
    if op == "scale":
        return attrs["factor"] * v
    if op == "reciprocal":
        return 1.0 / np.maximum(v, attrs.get("eps", 0.0) or 1e-300)
    raise ValueError(op)

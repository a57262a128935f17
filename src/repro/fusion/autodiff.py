"""Reverse-mode autodiff over the op-DAG IR (Section 5, derived).

The paper's programmability claim is that a model author writes only
the forward :math:`\\Psi` formulation and the toolchain (Figure 4)
derives everything else — including the Section-5 backward tensor
formulations. This pass delivers that for the IR: given a forward
:class:`~repro.fusion.dag.OpDag`, :func:`build_vjp` emits the backward
DAG *in the same IR*, using the per-op vector-Jacobian rules implied by
Table 2 and Section 5:

===================  ==============================================
forward op           adjoint rule
===================  ==============================================
``matmul``           :math:`dA = G B^T`, :math:`dB = A^T G`
``hadamard``         :math:`dA = G \\odot B` (and symmetrically)
``divide``           :math:`dA = G \\oslash B`,
                     :math:`dB = -(G \\oslash B) \\odot (A \\oslash B)`
``exp``              :math:`dA = G \\odot e^A` (forward value reused)
``leaky_relu``       :math:`dA = G \\odot \\mathrm{LReLU}'(A)`
``replicate``        ``row_sum`` (``rep`` and ``sum`` are adjoint)
``replicate_t``      ``col_sum``
``row_sum``          ``replicate``
``col_sum``          ``replicate_t``
``outer``            :math:`da = G b`, :math:`db = G^T a`
``row_norm``         ``row_scale`` by :math:`dn \\oslash n`
graph softmax        composition of the rules above — no special case
===================  ==============================================

Sparsity is *inferred, not assumed*: the adjoint of every virtual
:math:`n \\times n` intermediate is sampled on the adjacency pattern
(a gradient can only flow back through the sampling op that consumed
the virtual value), so the emitted backward DAG passes the Section-6.2
fusion pass unchanged and every backward n-quadratic intermediate
becomes an SDDMM-like kernel, exactly like the forward ones. When the
adjoint of a SPARSE node would otherwise assemble from purely virtual
contributions (the replicated softmax-denominator gradient), an
explicit ``sample`` op restores the invariant.

The result is a *joint* program: one DAG holding the forward nodes, a
gradient seed input, and one named output per requested input gradient.
Executing it through a
:class:`~repro.fusion.interp.ProgramRunner` evaluates the forward
output first and the gradients later, against cached activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.fusion.dag import OpDag
from repro.fusion.fuse import FusedProgram, fuse
from repro.fusion.sparsity import Sparsity, infer_sparsity

__all__ = ["GradProgram", "build_vjp"]

#: Shape kinds that a plain ``matmul(transpose(a), g)`` adjoint covers.
_MATRIX_KINDS = ("nn", "nk", "kn", "kk")


@dataclass
class GradProgram:
    """A joint forward+backward DAG emitted by :func:`build_vjp`.

    Attributes
    ----------
    dag:
        The joint DAG. Node ids ``0 .. len(forward)-1`` are the copied
        forward nodes; the default output is the forward output; the
        named outputs ``grad:<name>`` are the input gradients.
    seed:
        Name of the gradient-seed input (bind it before running any
        gradient output); the names in order when several outputs are
        seeded.
    output:
        Id of the forward output node inside the joint DAG (``None``
        when named outputs are seeded).
    grads:
        Differentiated input name -> gradient node id.
    """

    dag: OpDag
    seed: str | tuple[str, ...]
    output: int | None
    grads: dict[str, int] = field(default_factory=dict)

    def fuse(self) -> FusedProgram:
        """Run the Section-6.2 fusion pass over the joint DAG."""
        return fuse(self.dag)

    def describe(self) -> str:
        """Full forward+backward listing with kernels (docs/reports)."""
        return self.fuse().describe()


def build_vjp(
    forward: OpDag,
    wrt: Iterable[str],
    seed_name: str | Sequence[tuple[str, str]] = "dOut",
) -> GradProgram:
    """Derive the backward DAG of ``forward`` w.r.t. named inputs.

    Parameters
    ----------
    forward:
        A forward DAG with ``output`` set (SPARSE or DENSE output).
    wrt:
        Names of the inputs whose gradients are wanted. Inputs not
        listed (typically the adjacency) get no adjoint nodes at all —
        the backward DAG is pruned to the requested gradients.
    seed_name:
        Name of the seed input carrying :math:`\\partial L/\\partial
        \\mathrm{out}`. It shares the output's shape kind, and is a
        sparse input when the output is SPARSE (bind the gradient edge
        values as a CSR on the adjacency pattern). Or several
        ``(named output, seed name)`` pairs, the VJP of all those outputs
        at once: seeds that reach one node are summed in pair order, so
        an output named twice, or two names of one node, add up.

    Returns
    -------
    A :class:`GradProgram` whose DAG contains the forward program plus
    the derived backward, with ``grad:<name>`` outputs registered.
    """
    if isinstance(seed_name, str):
        if forward.output is None:
            raise ValueError("forward DAG has no output set")
        pairs, output = [(forward.output, seed_name)], forward.output
    else:
        unknown = [out for out, _ in seed_name if out not in forward.outputs]
        if unknown or not seed_name:
            raise ValueError(f"no named outputs {unknown} to seed")
        pairs = [(forward.outputs[out], seed) for out, seed in seed_name]
        output = None
    wrt = tuple(wrt)
    names = {
        node.name for node in forward.nodes if node.op == "input"
    }
    for name in wrt:
        if name not in names:
            raise ValueError(f"no input named {name!r} to differentiate")

    dag = _copy_dag(forward)
    fwd_count = len(forward.nodes)
    fwd_cls = infer_sparsity(forward)

    # Forward-propagate which nodes depend on a requested input: only
    # those need adjoints (prunes e.g. the adjacency's gradient).
    needs: set[int] = set()
    for node in forward.nodes:
        if node.op == "input" and node.name in wrt:
            needs.add(node.id)
        elif any(i in needs for i in node.inputs):
            needs.add(node.id)
    if not any(nid in needs for nid, _ in pairs):
        raise ValueError(
            "the output does not depend on any requested input"
        )

    # Lazily re-run sparsity inference as the joint DAG grows; DAGs are
    # tens of nodes, so recomputation is cheaper than bug-prone
    # incremental bookkeeping.
    cls_cache: dict[int, Sparsity] = {}

    def cls(nid: int) -> Sparsity:
        if nid not in cls_cache:
            cls_cache.clear()
            cls_cache.update(infer_sparsity(dag))
        return cls_cache[nid]

    contributions: dict[int, list[int]] = {}

    def push(target: int, grad: int) -> None:
        if target in needs:
            contributions.setdefault(target, []).append(grad)

    for nid, name in pairs:
        kind = forward.nodes[nid].shape_kind
        sparse = fwd_cls[nid] is Sparsity.SPARSE
        push(nid, dag.input(name, kind, sparse=sparse))

    grads: dict[str, int] = {}
    for nid in range(fwd_count - 1, -1, -1):
        parts = contributions.get(nid)
        if not parts:
            continue
        node = dag.nodes[nid]
        total = parts[0]
        for extra in parts[1:]:
            total = dag.add(total, extra)
        if (
            fwd_cls[nid] is Sparsity.SPARSE
            and cls(total) is Sparsity.VIRTUAL
        ):
            # Adjoint of a sparse tensor lives on the pattern: sample
            # the virtual accumulation instead of materialising it.
            total = dag.sample(total)
        if node.op == "input":
            grads[node.name] = total
            continue
        _emit_vjp(dag, node, total, push, cls, needs)

    for name in wrt:
        if name not in grads:  # pragma: no cover - guarded by `needs`
            raise RuntimeError(f"no gradient reached input {name!r}")
        dag.mark_output(f"grad:{name}", grads[name])
    seeds = tuple(name for _, name in pairs)
    return GradProgram(
        dag=dag, seed=seeds[0] if output is not None else seeds,
        output=output, grads=grads,
    )


def _copy_dag(forward: OpDag) -> OpDag:
    """Clone a DAG node-for-node (ids and named outputs preserved)."""
    dag = OpDag()
    for node in forward.nodes:
        dag._add(
            node.op, node.inputs, node.shape_kind, name=node.name,
            **node.attrs,
        )
    dag._sparse_inputs.update(forward.sparse_inputs)
    dag.output = forward.output
    dag.outputs.update(forward.outputs)
    return dag


def _emit_vjp(dag: OpDag, node, g: int, push, cls, needs) -> None:
    """Append the adjoint nodes of one forward op, seeding its inputs.

    ``g`` is the node's accumulated output adjoint; ``push(operand,
    grad)`` registers a contribution (no-op for operands outside the
    differentiated cone). ``needs`` gates node *construction* where a
    rule would otherwise emit dead adjoint products.
    """
    op = node.op
    kind = lambda nid: dag.nodes[nid].shape_kind  # noqa: E731

    if op == "matmul":
        a, b = node.inputs
        _emit_matmul_vjp(dag, a, b, g, push, cls, kind, needs)
        return
    operand = node.inputs[0] if node.inputs else None
    if op == "transpose":
        if operand in needs:
            push(operand, dag.transpose(g))
    elif op == "hadamard":
        a, b = node.inputs
        if a in needs:
            push(a, dag.hadamard(g, b))
        if b in needs:
            push(b, dag.hadamard(g, a))
    elif op == "divide":
        a, b = node.inputs
        if a in needs or b in needs:
            ga = dag.divide(g, b)
            push(a, ga)
            if b in needs:
                # d/dB (A ⊘ B) = -(G ⊘ B) ⊙ (A ⊘ B): forward reuse.
                push(b, dag.scale(dag.hadamard(ga, node.id), -1.0))
    elif op == "add":
        push(node.inputs[0], g)
        push(node.inputs[1], g)
    elif op == "exp":
        if operand in needs:
            push(operand, dag.hadamard(g, node.id))
    elif op == "leaky_relu":
        if operand in needs:
            mask = dag.leaky_relu_grad(operand, node.attrs["slope"])
            push(operand, dag.hadamard(g, mask))
    elif op == "leaky_relu_grad":
        pass  # piecewise-constant: zero gradient almost everywhere
    elif op == "scale":
        if operand in needs:
            push(operand, dag.scale(g, node.attrs["factor"]))
    elif op == "reciprocal":
        if operand in needs:
            sq = dag.hadamard(node.id, node.id)
            push(operand, dag.scale(dag.hadamard(g, sq), -1.0))
    elif op == "row_sum":
        if operand in needs:
            if kind(operand) != "nn":
                raise NotImplementedError(
                    "row_sum adjoint is only derived for n x n operands"
                )
            push(operand, dag.replicate(g))
    elif op == "col_sum":
        if operand in needs:
            if kind(operand) != "nn":
                raise NotImplementedError(
                    "col_sum adjoint is only derived for n x n operands"
                )
            push(operand, dag.replicate_t(g))
    elif op == "row_norm":
        # n = ||h_i||: dH += diag(dn ⊘ n) H.
        if operand in needs:
            push(operand, dag.row_scale(operand, dag.divide(g, node.id)))
    elif op == "row_scale":
        x, s = node.inputs
        if x in needs:
            push(x, dag.row_scale(g, s))
        if s in needs:
            push(s, dag.row_sum(dag.hadamard(g, x)))
    elif op == "replicate":
        if operand in needs:
            push(operand, dag.row_sum(g))
    elif op == "replicate_t":
        if operand in needs:
            push(operand, dag.col_sum(g))
    elif op == "outer":
        a, b = node.inputs
        if a in needs:
            push(a, dag.matmul(g, b))
        if b in needs:
            push(b, dag.matmul(dag.transpose(g), a))
    elif op == "sample":
        push(node.inputs[0], g)
    else:
        raise NotImplementedError(f"no VJP rule for op {op!r}")


def _emit_matmul_vjp(dag, a, b, g, push, cls, kind, needs) -> None:
    """Adjoints of ``matmul(a, b)`` for every supported kind pairing.

    The emitted products are exactly the Section-5 kernel shapes: the
    adjoint of an SDDMM-shaped virtual product is an SpMM pair, the
    adjoint of an SpMM is an SDDMM (sampled through the sparsity of the
    adjoint), and tall-times-vector projections turn into rank-1 outer
    products plus transposed matrix-vector products.
    """
    if a in needs:
        if kind(b) in _MATRIX_KINDS:
            ga = dag.matmul(g, dag.transpose(b))
        else:  # vector second operand: rank-1 gradient
            ga = dag.outer(g, b)
        if cls(a) is Sparsity.SPARSE and cls(ga) is Sparsity.VIRTUAL:
            ga = dag.sample(ga)
        push(a, ga)
    if b in needs:
        if kind(g) == "nn":
            # nk x kn -> nn: dB = (G^T A)^T keeps the sparse adjoint on
            # the left of the product (an SpMM the engine can run).
            gb = dag.transpose(dag.matmul(dag.transpose(g), a))
        else:
            gb = dag.matmul(dag.transpose(a), g)
        if cls(b) is Sparsity.SPARSE and cls(gb) is Sparsity.VIRTUAL:
            gb = dag.sample(gb)
        push(b, gb)

"""The fusing pass (Section 6.2).

Verbatim from the paper: *"we traverse the DAG until we find an edge
whose output is a virtual matrix. Then, we continue to traverse the
graph until we meet an edge where the output is a sparse intermediate
result ... we proceed by fusing all the operations in this path to
generate an SDDMM-like kernel."*

:func:`fuse` performs exactly this analysis: for every VIRTUAL node it
follows consumer edges through virtual-valued operations until a
SPARSE-valued sampling op is reached, then groups the traversed path
into a :class:`FusedKernel`. The pass also *validates* the program: a
virtual node whose value escapes through anything other than a sampled
path (or a tolerated reduction) can never be executed without
materialising an :math:`n \\times n` dense, so it is rejected at
compile time rather than at 10^18-byte allocation time.

The fused program is interpreted by :mod:`repro.fusion.interp`, whose
fused mode evaluates each kernel only at the stored entries of the
sampling pattern — the "basic form of the kernels iterates over the
non-zero values of the sparse matrix performing the sampling".
:func:`match_attention_chain` recognises a layer's whole SDDMM →
softmax → SpMM chain, forward only, for :mod:`repro.fusion.lower`,
which derives from it the spec the compiled sweep runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fusion.dag import BINARY_ELEMENTWISE, UNARY, OpDag
from repro.fusion.sparsity import Sparsity, infer_sparsity

__all__ = [
    "AttentionChain",
    "FusedKernel",
    "FusedProgram",
    "fuse",
    "match_attention_chain",
]

#: Ops that can traverse a virtual value without materialising it.
_EDGEWISE = UNARY | BINARY_ELEMENTWISE | {"transpose", "sample"}


@dataclass
class FusedKernel:
    """One SDDMM-like fused kernel.

    Attributes
    ----------
    output:
        The SPARSE node whose stored values the kernel produces.
    fused_nodes:
        The VIRTUAL (and intermediate edge-wise) node ids folded into
        the kernel — these never materialise.
    dense_operands:
        DENSE node ids the kernel reads (tall feature matrices,
        vectors) — its gather sources.
    """

    output: int
    fused_nodes: tuple[int, ...]
    dense_operands: tuple[int, ...]

    def describe(self, dag: OpDag) -> str:
        """Human-readable kernel summary for reports/tests."""
        ops = [dag.nodes[i].op for i in self.fused_nodes]
        return f"SDDMM-like[{dag.nodes[self.output].op}] fusing {ops}"


@dataclass
class FusedProgram:
    """Result of the pass: the DAG plus its kernel grouping."""

    dag: OpDag
    sparsity: dict[int, Sparsity]
    kernels: list[FusedKernel] = field(default_factory=list)

    @property
    def virtual_nodes(self) -> list[int]:
        return [i for i, s in self.sparsity.items() if s is Sparsity.VIRTUAL]

    def describe(self) -> str:
        """Full-program listing: every node with its sparsity class,
        kernel membership, and the fused-kernel summaries.

        Builds on :meth:`FusedKernel.describe`; covers joint
        forward+backward programs (see :mod:`repro.fusion.autodiff`)
        as well as forward-only ones. Used by the docs/examples to show
        what the toolchain derived.
        """
        kernel_of: dict[int, int] = {}
        for index, kernel in enumerate(self.kernels):
            kernel_of[kernel.output] = index
            for nid in kernel.fused_nodes:
                kernel_of[nid] = index
        lines = []
        for node in self.dag.nodes:
            tag = self.sparsity[node.id].value
            where = (
                f"  [kernel {kernel_of[node.id]}]"
                if node.id in kernel_of
                else ""
            )
            lines.append(f"{node!r:<48} : {tag}{where}")
        for name, nid in self.dag.outputs.items():
            lines.append(f"output {name} = %{nid}")
        lines.append(f"-- {len(self.kernels)} fused kernel(s) --")
        for index, kernel in enumerate(self.kernels):
            lines.append(f"kernel {index}: {kernel.describe(self.dag)}")
        return "\n".join(lines)


@dataclass
class AttentionChain:
    """A recognised SDDMM → (softmax) → SpMM attention chain.

    Produced by :func:`match_attention_chain`, consumed by
    :func:`repro.fusion.lower.lower_layer_dag`, which turns it into the
    score ``kind`` of an :class:`~repro.core.formulation.AttentionSpec`.
    The node-valued fields hold *node ids* of the program's DAG:
    ``adjacency`` (the sparse input whose stored values are the Hadamard
    mask), ``y`` (the DENSE aggregation operand) and the dense score
    operands — ``x_src`` / ``x_dst`` for ``"dot"`` / ``"cosine"``, plus
    ``norms`` for ``"cosine"``, ``u`` / ``v`` for ``"add"``.
    """

    psi_kind: str  #: ``"dot"`` | ``"add"`` | ``"cosine"``
    softmax: bool
    adjacency: int
    y: int
    slope: float = 0.2
    beta: float = 1.0
    x_src: int | None = None
    x_dst: int | None = None
    norms: int | None = None
    u: int | None = None
    v: int | None = None


def match_attention_chain(program: FusedProgram) -> AttentionChain | None:
    """Recognise the attention chain of a fused layer program, or ``None``.

    Matches the forward shapes of the :mod:`repro.fusion.models` layers —
    ``Z = Psi @ Y`` with ``Psi`` either a masked virtual score
    (``hadamard(A, score)``) or the Section-4.2 graph softmax of one —
    for all three score kinds:

    * ``matmul(x_src, transpose(x_dst))``          → ``"dot"`` (VA)
    * ``scale(divide(gram, outer(norms, norms)))`` → ``"cosine"`` (AGNN)
    * ``leaky_relu(add(replicate(u), replicate_t(v)))`` → ``"add"`` (GAT)

    Only the forward is matched: the sweep's backward is derived from it,
    not recognised in an autodiff emission.
    """
    dag = program.dag
    nodes = dag.nodes
    sparsity = program.sparsity

    def transposed(nid: int) -> int | None:
        """The base of an odd number of transposes, else ``None``."""
        hops = 0
        while nodes[nid].op == "transpose":
            nid = nodes[nid].inputs[0]
            hops += 1
        return nid if hops % 2 else None

    z = dag.output
    if z is None or nodes[z].op != "matmul" or len(nodes[z].inputs) != 2:
        return None
    psi_id, y_id = nodes[z].inputs
    if (
        sparsity.get(psi_id) is not Sparsity.SPARSE
        or sparsity.get(y_id) is not Sparsity.DENSE
        or nodes[psi_id].shape_kind != "nn"
        or nodes[y_id].shape_kind != "nk"
    ):
        return None

    # ---- optional graph softmax: divide(exp(m), replicate(row_sum)) --
    softmax = False
    masked_id = psi_id
    top = nodes[psi_id]
    if top.op == "divide":
        exp_id, denom_rep = top.inputs
        if nodes[exp_id].op != "exp" or nodes[denom_rep].op != "replicate":
            return None
        row_sum_id = nodes[denom_rep].inputs[0]
        if (
            nodes[row_sum_id].op != "row_sum"
            or nodes[row_sum_id].inputs[0] != exp_id
        ):
            return None
        masked_id = nodes[exp_id].inputs[0]
        softmax = True
    masked = nodes[masked_id]
    if masked.op != "hadamard":
        return None
    adjacency = score_id = None
    for cand, other in (masked.inputs, masked.inputs[::-1]):
        if (
            nodes[cand].op == "input"
            and sparsity.get(cand) is Sparsity.SPARSE
        ):
            adjacency, score_id = cand, other
            break
    if adjacency is None:
        return None

    # ---- classify the score expression -------------------------------
    chain = AttentionChain(
        psi_kind="", softmax=softmax, adjacency=adjacency, y=y_id
    )
    score = nodes[score_id]
    gram_id = score_id
    if score.op == "scale":
        chain.psi_kind = "cosine"
        chain.beta = float(score.attrs["factor"])
        cos_id = score.inputs[0]
        if nodes[cos_id].op != "divide":
            return None
        gram_id, outer_id = nodes[cos_id].inputs
        if nodes[outer_id].op != "outer":
            return None
        norms_l, norms_r = nodes[outer_id].inputs
        if norms_l != norms_r or nodes[norms_l].shape_kind != "n":
            return None
        chain.norms = norms_l
    elif score.op == "leaky_relu":
        chain.psi_kind = "add"
        chain.slope = float(score.attrs["slope"])
        c_id = score.inputs[0]
        if nodes[c_id].op != "add":
            return None
        reps = {nodes[r].op: r for r in nodes[c_id].inputs}
        if set(reps) != {"replicate", "replicate_t"}:
            return None
        chain.u, chain.v = (
            nodes[reps[op]].inputs[0] for op in ("replicate", "replicate_t")
        )
        return chain
    elif score.op == "matmul":
        chain.psi_kind = "dot"
    else:
        return None
    if nodes[gram_id].op != "matmul":
        return None
    left, right = nodes[gram_id].inputs
    chain.x_src, chain.x_dst = left, transposed(right)
    return chain if chain.x_dst is not None else None


def fuse(dag: OpDag) -> FusedProgram:
    """Run sparsity inference + the path-fusing analysis.

    Raises ``ValueError`` if some virtual intermediate cannot be fused
    away (its value would have to materialise).
    """
    sparsity = infer_sparsity(dag)
    consumers = dag.consumers()
    out_nodes = set(dag.outputs.values())
    if dag.output is not None:
        out_nodes.add(dag.output)

    # Validate: every virtual node's consumers must themselves be
    # virtual edge-wise ops or sparse sampling ops.
    for node in dag.nodes:
        if sparsity[node.id] is not Sparsity.VIRTUAL:
            continue
        uses = consumers[node.id]
        if not uses and node.id not in out_nodes:
            continue  # dead virtual — harmless
        if node.id in out_nodes:
            raise ValueError(
                f"virtual node %{node.id} is a DAG output; it would "
                "materialise an n x n dense matrix"
            )
        for user in uses:
            user_node = dag.nodes[user]
            user_sparsity = sparsity[user]
            consumable = (
                user_node.op in _EDGEWISE
                and user_sparsity in (Sparsity.VIRTUAL, Sparsity.SPARSE)
            )
            if not consumable:
                raise ValueError(
                    f"virtual node %{node.id} escapes through "
                    f"{user_node.op} (%{user}); cannot fuse"
                )

    # Group each sparse sampling op with the maximal virtual subgraph
    # feeding it (the paper's virtual->...->sparse path).
    kernels: list[FusedKernel] = []
    for node in dag.nodes:
        if sparsity[node.id] is not Sparsity.SPARSE or node.op == "input":
            continue
        # Walk upstream collecting reachable virtual nodes.
        fused: list[int] = []
        dense_ops: list[int] = []
        stack = [i for i in node.inputs]
        seen = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if sparsity[current] is Sparsity.VIRTUAL:
                fused.append(current)
                stack.extend(dag.nodes[current].inputs)
            elif sparsity[current] is Sparsity.DENSE:
                dense_ops.append(current)
        if fused:
            kernels.append(
                FusedKernel(
                    output=node.id,
                    fused_nodes=tuple(sorted(fused)),
                    dense_operands=tuple(sorted(dense_ops)),
                )
            )
    return FusedProgram(dag=dag, sparsity=sparsity, kernels=kernels)

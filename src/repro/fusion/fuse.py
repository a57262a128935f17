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

    Produced by :func:`match_attention_chain`; consumed by the
    megakernel adapter in :mod:`repro.fusion.interp`, which lowers the
    whole chain — forward and, when the joint program's backward
    emission is also recognised, backward — to the single-sweep
    executor in :mod:`repro.tensor.megakernel`.

    All fields ending in a node role hold *node ids* of the program's
    DAG: ``adjacency`` (the sparse input whose stored values are the
    Hadamard mask), ``y`` (the DENSE aggregation operand, ``H W``), the
    psi-specific score operands (``x_src``/``x_dst`` for
    ``"dot"``/``"cosine"``, ``u``/``v`` for ``"add"``, plus ``norms``
    for ``"cosine"``), and ``seed`` (the gradient-seed input of a joint
    program; ``None`` when only the forward chain matched).

    ``exits`` maps DENSE node ids to megakernel output keys (``"Z"``,
    ``"dY"``, ``"dRow"``, ``"dCol"``, ``"dNormRow"``, ``"dNormCol"``,
    ``"dU"``, ``"dV"``): every node the megakernel computes in one
    sweep instead of the kernel-at-a-time interpreter. Everything
    downstream of the exits (dense gradient assembly, ``grad:W``
    accumulation) stays on the generic interpreter.
    """

    psi_kind: str  #: ``"dot"`` | ``"add"`` | ``"cosine"``
    softmax: bool
    adjacency: int
    y: int
    exits: dict[int, str]
    slope: float = 0.2
    beta: float = 1.0
    x_src: int | None = None
    x_dst: int | None = None
    norms: int | None = None
    u: int | None = None
    v: int | None = None
    seed: int | None = None


def match_attention_chain(program: FusedProgram) -> AttentionChain | None:
    """Recognise the attention chain in a fused program, or ``None``.

    Matches the layer shapes built by :mod:`repro.fusion.models` —
    ``Z = Psi @ Y`` with ``Psi`` either a masked virtual score
    (``hadamard(A, score)``) or the Section-4.2 graph softmax of one —
    for all three score kinds:

    * ``matmul(x, transpose(x_dst))``            → ``"dot"`` (VA)
    * ``scale(divide(gram, outer(norms, norms)))`` → ``"cosine"`` (AGNN)
    * ``leaky_relu(add(replicate(u), replicate_t(v)))`` → ``"add"`` (GAT)

    On a joint program (from :func:`repro.fusion.autodiff.build_vjp`)
    it additionally matches the deterministic backward emission —
    sampled ``dPsi``, the softmax VJP chain, and the per-kind gradient
    reductions — and registers their root nodes as extra exits. A
    joint program whose backward does not match still yields a
    forward-only chain (``seed is None``); any forward mismatch yields
    ``None`` so the caller falls back to the interpreter.
    """
    dag = program.dag
    nodes = dag.nodes
    sparsity = program.sparsity

    def resolve_transpose(nid: int) -> tuple[int, int]:
        hops = 0
        while nodes[nid].op == "transpose":
            nid = nodes[nid].inputs[0]
            hops += 1
        return nid, hops

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
    exp_id = denom_rep = None
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
        psi_kind="", softmax=softmax, adjacency=adjacency, y=y_id,
        exits={z: "Z"},
    )
    score = nodes[score_id]
    gram_id = cos_id = outer_id = c_id = None
    if score.op == "matmul":
        chain.psi_kind = "dot"
        gram_id = score_id
        left, right = score.inputs
        base, hops = resolve_transpose(right)
        if hops % 2 != 1:
            return None
        chain.x_src, chain.x_dst = left, base
    elif score.op == "scale":
        chain.psi_kind = "cosine"
        chain.beta = float(score.attrs["factor"])
        cos_id = score.inputs[0]
        if nodes[cos_id].op != "divide":
            return None
        gram_id, outer_id = nodes[cos_id].inputs
        if nodes[gram_id].op != "matmul" or nodes[outer_id].op != "outer":
            return None
        left, right = nodes[gram_id].inputs
        base, hops = resolve_transpose(right)
        if hops % 2 != 1:
            return None
        chain.x_src, chain.x_dst = left, base
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
        rep_a, rep_b = nodes[c_id].inputs
        if nodes[rep_a].op == "replicate" and nodes[rep_b].op == "replicate_t":
            chain.u = nodes[rep_a].inputs[0]
            chain.v = nodes[rep_b].inputs[0]
        elif (
            nodes[rep_b].op == "replicate"
            and nodes[rep_a].op == "replicate_t"
        ):
            chain.u = nodes[rep_b].inputs[0]
            chain.v = nodes[rep_a].inputs[0]
        else:
            return None
    else:
        return None

    # ---- backward emission (joint programs) --------------------------
    consumers = dag.consumers()

    def sole(nid: int, op: str, check=None) -> int | None:
        """The unique consumer of ``nid`` with ``op`` passing ``check``."""
        found = None
        for user in consumers[nid]:
            node = nodes[user]
            if node.op != op or (check is not None and not check(node)):
                continue
            if found is not None:
                return None  # ambiguous — refuse to guess
            found = user
        return found

    def factor_is(value):
        return lambda node: float(node.attrs.get("factor", 0.0)) == value

    forward_only = chain

    # dPsi = sample(matmul(seed, transpose(y))) — ``y`` may have several
    # transpose consumers (GAT shares ``H W``), so search for the full
    # sampled-product shape rather than a unique transpose.
    seed = sample_id = None
    for t_y in consumers[y_id]:
        if nodes[t_y].op != "transpose":
            continue
        for mm in consumers[t_y]:
            node = nodes[mm]
            if node.op != "matmul" or len(node.inputs) != 2:
                continue
            if node.inputs[1] != t_y:
                continue
            if nodes[node.inputs[0]].op != "input":
                continue
            samp = sole(mm, "sample")
            if samp is None:
                continue
            if sample_id is not None:
                return forward_only  # ambiguous — refuse to guess
            seed, sample_id = node.inputs[0], samp
    if sample_id is None:
        return forward_only

    # dY = matmul(transpose(psi), seed)
    t_psi = sole(psi_id, "transpose")
    if t_psi is None:
        return forward_only
    dy = sole(
        t_psi, "matmul", lambda node: node.inputs == (t_psi, seed)
    )
    if dy is None:
        return forward_only
    exits = dict(chain.exits)
    exits[dy] = "dY"

    # softmax VJP: dMasked = psi * (dPsi - rowsum(psi * dPsi))
    if softmax:
        d1 = sole(
            sample_id, "divide",
            lambda node: node.inputs == (sample_id, denom_rep),
        )
        if d1 is None:
            return forward_only
        h1 = sole(d1, "hadamard", lambda node: node.inputs == (d1, psi_id))
        if h1 is None:
            return forward_only
        s1 = sole(h1, "scale", factor_is(-1.0))
        rs = sole(s1, "row_sum") if s1 is not None else None
        rep2 = sole(rs, "replicate") if rs is not None else None
        if rep2 is None:
            return forward_only
        ad = sole(rep2, "add", lambda node: node.inputs == (d1, rep2))
        if ad is None:
            return forward_only
        d_masked = sole(
            ad, "hadamard", lambda node: node.inputs == (ad, exp_id)
        )
        if d_masked is None:
            return forward_only
        grad_root = d_masked
    else:
        grad_root = sample_id

    # dMasked ⊙ A (adjacency on either side)
    d_masked_a = sole(
        grad_root, "hadamard", lambda node: adjacency in node.inputs
    )
    if d_masked_a is None:
        return forward_only

    def gram_grad_exits(dgram: int) -> bool:
        """Register dRow/dCol: the sampled-Gram endpoint gradients."""
        def is_dst(node):
            base, hops = resolve_transpose(node.inputs[1])
            return base == chain.x_dst and hops % 2 == 0

        drow = sole(
            dgram, "matmul", lambda node: node.inputs[0] == dgram
            and is_dst(node)
        )
        t_dgram = sole(dgram, "transpose")
        dcol = (
            sole(
                t_dgram, "matmul",
                lambda node: node.inputs == (t_dgram, chain.x_src),
            )
            if t_dgram is not None
            else None
        )
        if drow is None or dcol is None:
            return False
        exits[drow] = "dRow"
        exits[dcol] = "dCol"
        return True

    if chain.psi_kind == "dot":
        if not gram_grad_exits(d_masked_a):
            return forward_only
    elif chain.psi_kind == "cosine":
        dcos = sole(d_masked_a, "scale", factor_is(chain.beta))
        dgram = (
            sole(
                dcos, "divide",
                lambda node: node.inputs == (dcos, outer_id),
            )
            if dcos is not None
            else None
        )
        if dgram is None or not gram_grad_exits(dgram):
            return forward_only
        h_cos = sole(
            dgram, "hadamard", lambda node: node.inputs == (dgram, cos_id)
        )
        d_denom = sole(h_cos, "scale", factor_is(-1.0)) if h_cos else None
        if d_denom is None:
            return forward_only
        dnorm_row = sole(
            d_denom, "matmul",
            lambda node: node.inputs == (d_denom, chain.norms),
        )
        t_dd = sole(d_denom, "transpose")
        dnorm_col = (
            sole(
                t_dd, "matmul",
                lambda node: node.inputs == (t_dd, chain.norms),
            )
            if t_dd is not None
            else None
        )
        if dnorm_row is None or dnorm_col is None:
            return forward_only
        exits[dnorm_row] = "dNormRow"
        exits[dnorm_col] = "dNormCol"
    else:  # add (GAT): dC = dMaskedA ⊙ LeakyReLU'(c); dU/dV row/col sums
        lr_grad = sole(
            c_id, "leaky_relu_grad",
            lambda node: float(node.attrs["slope"]) == chain.slope,
        )
        dc = (
            sole(
                d_masked_a, "hadamard",
                lambda node: node.inputs == (d_masked_a, lr_grad),
            )
            if lr_grad is not None
            else None
        )
        if dc is None:
            return forward_only
        dv = sole(dc, "col_sum")
        du = sole(dc, "row_sum")
        if dv is None or du is None:
            return forward_only
        exits[dv] = "dV"
        exits[du] = "dU"

    chain.exits = exits
    chain.seed = seed
    return chain


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

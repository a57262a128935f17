"""Lowering: a layer DAG's :math:`\\Psi` becomes an ``AttentionSpec``.

The toolchain's end point (Figure 4): the model author writes the layer
:math:`Z = \\Psi(\\mathcal{A}, \\cdot)\\,(H W)` once, as an op DAG, and
:func:`lower_layer_dag` derives — once, when a layer is built — the
:class:`~repro.core.formulation.AttentionSpec` that
:class:`~repro.models.attention.AttentionLayer` runs as one compiled
sweep per pass, single-node, sampled, served and distributed alike:

* *kind* — :func:`~repro.fusion.fuse.match_attention_chain` names the
  score kind, the softmax, LeakyReLU slope / temperature and the nodes of
  the sweep's dense score operands;
* *operands* — the dense *cone* feeding those nodes, evaluated on the
  interpreter. It is rooted at the layer input ``H``, or at the
  projection ``y = H W`` (the spec is then ``on_projected``);
* *operand VJP* — :func:`~repro.fusion.autodiff.build_vjp` over the same
  cone, seeded by the sweep's gradient exits: ``dRow`` → ``x_src``,
  ``dCol`` → ``x_dst``, ``dNormRow`` / ``dNormCol`` → ``norms``, ``dU`` →
  ``u``, ``dV`` → ``v``. Seeds reaching one node add up, so a Gram
  product of ``H`` with itself gets ``dRow + dCol``;
* *parameters* — the cone's other inputs, ``k``-vectors on ``H W``
  Glorot-drawn in declaration order by the spec's ``init``.

A lowered spec is single-head (the IR has no head axis): a layer asking
it for more heads is refused.
"""

from __future__ import annotations

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.fusion.autodiff import build_vjp
from repro.fusion.dag import OpDag
from repro.fusion.fuse import fuse, match_attention_chain
from repro.fusion.interp import execute
from repro.models.base import glorot

__all__ = ["lower_layer_dag"]

#: Score operand -> the sweep exits that seed its gradient.
_SEEDS = {
    "x_src": ("dRow",), "x_dst": ("dCol",), "norms": ("dNormRow", "dNormCol"),
    "u": ("dU",), "v": ("dV",),
}


def lower_layer_dag(dag: OpDag, name: str = "derived") -> AttentionSpec:
    """The :class:`AttentionSpec` of a layer DAG ``Z = Psi (H W)``.

    ``dag``'s output must be the attention chain's aggregation of the
    projection ``H W`` (a ``matmul`` of two inputs, as every
    :mod:`repro.fusion.models` layer writes it), and its score operands
    must read exactly one of ``H`` and ``H W``. Raises ``ValueError``
    otherwise.
    """
    chain = match_attention_chain(fuse(dag))
    if chain is None:
        raise ValueError(f"{name}: no SDDMM -> softmax -> SpMM chain to lower")
    nodes = dag.nodes
    y = nodes[chain.y]
    if y.op != "matmul" or any(nodes[i].op != "input" for i in y.inputs):
        raise ValueError(f"{name}: Psi must aggregate H W, a product of two inputs")
    h = y.inputs[0]
    roles = {role: getattr(chain, role) for role in _SEEDS if getattr(chain, role) is not None}
    cone, stack = set(), list(roles.values())
    while stack:  # upstream of the score operands, stopping at H and H W
        nid = stack.pop()
        if nid not in cone:
            cone.add(nid)
            stack.extend(() if nid in (h, chain.y) else nodes[nid].inputs)
    projected = chain.y in cone
    if projected == (h in cone):
        raise ValueError(f"{name}: the score operands must read exactly one of H and H W")
    root = chain.y if projected else h
    cone_dag, copied, params = OpDag(), {}, []
    for nid in sorted(cone):  # ids are topological
        node = nodes[nid]
        if nid == root:
            copied[nid] = cone_dag.input("X", "nk")
        elif node.op == "input":
            if node.shape_kind != "k" or not projected or node.name == "X":
                raise ValueError(
                    f"{name}: Psi parameter {node.name!r} must be a k-vector read with H W")
            copied[nid] = cone_dag.input(node.name, "k")
            params.append(node.name)
        else:
            copied[nid] = cone_dag._add(
                node.op, tuple(copied[i] for i in node.inputs), node.shape_kind, **node.attrs)
    for role, nid in roles.items():
        cone_dag.mark_output(role, copied[nid])
    seeds = [(role, seed) for role in roles for seed in _SEEDS[role]]
    program = fuse(build_vjp(cone_dag, ("X", *params), seed_name=seeds).dag)
    scalars = {"slope": chain.slope, "beta": chain.beta}

    def operands(x, psi_params, counter):
        return {**execute(program, {"X": x, **psi_params}, outputs=tuple(roles)), **scalars}

    def operands_vjp(exits, x, psi_params, ops, counter):
        bound = {seed: exits[seed] for _, seed in seeds}
        grads = execute(program, {"X": x, **psi_params, **bound},
                        outputs=[f"grad:{n}" for n in ("X", *params)])
        return grads["grad:X"], {n: grads[f"grad:{n}"] for n in params}

    def init(rng: np.random.Generator, width: int, dtype) -> dict[str, np.ndarray]:
        return {n: glorot(rng, (width,), dtype) for n in params}

    return AttentionSpec(
        kind=chain.psi_kind, softmax=chain.softmax, operands=operands,
        operands_vjp=operands_vjp, init=init if params else None,
        on_projected=projected, multihead=False, name=name,
    )

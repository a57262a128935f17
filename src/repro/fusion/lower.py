"""Lowering: a layer DAG's :math:`\\Psi` becomes an ``AttentionSpec``.

The toolchain's end point (Figure 4): the model author writes the layer
:math:`Z = \\Psi(\\mathcal{A}, \\cdot)\\,(H W)` once, as an op DAG, and
:func:`lower_layer_dag` derives — once, when a layer is built — the
:class:`~repro.core.formulation.AttentionSpec` that
:class:`~repro.models.attention.AttentionLayer` runs as one compiled
sweep per pass, single-node, sampled, served and distributed alike. The
built-in VA, AGNN and GAT are such DAGs
(:data:`repro.models.attention.SPECS`):

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
  product of ``H`` with itself gets ``dRow + dCol``. It reads the
  forward's operands (AGNN's norms) rather than recomputing them;
* *parameters* — the cone's other inputs, ``k``-vectors on ``H W``
  Glorot-drawn in declaration order by the spec's ``init``; with
  ``learnable_beta`` also the cosine temperature, whose gradient is the
  sweep's ``dCoef`` exit.

A cone on ``H W`` serves any head count: on ``(n, heads, d)`` features it
runs once per head over ``X[:, h]`` with that head's parameter rows, and
the results are stacked in the layout the sweep reads. Both programs run
through a fixed :class:`~repro.fusion.interp.Schedule` and charge their
ops' flops (``"operands"``, ``"operands_vjp"``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.fusion.autodiff import build_vjp
from repro.fusion.dag import OpDag
from repro.fusion.fuse import fuse, match_attention_chain
from repro.fusion.interp import Schedule
from repro.util.rng import glorot

__all__ = ["lower_layer_dag"]

#: Score operand -> the sweep exits that seed its gradient.
_SEEDS = {
    "x_src": ("dRow",), "x_dst": ("dCol",), "norms": ("dNormRow", "dNormCol"),
    "u": ("dU",), "v": ("dV",),
}
#: Shape kind -> its size as coefficients of ``(n k, n, k)``.
_SIZE = {"nk": (1, 0, 0), "kn": (1, 0, 0), "n": (0, 1, 0), "k": (0, 0, 1)}


def lower_layer_dag(
    dag: OpDag, name: str = "derived", learnable_beta: bool = False
) -> AttentionSpec:
    """The :class:`AttentionSpec` of a layer DAG ``Z = Psi (H W)``.

    ``dag``'s output must be the attention chain's aggregation of the
    projection ``H W`` (a ``matmul`` of two inputs, as every
    :mod:`repro.fusion.models` layer writes it), its score operands
    must read exactly one of ``H`` and ``H W``, and its slope and
    temperature must be finite. ``learnable_beta`` trains the
    temperature of a cosine score. Raises ``ValueError`` otherwise.
    """
    chain = match_attention_chain(fuse(dag))
    if chain is None:
        raise ValueError(f"{name}: no SDDMM -> softmax -> SpMM chain to lower")
    for arg in ("slope", "beta"):
        if not math.isfinite(getattr(chain, arg)):
            raise ValueError(f"{name}: {arg} must be finite, got {getattr(chain, arg)!r}")
    if learnable_beta and chain.psi_kind != "cosine":
        raise ValueError(f"{name}: only a cosine score has a temperature to learn")
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
    grads = [f"grad:{n}" for n in ("X", *params)]
    # The VJP reads the forward's operands: each computed one becomes an input.
    computed = {copied[nid]: role for role, nid in roles.items() if nid != root}
    vjp_dag = _inputs_for(build_vjp(cone_dag, ("X", *params), seed_name=seeds).dag, computed)
    forward, backward = Schedule(fuse(cone_dag), tuple(roles)), Schedule(fuse(vjp_dag), grads)
    cost, vjp_cost = _flops(forward), _flops(backward)

    def per_head(schedule, bound, heads_axis):
        """``schedule`` over ``bound``, or — head-stacked ``X`` — over each
        head's slice of every input (``heads_axis`` names its axis), stacked."""
        if bound["X"].ndim == 2:
            return schedule.run(bound)
        per = [schedule.run({key: value[(slice(None),) * heads_axis(key) + (i,)]
                             for key, value in bound.items()})
               for i in range(bound["X"].shape[1])]
        return {key: np.stack([p[key] for p in per], axis=heads_axis(key)) for key in per[0]}

    def operands(x, psi_params, counter):
        _charge(counter, cost, x, "operands")
        bound = {"X": x, **{n: psi_params[n] for n in params}}
        ops = per_head(forward, bound, lambda key: 0 if key in params else 1)
        beta = float(psi_params["beta"]) if learnable_beta else chain.beta
        return {**ops, "slope": chain.slope, "beta": beta}

    def operands_vjp(exits, x, psi_params, ops, counter):
        _charge(counter, vjp_cost, x, "operands_vjp")
        bound = {"X": x, **{n: psi_params[n] for n in params},
                 **{seed: exits[seed] for _, seed in seeds},
                 **{role: ops[role] for role in computed.values()}}
        out = per_head(backward, bound, lambda key: 0 if key in params or key in grads[1:] else 1)
        psi_grads = {n: out[f"grad:{n}"] for n in params}
        if learnable_beta:
            psi_grads["beta"] = np.array(exits["dCoef"][0], dtype=x.dtype)
        return out["grad:X"], psi_grads

    def init(rng: np.random.Generator, width: int, dtype) -> dict[str, np.ndarray]:
        drawn = {n: glorot(rng, (width,), dtype) for n in params}
        return {**drawn, "beta": np.array(chain.beta, dtype=dtype)} if learnable_beta else drawn

    return AttentionSpec(
        kind=chain.psi_kind, softmax=chain.softmax, operands=operands,
        operands_vjp=operands_vjp, init=init if params or learnable_beta else None,
        on_projected=projected, name=name,
    )


def _inputs_for(dag: OpDag, computed: dict[int, str]) -> OpDag:
    """``dag`` with each node of ``computed`` an input of that name."""
    out = OpDag()
    for node in dag.nodes:
        if node.id in computed:
            out.input(computed[node.id], node.shape_kind)
        else:
            out._add(node.op, node.inputs, node.shape_kind, name=node.name, **node.attrs)
    for output, nid in dag.outputs.items():
        out.mark_output(output, nid)
    return out


def _flops(schedule: Schedule) -> tuple[int, int, int]:
    """Flops of one run as coefficients of ``(n k, n, k)``: twice the
    matrix read by a matrix-vector product or a row norm, else one per
    element of the widest of an op's operands and result."""
    nodes, total = schedule.program.dag.nodes, np.zeros(3, dtype=np.int64)
    for node, *_ in schedule.steps:
        kinds = [node.shape_kind, *(nodes[i].shape_kind for i in node.inputs)]
        if node.op in ("matmul", "row_norm"):
            total += 2 * np.array(_SIZE[kinds[1]])
        elif node.op != "transpose":
            total += max((np.array(_SIZE[kind]) for kind in kinds), key=tuple)
    return tuple(int(c) for c in total)


def _charge(counter, cost: tuple[int, int, int], x: np.ndarray, label: str) -> None:
    """Charge ``cost`` at ``x``'s rows and width, once per head (a
    program that computes nothing charges nothing)."""
    if any(cost):
        n, k, heads = x.shape[0], x.shape[-1], x.shape[1] if x.ndim == 3 else 1
        counter.add(heads * (cost[0] * n * k + cost[1] * n + cost[2] * k), label)

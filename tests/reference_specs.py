"""Hand-written VA / AGNN / GAT specs: the oracle of the lowering (test-only).

The library defines each built-in Ψ once, as a layer DAG, and derives its
spec — dense operands and their VJP — with
:func:`repro.fusion.lower.lower_layer_dag`. These are the same specs
written out by hand (Figure 2's derivation for GAT, the cosine chain rule
for AGNN), einsum and BLAS calls in the layouts the sweep reads, plain
``(n, d)`` or head-stacked ``(n, heads, d)``. The tests hold each lowered
spec bit-equal to its twin here.
"""

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.util.rng import glorot

#: Vanilla attention: sampled dot products, no softmax; both endpoints of
#: an edge read ``H``, so :math:`dH = N H + N^T H` (Eq. 11) is the two exits.
VA = AttentionSpec(
    kind="dot", name="va", operands=lambda h, params, counter: {"x_src": h},
    operands_vjp=lambda ex, h, params, ops, counter: (ex["dRow"] + ex["dCol"], {}),
)


def agnn_spec(beta: float = 1.0, learnable_beta: bool = False) -> AttentionSpec:
    """AGNN's cosine attention with temperature ``beta``, optionally trained.
    A vertex with a zero feature row scores 0 against every neighbour."""

    def operands(h, params, counter):
        return {
            "x_src": h,
            "norms": np.sqrt(np.einsum("ij,ij->i", h, h)),
            "beta": float(params.get("beta", beta)),
        }

    def operands_vjp(exits, h, params, ops, counter):
        # Both endpoints read H, and n_i = |h_i| gives dn_i / dh_i = h_i / n_i
        # (a zero row has no direction: its norm gradient is dropped).
        dnorm = exits["dNormRow"] + exits["dNormCol"]
        np.divide(dnorm, ops["norms"], out=dnorm, where=ops["norms"] != 0)
        dh = exits["dRow"] + exits["dCol"] + dnorm[:, None] * h
        if not learnable_beta:
            return dh, {}
        return dh, {"beta": np.array(exits["dCoef"][0], dtype=h.dtype)}

    def init(rng, width, dtype):
        return {"beta": np.array(beta, dtype=dtype)}

    return AttentionSpec(
        kind="cosine", operands=operands, operands_vjp=operands_vjp,
        init=init if learnable_beta else None, name="agnn",
    )


def gat_spec(slope: float = 0.2) -> AttentionSpec:
    """GAT's additive attention on ``H W``: the concatenated dot product
    :math:`\\mathbf{a}^T [Wh_i \\| Wh_j]` splits into :math:`u_i + v_j`
    with :math:`u = H W a,\\; v = H W \\bar{a}`, one pair per head."""

    def operands(hp, params, counter):
        logit = "nhd,hd->nh" if hp.ndim == 3 else "nd,d->n"
        return {
            "u": np.einsum(logit, hp, params["a_src"]),
            "v": np.einsum(logit, hp, params["a_dst"]),
            "slope": slope,
        }

    def operands_vjp(exits, hp, params, ops, counter):
        du, dv = exits["dU"], exits["dV"]
        dhp = du[..., None] * params["a_src"] + dv[..., None] * params["a_dst"]
        if hp.ndim == 3:
            return dhp, {
                "a_src": np.einsum("nhd,nh->hd", hp, du),
                "a_dst": np.einsum("nhd,nh->hd", hp, dv),
            }
        return dhp, {"a_src": hp.T @ du, "a_dst": hp.T @ dv}

    def init(rng, width, dtype):
        return {"a_src": glorot(rng, (width,), dtype), "a_dst": glorot(rng, (width,), dtype)}

    return AttentionSpec(
        kind="add", operands=operands, operands_vjp=operands_vjp, init=init,
        on_projected=True, name="gat",
    )

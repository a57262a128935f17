"""``DagLayer``: a trainable GNN layer executed from the op-DAG IR.

The programmability end-point of the toolchain (Figure 4): the model
author supplies only the forward global formulation — one of the
:mod:`repro.fusion.models` layer DAGs —
:func:`repro.fusion.autodiff.build_vjp` derives the joint
forward+backward program, the fusion pass compiles its virtual
intermediates into SDDMM-like kernels, and this layer runs both passes
through one :class:`~repro.fusion.interp.ProgramRunner` per step so the
backward outputs reuse the cached forward activations (softmax edge
values, projected features, Gram dot products).

``DagLayer`` satisfies the :class:`repro.models.base.GnnLayer`
contract, so it drops into :class:`repro.models.base.GnnModel` next to
:class:`repro.models.attention.AttentionLayer`. Both end in the same
edge-level code: ``AttentionLayer`` (what ``build_model`` returns) hands
its built-in specs' hand-written dense operand prep straight to the
compiled row sweep of :mod:`repro.tensor.megakernel`; ``DagLayer`` is
the *derived* path — zero backward code — and reaches that sweep with
``fused=True`` (kernel-at-a-time interpreter otherwise), paying the IR
runner around it.
Tests assert the two paths agree to tight tolerances, which is exactly
the paper's argument that the global formulations and their derived
gradients are the single source of truth.

Program/parameter split
-----------------------
A layer's *program* — the joint forward+backward DAG and its fused
kernel grouping — is a pure function of ``(model, beta, slope)``; only
the parameter arrays differ between two GAT ``DagLayer`` instances.
Compiled programs are therefore interned in a module-level cache and
shared read-only: the per-step :class:`ProgramRunner` (which binds the
actual arrays and memoises activations) is the *per-request* state, so
one compiled program serves any number of layers, models, and
concurrent in-flight batches — the same parameters-vs-request split
the serving engine makes at the model level. A side effect of interning
is that fusion runs once per distinct layer shape instead of once per
``forward`` call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.fusion.autodiff import GradProgram, build_vjp
from repro.fusion.fuse import FusedProgram, fuse
from repro.fusion.interp import ProgramRunner
from repro.fusion.models import agnn_layer_dag, gat_layer_dag, va_layer_dag
from repro.models.base import GnnLayer, glorot
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.tensor.csr import CSRMatrix
from repro.util.counters import FlopCounter, null_counter
from repro.util.rng import make_rng

__all__ = ["DagLayer", "LAYER_DAG_BUILDERS", "compiled_layer_program"]

#: model name -> (layer-DAG builder kwargs -> OpDag, extra param names)
LAYER_DAG_BUILDERS = {
    "va": (lambda **kw: va_layer_dag(), ()),
    "agnn": (
        lambda beta=1.0, **kw: agnn_layer_dag(beta=beta),
        (),
    ),
    "gat": (
        lambda slope=0.2, **kw: gat_layer_dag(slope=slope),
        ("a_src", "a_dst"),
    ),
}


#: (model, beta, slope) -> (derived joint program, fused compilation).
#: Both values are immutable once built; runners bind inputs privately.
_PROGRAM_CACHE: dict[
    tuple[str, float, float], tuple[GradProgram, FusedProgram]
] = {}
_PROGRAM_LOCK = threading.Lock()


def compiled_layer_program(
    model: str, beta: float = 1.0, slope: float = 0.2
) -> tuple[GradProgram, FusedProgram]:
    """The interned (derived, fused) program pair for one layer shape.

    Built once per distinct ``(model, beta, slope)`` and shared by
    every :class:`DagLayer` with that shape — programs carry no
    parameter values, so sharing is safe across instances, reloads and
    concurrent requests. Events ``dag_program.built`` /
    ``dag_program.hit`` report cache behaviour.
    """
    if model not in LAYER_DAG_BUILDERS:
        raise ValueError(
            f"unknown model {model!r}; expected one of "
            f"{sorted(LAYER_DAG_BUILDERS)}"
        )
    key = (model, float(beta), float(slope))
    with _PROGRAM_LOCK:
        entry = _PROGRAM_CACHE.get(key)
        if entry is None:
            builder, extra = LAYER_DAG_BUILDERS[model]
            forward = builder(beta=beta, slope=slope)
            wrt = ("H", "W") + extra
            program = build_vjp(forward, wrt, seed_name="dZ")
            entry = (program, fuse(program.dag))
            _PROGRAM_CACHE[key] = entry
            metrics().counter("dag_program.built").inc()
        else:
            metrics().counter("dag_program.hit").inc()
    return entry


@dataclass
class _DagCache:
    """Training cache: the joint-program runner plus the contract's ``z``.

    The runner *is* the request-scoped state: it owns the bound
    inputs and memoised activations of one forward/backward round
    trip, while the compiled program it executes is shared module
    state. Dropping the cache drops everything request-specific.
    """

    runner: ProgramRunner
    z: np.ndarray


class DagLayer(GnnLayer):
    """One A-GNN layer whose backward pass is *derived*, not written.

    Parameters
    ----------
    model:
        ``"va"``, ``"agnn"`` or ``"gat"`` — selects the layer DAG.
    in_dim, out_dim:
        Feature dimensions of :math:`W`.
    activation:
        Output non-linearity applied outside the DAG (the DAG computes
        the pre-activation ``Z``; :math:`\\sigma'` masking is the
        model's job, per Eq. 4/6).
    fused:
        Megakernel switch forwarded to the runner: ``True`` lowers the
        recognised attention chain to the single-sweep executor
        (:mod:`repro.tensor.megakernel`), ``False`` (the default: the
        megakernel is opt-in) keeps the kernel-at-a-time interpreter,
        which is also the parity oracle.
    beta, slope:
        AGNN temperature / GAT LeakyReLU slope baked into the DAG.
    """

    def __init__(
        self,
        model: str,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        fused: bool = False,
        beta: float = 1.0,
        slope: float = 0.2,
        seed: int | np.random.Generator | None = 0,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        super().__init__(activation)
        _, extra = LAYER_DAG_BUILDERS.get(model, (None, ()))
        self.model = model
        self.fused = fused
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.program, self._fused_program = compiled_layer_program(
            model, beta=beta, slope=slope
        )
        rng = make_rng(seed)
        self.weight = glorot(rng, (in_dim, out_dim), dtype)
        if "a_src" in extra:
            self.a_src = glorot(rng, (out_dim,), dtype)
            self.a_dst = glorot(rng, (out_dim,), dtype)
        self._extra = extra

    # ------------------------------------------------------------------
    def _bindings(self, a: CSRMatrix, h: np.ndarray) -> dict:
        inputs = {"A": a, "H": h, "W": self.weight}
        for name in self._extra:
            inputs[name] = getattr(self, name)
        return inputs

    def forward(
        self,
        a: CSRMatrix,
        h: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
    ) -> tuple[np.ndarray, _DagCache | None]:
        with tracer().span(
            "daglayer.forward", counter=counter, model=self.model,
        ):
            runner = ProgramRunner(
                self._fused_program, self._bindings(a, h),
                fused=self.fused, counter=counter,
            )
            z = runner.run()
            h_next = self.activation.fn(z)
        if not training:
            return h_next, None
        return h_next, _DagCache(runner=runner, z=z)

    # ------------------------------------------------------------------
    def backward(
        self,
        cache: _DagCache,
        g: np.ndarray,
        counter: FlopCounter = null_counter(),
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        with tracer().span(
            "daglayer.backward", counter=counter, model=self.model,
        ):
            runner = cache.runner
            runner.set_counter(counter)
            runner.bind(self.program.seed, np.asarray(g))
            grads = {
                name: runner.run(f"grad:{name}")
                for name in ("W",) + self._extra
            }
            dh = runner.run("grad:H")
        renamed = {"weight": grads.pop("W"), **grads}
        return dh, renamed

    # ------------------------------------------------------------------
    def parameters(self) -> dict[str, np.ndarray]:
        params = {"weight": self.weight}
        for name in self._extra:
            params[name] = getattr(self, name)
        return params

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Full joint-program listing (forward + derived backward)."""
        return self.program.describe()

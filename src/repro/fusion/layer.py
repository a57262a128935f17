"""``DagLayer``: a trainable GNN layer derived from the op-DAG IR.

The programmability end-point of the toolchain (Figure 4): the model
author supplies only the forward global formulation — one of the
:mod:`repro.fusion.models` layer DAGs — and everything else is derived
from it. ``DagLayer`` *is* an
:class:`~repro.models.attention.AttentionLayer`, over the spec
:func:`repro.fusion.lower.lower_layer_dag` derives from that DAG: with
``fused=True`` it runs the layer's one compiled sweep per pass, exactly
as ``build_model`` layers do, with derived dense operands and VJP. With
``fused=False`` (the default) it runs the joint forward+backward program
:func:`repro.fusion.autodiff.build_vjp` derives on the kernel-at-a-time
interpreter instead, one :class:`~repro.fusion.interp.ProgramRunner` per
step, the backward reusing the cached forward activations — the
derived-path oracle. Tests hold the two routes to each other, which is
the paper's argument that the global formulations and their derived
gradients are the single source of truth.

Program/parameter split
-----------------------
A layer's programs — the joint DAG, its fused kernel grouping and the
lowered spec (:func:`~repro.models.attention.layer_spec`'s, which
``build_model`` layers run too) — are a pure function of ``(model, beta,
slope)``; only the parameter arrays differ between two GAT ``DagLayer``
instances.
They are therefore interned in a module-level cache and shared
read-only: the per-step runner (which binds the actual arrays and
memoises activations) is the *per-request* state, so one compiled
program serves any number of layers, models, and concurrent in-flight
batches, and derivation runs once per distinct layer shape.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.formulation import AttentionSpec
from repro.fusion.autodiff import GradProgram, build_vjp
from repro.fusion.fuse import FusedProgram, fuse
from repro.fusion.interp import ProgramRunner
from repro.models.attention import SPECS, AttentionLayer, layer_spec
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.tensor.csr import CSRMatrix
from repro.util.counters import FlopCounter, null_counter

__all__ = ["DagLayer", "compiled_layer_program"]

#: (model, beta, slope) -> (joint program, its fusion, lowered spec).
#: All immutable once built; runners bind inputs privately.
_PROGRAM_CACHE: dict[
    tuple[str, float, float], tuple[GradProgram, FusedProgram, AttentionSpec]
] = {}
_PROGRAM_LOCK = threading.Lock()


def _compile(
    model: str, beta: float, slope: float
) -> tuple[GradProgram, FusedProgram, AttentionSpec]:
    builder = SPECS.get(model)
    if not callable(builder):
        layers = sorted(name for name, entry in SPECS.items() if callable(entry))
        raise ValueError(f"unknown model {model!r}; expected one of {layers}")
    # Each layer DAG takes the keywords it reads, of beta and slope.
    kwargs = {arg: value for arg, value in (("beta", beta), ("slope", slope))
              if arg in inspect.signature(builder).parameters}
    spec = layer_spec(model, **kwargs)  # lowered first: it refuses a non-finite value
    key = (model, float(beta), float(slope))
    with _PROGRAM_LOCK:
        entry = _PROGRAM_CACHE.get(key)
        if entry is None:
            forward = builder(**kwargs)
            wrt = tuple(
                node.name for node in forward.nodes
                if node.op == "input" and node.id not in forward.sparse_inputs
            )
            program = build_vjp(forward, wrt, seed_name="dZ")
            entry = (program, fuse(program.dag), spec)
            _PROGRAM_CACHE[key] = entry
            metrics().counter("dag_program.built").inc()
        else:
            metrics().counter("dag_program.hit").inc()
    return entry


def compiled_layer_program(
    model: str, beta: float = 1.0, slope: float = 0.2
) -> tuple[GradProgram, FusedProgram]:
    """The interned (derived, fused) program pair for one layer shape.

    Built once per distinct ``(model, beta, slope)`` and shared by every
    :class:`DagLayer` with that shape; programs carry no parameter
    values, so sharing is safe across instances, reloads and concurrent
    requests. A non-finite ``beta`` or ``slope`` the model's DAG reads is
    refused. Events ``dag_program.built`` / ``dag_program.hit`` report
    cache behaviour.
    """
    return _compile(model, beta, slope)[:2]


@dataclass
class _DagCache:
    """Interpreted training cache: the joint-program runner plus ``z``.

    The runner *is* the request-scoped state: it owns the bound
    inputs and memoised activations of one forward/backward round
    trip, while the compiled program it executes is shared module
    state. Dropping the cache drops everything request-specific.
    """

    runner: ProgramRunner
    z: np.ndarray
    rows: np.ndarray | None  # the hop's destinations among its sources
    num_src: int


class DagLayer(AttentionLayer):
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
        ``True`` runs :class:`AttentionLayer`'s compiled sweep over the
        lowered spec (``self.spec``); ``False`` (the default) the joint
        program on the kernel-at-a-time interpreter, the parity oracle.
    beta, slope:
        AGNN temperature / GAT LeakyReLU slope baked into the DAG.

    Parameters are drawn as :class:`AttentionLayer` draws them — ``W``,
    then Ψ's own — so both routes start from the same arrays.
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
        self.program, self._fused_program, spec = _compile(model, beta, slope)
        super().__init__(
            in_dim, out_dim, spec, activation=activation, seed=seed, dtype=dtype
        )
        self.model = model
        self.fused = fused

    def forward(
        self,
        a: CSRMatrix,
        h: np.ndarray,
        counter: FlopCounter = null_counter(),
        training: bool = True,
        rows: np.ndarray | None = None,
    ):
        with tracer().span(
            "daglayer.forward", counter=counter, model=self.model,
        ):
            if self.fused:
                return super().forward(a, h, counter=counter, training=training, rows=rows)
            # The program reads A square: a hop with rows runs in the
            # frame of its sources, its other rows empty.
            runner = ProgramRunner(
                self._fused_program,
                {"A": a if rows is None else a.lift_rows(rows), "H": h, "W": self.weight,
                 **self.psi_params},
            )
            z = runner.run()
            if rows is not None:
                z = z[rows]
            h_next = self.activation.fn(z)
        if not training:
            return h_next, None
        return h_next, _DagCache(runner=runner, z=z, rows=rows, num_src=h.shape[0])

    def backward(
        self,
        cache,
        g: np.ndarray,
        counter: FlopCounter = null_counter(),
        input_grad: bool = True,
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        with tracer().span(
            "daglayer.backward", counter=counter, model=self.model,
        ):
            if self.fused:
                return super().backward(cache, g, counter=counter, input_grad=input_grad)
            runner, g = cache.runner, np.asarray(g)
            if cache.rows is not None:
                g_rows, g = g, np.zeros((cache.num_src,) + g.shape[1:], g.dtype)
                g[cache.rows] = g_rows
            runner.bind(self.program.seed, g)
            grads = {
                "weight" if name == "W" else name: runner.run(f"grad:{name}")
                for name in ("W", *self.psi_params)
            }
            return runner.run("grad:H") if input_grad else None, grads


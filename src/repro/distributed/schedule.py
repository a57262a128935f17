"""Declarative per-layer communication schedules for the 1.5D layers.

Every distributed layer's forward and backward pass is a short,
straight-line program over two kinds of steps:

* :class:`Compute` — a local kernel over named context entries;
* :class:`Transfer` — one of the grid communication patterns
  (diagonal row broadcast, row/column/world allreduce, transpose
  exchange, reduce+redistribute), labelled with its traffic phase.

Instead of interleaving communicator calls and math by hand in each
layer body, each layer *declares* its steps and a
shared scheduler (:meth:`CommSchedule.run`) executes them against a
context dict. Every transfer is *initiated* in its asynchronous form at
its program point; the two execution modes differ only in where the
returned handle is waited, so results are bit-identical and traffic is
equal by construction:

**Overlapped** (the default, ``overlap=True``): a handle is completed
only when a later step first names its output — so the local compute
scheduled between a transfer and its first consumer (the projection and
the column block's score operands under the row broadcast, the input
gradient under the parameter-gradient allreduce) runs while the wire is
busy. Initiation order and
resolution points are the same SPMD program points on every rank, which
together with the communicator's ordered-completion engine makes
overlap deadlock-free by construction.

**Synchronous** (``overlap=False``, the parity oracle the tests pass):
every handle is waited at once, inside the step that initiated it —
which is what the communicator's blocking calls are (``bcast`` is
``ibcast(...).wait()``), so every transfer blocks in program order.

Phase labels are captured at initiation, so ``CommStats.by_phase`` and
``comm_words`` are equal in both modes (pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.distributed.ops import (
    OpSequencer,
    ReadyResult,
    irow_bcast_from_diagonal,
    itranspose_exchange,
    reduce_and_redistribute,
)
from repro.obs.tracer import tracer
from repro.runtime.grid import ProcessGrid

__all__ = ["Compute", "Transfer", "CommSchedule"]


@dataclass(frozen=True)
class Compute:
    """A local kernel: ``ctx[out] = fn(ctx)``.

    ``needs`` lists the context keys the kernel reads that may still be
    in flight — the scheduler resolves those transfers first. ``out``
    may be ``None`` for effect-only steps (e.g. writing several keys).
    """

    out: str | None
    fn: Callable[[dict[str, Any]], Any]
    needs: tuple[str, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Compute({self.out!r}, needs={self.needs!r})"


@dataclass(frozen=True)
class Transfer:
    """A grid communication pattern: ``ctx[out] = kind(ctx[src])``.

    ``kind`` is one of:

    ``"row_bcast"``
        Diagonal row broadcast of ``src`` (async form: ``ibcast``).
    ``"row_allreduce"`` / ``"col_allreduce"`` / ``"allreduce"``
        Allreduce of ``src`` over the row / column / world
        communicator with ``op`` (async form: ``iallreduce``).
    ``"transpose"``
        Pairwise ``(i, j) <-> (j, i)`` exchange (async form: deferred
        receive; the send is always posted at the program point).
    ``"redistribute"``
        Ring reduce-scatter + chunk exchange, ``denominators`` trailing
        columns normalising the rest (see
        :func:`~repro.distributed.ops.reduce_and_redistribute`). Always
        synchronous: it is the terminal transfer of a pass, so there is
        no later compute to hide it behind, and its internal collective
        is itself a blocking rendezvous of the whole grid row.

    ``phase`` labels the traffic for ``CommStats.by_phase``; it is set
    at initiation so synchronous and overlapped runs attribute bytes
    and wait time identically.
    """

    out: str
    kind: str
    src: str
    phase: str
    op: str = "sum"
    needs: tuple[str, ...] = ()
    denominators: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Transfer({self.out!r} <- {self.kind} {self.src!r})"


@dataclass
class CommSchedule:
    """An ordered step list executed by the shared scheduler."""

    steps: list[Compute | Transfer] = field(default_factory=list)
    name: str = ""

    def run(
        self,
        grid: ProcessGrid,
        sequencer: OpSequencer,
        ctx: dict[str, Any],
        overlap: bool = True,
    ) -> dict[str, Any]:
        """Execute the steps against ``ctx`` (mutated and returned).

        With ``overlap`` a transfer's completion handle stays in flight
        until a later step first lists its output in ``needs`` (or
        ``src``), and any transfer nothing consumed is resolved at the
        end, in initiation order. Without it (the parity oracle) every
        handle is waited inside the step that initiated it.
        """
        pending: dict[str, Any] = {}

        def resolve(key: str) -> None:
            handle = pending.pop(key, None)
            if handle is not None:
                ctx[key] = handle.wait()

        # Each step gets a span carrying the wait_s delta it incurred
        # (resolves + blocking transfers), a transfer's also its phase
        # label, so the timeline ties back to CommStats.wait_by_phase;
        # the communicator's own wait slices nest inside the step span.
        t = tracer()
        stats = grid.comm.stats
        for step in self.steps:
            if isinstance(step, Transfer):
                with t.span(
                    "sched.transfer", sched=self.name, kind=step.kind,
                    out=step.out, phase=step.phase,
                ) as sp:
                    wait0 = stats.wait_s
                    for key in (*step.needs, step.src):
                        resolve(key)
                    handle = self._execute_transfer(step, grid, sequencer, ctx)
                    if overlap and step.kind != "redistribute":
                        pending[step.out] = handle
                    else:
                        ctx[step.out] = handle.wait()
                    sp.annotate(wait_s=stats.wait_s - wait0)
            else:
                with t.span(
                    "sched.compute", sched=self.name, out=step.out or "",
                ) as sp:
                    wait0 = stats.wait_s
                    for key in step.needs:
                        resolve(key)
                    result = step.fn(ctx)
                    sp.annotate(wait_s=stats.wait_s - wait0)
                if step.out is not None:
                    ctx[step.out] = result
        if pending:
            with t.span("sched.drain", sched=self.name):
                for key in list(pending):
                    resolve(key)
        return ctx

    def _execute_transfer(
        self,
        step: Transfer,
        grid: ProcessGrid,
        sequencer: OpSequencer,
        ctx: dict[str, Any],
    ) -> Any:
        """Initiate one transfer; returns its completion handle."""
        grid.comm.stats.set_phase(step.phase)
        payload = ctx[step.src]
        kind = step.kind
        if kind == "row_bcast":
            return irow_bcast_from_diagonal(grid, payload)
        if kind in ("row_allreduce", "col_allreduce", "allreduce"):
            comm = {
                "row_allreduce": grid.row_comm,
                "col_allreduce": grid.col_comm,
                "allreduce": grid.comm,
            }[kind]
            return comm.iallreduce(payload, op=step.op)
        if kind == "transpose":
            return itranspose_exchange(grid, payload, sequencer)
        if kind == "redistribute":
            return ReadyResult(reduce_and_redistribute(
                grid, payload, sequencer, denominators=step.denominators))
        raise ValueError(f"unknown transfer kind {kind!r}")

"""Simulated MPI/BSP runtime.

The paper runs on Piz Daint with mpi4py; this environment has neither a
cluster nor MPI, so the distributed algorithms run on a *simulated*
cluster instead (see DESIGN.md's substitution table):

* :mod:`repro.runtime.fabric` — the one fabric: per-``(src, dst,
  tag)`` mailboxes, ranks are Python threads of this process.
* :mod:`repro.runtime.communicator` — an mpi4py-flavoured communicator
  (``send``/``recv``/``irecv``/``ibcast``/``allreduce``/``allgather``/
  ``alltoall``/``reduce_scatter``/``gather``/``split``) whose collectives
  use real algorithms (binomial trees, rings), so the *communication
  volume each rank observes matches what a real MPI job would move*.
  ``ibcast`` and ``iallreduce`` return a
  :class:`~repro.runtime.communicator.CollectiveHandle` and ``irecv`` a
  :class:`~repro.runtime.communicator.RecvFuture` — the substrate of the
  comm/compute-overlapped 1.5D layer schedules.
* :mod:`repro.runtime.stats` — per-rank byte/message/flop accounting
  plus the wall-time split into compute vs. blocked-on-recv seconds;
  the BSP "maximum words sent by any processor" of Section 7 is read
  directly off these counters.
* :mod:`repro.runtime.costmodel` — an alpha-beta-gamma machine model
  converting the accounting into modeled execution time, which is the
  quantity the scaling figures plot.
* :mod:`repro.runtime.executor` — the SPMD launcher running one thread
  per rank (``run_spmd``) and propagating failures.
* :mod:`repro.runtime.grid` — the 2D ``Px x Py`` cartesian process
  grid with row/column sub-communicators (Section 6.3).
"""

from repro.runtime.communicator import (
    CollectiveHandle,
    Communicator,
    RecvFuture,
)
from repro.runtime.costmodel import CostModel, MachineParams
from repro.runtime.executor import SpmdResult, run_spmd
from repro.runtime.fabric import Fabric, FabricTimeoutError
from repro.runtime.grid import ProcessGrid, square_grid
from repro.runtime.stats import CommStats, RunStats

__all__ = [
    "Fabric",
    "FabricTimeoutError",
    "Communicator",
    "CollectiveHandle",
    "RecvFuture",
    "CommStats",
    "RunStats",
    "CostModel",
    "MachineParams",
    "run_spmd",
    "SpmdResult",
    "ProcessGrid",
    "square_grid",
]

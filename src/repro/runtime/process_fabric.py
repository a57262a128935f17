"""Process-parallel message fabric: spawned ranks, shared-memory transfer.

The thread fabric simulates ranks faithfully but the GIL serialises all
pure-Python compute, so wall-clock never scales with ``p``. This module
provides the second :class:`~repro.runtime.fabric.FabricBase` backend:
each rank is a *spawned* process, large NumPy payloads travel through
POSIX shared memory (one segment per message, unlinked by the
receiver), and small payloads plus control flow ride multiprocessing
queues. The :class:`~repro.runtime.communicator.Communicator` and its
byte accounting run unchanged on top — collective algorithms, tag
discipline and :class:`~repro.runtime.stats.CommStats` are transport-
independent, so the recorded traffic is bit-identical to the thread
backend.

Robustness contract (what the thread fabric never needed):

* a child that raises reports ``(rank, repr, traceback)`` to the driver
  over a dedicated pipe and trips the shared abort event, so every
  other rank unblocks instead of hanging;
* a child that *dies* (killed, segfault) is detected through its pipe's
  EOF plus the process sentinel and surfaces as a driver-side error
  naming the rank and exit code;
* blocked receives give up after the fabric timeout, and the driver
  raises one report naming every stuck rank's blocked ``(src, dst,
  tag)`` and undelivered mailboxes, in rank order;
* shared-memory segments are reference-tracked end to end: receivers
  unlink after copying out, both sides drain their inboxes on exit, and
  the driver sweeps the run's name prefix as a last resort — no run
  leaks segments, even when aborted.

Spawn start method only: fork would inherit arbitrary parent state
(thread locks, BLAS pools) and is unsafe in threaded test runners. The
price is that the rank function and its kwargs must be picklable —
module-level functions, not closures (see
:func:`repro.runtime.executor.run_spmd`).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import pickle
import queue as queue_mod
import secrets
import threading
import time
import traceback
from collections import defaultdict, deque
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Hashable

import numpy as np

from repro.obs.metrics import metrics
from repro.runtime.fabric import (
    FabricBase,
    FabricTimeoutError,
    format_deadlock,
)

__all__ = ["ProcessFabric", "ProcessBackendError", "run_process_spmd"]

#: Arrays at least this large (bytes) travel via SharedMemory; smaller
#: payloads are pickled straight through the queue (one syscall beats a
#: segment create/attach/unlink round-trip for small messages).
SHM_THRESHOLD = 1 << 16

#: Prefix of every shared-memory segment created by this fabric; the
#: driver sweeps ``/dev/shm/<prefix>*`` of its own run token on exit.
SHM_PREFIX = "reprofab"

#: Poll interval for abort-event checks while blocked on a queue.
_POLL_S = 0.05

#: Extra driver-side seconds on top of the fabric timeout, covering
#: interpreter start-up and module imports in spawned children.
_SPAWN_GRACE_S = 60.0


class ProcessBackendError(RuntimeError):
    """The rank program cannot run on the process backend."""


class _ShmRef:
    """Handle to an array parked in a shared-memory segment."""

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: tuple[int, ...], dtype: str) -> None:
        self.name = name
        self.shape = shape
        self.dtype = dtype

    def __getstate__(self):
        return (self.name, self.shape, self.dtype)

    def __setstate__(self, state):
        self.name, self.shape, self.dtype = state


def _untrack(raw_name: str) -> None:
    """Drop a segment from this process's resource tracker.

    The sender hands ownership to the receiver (who unlinks after
    copying out); without this, the sender's tracker would try to
    unlink the same name again at interpreter exit and log warnings.
    """
    try:
        resource_tracker.unregister(raw_name, "shared_memory")
    except Exception:  # pragma: no cover - tracker is an implementation detail
        pass


def _encode(payload: Any, namer: Callable[[], str]) -> Any:
    """Recursively park large arrays in shared memory.

    Returns a queue-safe structure mirroring ``payload`` with big
    ndarrays replaced by :class:`_ShmRef`.
    """
    if isinstance(payload, np.ndarray):
        if payload.nbytes >= SHM_THRESHOLD and not payload.dtype.hasobject:
            arr = np.ascontiguousarray(payload)
            shm = shared_memory.SharedMemory(
                create=True, size=arr.nbytes, name=namer()
            )
            np.ndarray(arr.shape, arr.dtype, buffer=shm.buf)[...] = arr
            shm.close()
            _untrack(shm._name)
            return _ShmRef(shm.name, arr.shape, arr.dtype.str)
        return payload
    if isinstance(payload, (list, tuple)):
        return type(payload)(_encode(item, namer) for item in payload)
    return payload


def _decode(payload: Any) -> Any:
    """Materialise an encoded payload, unlinking consumed segments."""
    if isinstance(payload, _ShmRef):
        shm = shared_memory.SharedMemory(name=payload.name)
        try:
            view = np.ndarray(
                payload.shape, dtype=np.dtype(payload.dtype), buffer=shm.buf
            )
            return view.copy()
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already swept
                pass
    if isinstance(payload, (list, tuple)):
        return type(payload)(_decode(item) for item in payload)
    return payload


def _release(payload: Any) -> None:
    """Unlink every segment referenced by an undelivered payload."""
    if isinstance(payload, _ShmRef):
        try:
            shm = shared_memory.SharedMemory(name=payload.name)
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass
    elif isinstance(payload, (list, tuple)):
        for item in payload:
            _release(item)


class ProcessFabric(FabricBase):
    """One rank's endpoint of the multiprocessing fabric.

    Each rank owns one inbound queue; ``put`` deposits into the
    destination's queue. A background *drainer* thread (started lazily
    on the first receive) moves arrivals from the queue into local
    per-``(src, tag)`` mailboxes under a condition variable, so
    blocking receives, non-blocking probes and completion handles all
    see one consistent mailbox view — and a message posted while the
    rank is busy computing is already local when it finally asks for
    it. Per-key FIFO order holds because each (src, dst) pair has a
    single producer, multiprocessing queues preserve per-producer
    order, and the single drainer preserves queue order into the
    mailboxes.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        queues: list,
        barrier,
        abort_event,
        timeout: float,
        shm_token: str,
    ) -> None:
        super().__init__(size, timeout=timeout)
        self.rank = rank
        self._queues = queues
        self._barrier = barrier
        self._abort = abort_event
        self._pending: dict[tuple[int, Hashable], deque] = defaultdict(deque)
        self._shm_token = shm_token
        self._shm_seq = 0
        self._cond = threading.Condition()
        self._drainer: threading.Thread | None = None
        self._drainer_stop = threading.Event()

    # ------------------------------------------------------------------
    def _next_shm_name(self) -> str:
        self._shm_seq += 1
        return f"{self._shm_token}r{self.rank}n{self._shm_seq}"

    def put(self, src: int, dst: int, tag: Hashable, payload: Any) -> None:
        self._check_ranks(src, dst)
        if src != self.rank:
            raise ValueError(
                f"rank {self.rank} cannot send on behalf of rank {src}"
            )
        encoded = _encode(payload, self._next_shm_name)
        self._queues[dst].put((src, tag, encoded))

    # -- background drain ----------------------------------------------
    def _ensure_drainer(self) -> None:
        if self._drainer is None or not self._drainer.is_alive():
            if self._drainer_stop.is_set():  # drained and shut down
                return
            self._drainer = threading.Thread(
                target=self._drain_loop,
                name=f"fabric-drain-r{self.rank}",
                daemon=True,
            )
            self._drainer.start()

    def _drain_loop(self) -> None:
        """Move inbound queue traffic into the mailboxes until stopped."""
        inbox = self._queues[self.rank]
        while not self._drainer_stop.is_set():
            try:
                src_got, tag_got, encoded = inbox.get(timeout=_POLL_S)
            except queue_mod.Empty:
                continue
            except (OSError, ValueError):  # pragma: no cover - queue closed
                break
            with self._cond:
                self._pending[(src_got, tag_got)].append(encoded)
                self._cond.notify_all()

    def _stop_drainer(self) -> None:
        self._drainer_stop.set()
        if self._drainer is not None and self._drainer.is_alive():
            self._drainer.join(timeout=5.0)

    # -- mailbox primitives --------------------------------------------
    def try_get(self, src: int, dst: int, tag: Hashable) -> tuple[bool, Any]:
        self._check_ranks(src, dst)
        if dst != self.rank:
            raise ValueError(
                f"rank {self.rank} cannot receive on behalf of rank {dst}"
            )
        self._ensure_drainer()
        with self._cond:
            box = self._pending.get((src, tag))
            if not box:
                return False, None
            encoded = box.popleft()
        # Decode (shared-memory attach + copy + unlink) outside the lock.
        return True, _decode(encoded)

    def poll(self, src: int, dst: int, tag: Hashable,
             timeout: float) -> None:
        self._ensure_drainer()
        with self._cond:
            box = self._pending.get((src, tag))
            if box or self._abort.is_set():
                return
            # Cap the sleep: the abort event is a cross-process flag and
            # does not notify this rank's local condition variable.
            self._cond.wait(timeout=min(timeout, _POLL_S))

    def pending_counts(self) -> dict[tuple[int, int, Hashable], int]:
        with self._cond:
            return {
                (s, self.rank, t): len(d)
                for (s, t), d in self._pending.items()
                if d
            }

    @property
    def aborted(self) -> bool:
        return self._abort.is_set()

    def _trip_abort(self) -> None:
        self._abort.set()
        with self._cond:
            self._cond.notify_all()

    def abort(self) -> None:
        self._abort.set()
        self._barrier.abort()
        with self._cond:
            self._cond.notify_all()

    def barrier(self) -> None:
        try:
            self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            raise FabricTimeoutError(
                "barrier broken (a rank aborted or timed out)"
            ) from None

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Release segments of every undelivered inbound message.

        Stops the background drainer first so this rank is the sole
        consumer of its queue during cleanup.
        """
        self._stop_drainer()
        while True:
            try:
                _src, _tag, encoded = self._queues[self.rank].get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                break
            _release(encoded)
        with self._cond:
            boxes = list(self._pending.values())
        for box in boxes:
            while box:
                _release(box.popleft())


# ----------------------------------------------------------------------
# Child process entry point
# ----------------------------------------------------------------------
def _child_main(
    rank: int,
    size: int,
    queues: list,
    conn,
    barrier,
    abort_event,
    timeout: float,
    shm_token: str,
    fn_bytes: bytes,
) -> None:
    """Run one rank program and report the outcome to the driver."""
    from repro.config import trace_enabled_default
    from repro.obs.tracer import Tracer, install_global_tracer
    from repro.runtime.communicator import Communicator
    from repro.runtime.stats import CommStats

    fabric = ProcessFabric(
        rank, size, queues, barrier, abort_event, timeout, shm_token
    )
    stats = CommStats(rank)
    comm = Communicator(fabric, rank, stats)
    try:
        # Spawned children inherit the driver's environment, so the
        # $REPRO_TRACE gate resolves identically here. The child is
        # single-threaded: installing process-globally is enough, and
        # the tracer rides home pickled on this rank's CommStats.
        if trace_enabled_default():
            rank_tracer = Tracer(rank=rank)
            stats.tracer = rank_tracer
            install_global_tracer(rank_tracer)
        fn, kwargs = pickle.loads(fn_bytes)
        start = time.perf_counter()
        if stats.tracer is not None:
            with stats.tracer.span("rank.program", counter=stats.flops):
                value = fn(comm, **kwargs)
        else:
            value = fn(comm, **kwargs)
        stats.wall_s = time.perf_counter() - start
        # The child's metrics registry is invisible to the driver;
        # ship its counters so structure-cache hit/miss counts merge
        # into the driver's registry (parity with threads).
        outcome = ("ok", value, stats, metrics().counters())
    except BaseException as exc:  # noqa: BLE001 - reported to the driver
        abort_event.set()
        # A fabric timeout also ships its line of the joined deadlock
        # report; ``None`` marks a rank that failed on its own.
        stuck = (
            exc.blocked or str(exc)
            if isinstance(exc, FabricTimeoutError)
            else None
        )
        outcome = ("error", repr(exc), traceback.format_exc(), stuck)
    finally:
        fabric.drain()
    try:
        conn.send(outcome)
    except (BrokenPipeError, OSError):  # pragma: no cover - driver gone
        pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _pick_primary(errors: dict[int, tuple]) -> tuple[int, tuple] | None:
    """Root-cause heuristic matching the thread executor.

    The lowest rank that died or failed on its own, not one unblocked
    by the abort after someone else had failed. ``None`` when every
    failure is a fabric timeout: a deadlock has no single culprit, and
    the caller reports every stuck rank instead of whichever rank's
    timer happened to fire first.
    """
    own = [
        (rank, err)
        for rank, err in sorted(errors.items())
        if err[0] == "died" or err[3] is None
    ]
    return own[0] if own else None


def _sweep_segments(shm_token: str) -> int:
    """Unlink any leftover segments of this run (crash-path backstop)."""
    swept = 0
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX hosts
        return 0
    for path in glob.glob(os.path.join(shm_dir, f"{shm_token}*")):
        try:
            os.unlink(path)
            swept += 1
        except OSError:  # pragma: no cover - concurrent unlink
            pass
    return swept


def run_process_spmd(
    size: int,
    fn: Callable[..., Any],
    timeout: float = 120.0,
    **kwargs: Any,
):
    """Execute ``fn(comm, **kwargs)`` on ``size`` spawned process ranks.

    Mirrors the thread path of :func:`repro.runtime.executor.run_spmd`
    (same return type, same error conventions) with real OS-level
    parallelism. Raises :class:`ProcessBackendError` when ``fn`` or its
    kwargs cannot be pickled for the spawn start method.
    """
    from repro.runtime.executor import SpmdResult
    from repro.runtime.stats import RunStats

    if size < 1:
        raise ValueError("need at least one rank")
    try:
        fn_bytes = pickle.dumps((fn, kwargs), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ProcessBackendError(
            "the process backend spawns fresh interpreters, so the rank "
            "function and its kwargs must be picklable; use a module-level "
            f"function instead of a closure/lambda (pickling failed: {exc!r})"
        ) from exc

    ctx = multiprocessing.get_context("spawn")
    shm_token = f"{SHM_PREFIX}{os.getpid():x}x{secrets.token_hex(4)}"
    queues = [ctx.Queue() for _ in range(size)]
    barrier = ctx.Barrier(size)
    abort_event = ctx.Event()
    pipes = [ctx.Pipe(duplex=False) for _ in range(size)]
    procs = [
        ctx.Process(
            target=_child_main,
            args=(
                rank, size, queues, pipes[rank][1], barrier, abort_event,
                timeout, shm_token, fn_bytes,
            ),
            name=f"rank-{rank}",
            daemon=True,
        )
        for rank in range(size)
    ]

    outcomes: dict[int, tuple] = {}
    try:
        for proc in procs:
            proc.start()
        # Close the driver's copies of the send ends so a dead child
        # reads as EOF on its pipe.
        for _recv_end, send_end in pipes:
            send_end.close()

        conn_to_rank = {pipes[rank][0]: rank for rank in range(size)}
        deadline = time.monotonic() + timeout + _SPAWN_GRACE_S
        while len(outcomes) < size:
            waiting = [
                conn for conn, rank in conn_to_rank.items()
                if rank not in outcomes
            ]
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                abort_event.set()
                for rank in range(size):
                    outcomes.setdefault(
                        rank,
                        ("error", "", "",
                         "no outcome before the driver timeout "
                         f"({timeout + _SPAWN_GRACE_S}s)"),
                    )
                break
            for conn in connection_wait(waiting, timeout=min(remaining, 0.5)):
                rank = conn_to_rank[conn]
                try:
                    outcomes[rank] = conn.recv()
                except EOFError:
                    # Child exited without reporting: killed or crashed
                    # below Python. Tear the group down.
                    abort_event.set()
                    procs[rank].join(timeout=5.0)
                    outcomes[rank] = ("died", procs[rank].exitcode)
    finally:
        abort_event.set()
        started = [proc for proc in procs if proc.pid is not None]
        for proc in started:
            proc.join(timeout=5.0)
        for proc in started:
            if proc.is_alive():  # pragma: no cover - hung child backstop
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - unkillable child
                proc.kill()
                proc.join(timeout=2.0)
        # Release any in-flight segments, then close the queues.
        for rank, q in enumerate(queues):
            while True:
                try:
                    _src, _tag, encoded = q.get_nowait()
                except (queue_mod.Empty, OSError, ValueError):
                    break
                _release(encoded)
            q.close()
        for recv_end, _send_end in pipes:
            recv_end.close()
        _sweep_segments(shm_token)

    errors = {
        rank: outcome
        for rank, outcome in outcomes.items()
        if outcome[0] != "ok"
    }
    if errors:
        primary = _pick_primary(errors)
        if primary is None:
            raise RuntimeError(
                format_deadlock(
                    [(rank, err[3]) for rank, err in errors.items()]
                )
            )
        rank, err = primary
        if err[0] == "died":
            raise RuntimeError(
                f"rank {rank} died without reporting (exit code {err[1]}); "
                "the process group was torn down. If this happened at "
                "interpreter start-up, ensure the driver script guards "
                "run_spmd behind `if __name__ == '__main__':` (the spawn "
                "start method re-imports the main module)"
            )
        _kind, exc_repr, tb_text, _stuck = err
        detail = f"\n--- rank {rank} traceback ---\n{tb_text}" if tb_text else ""
        raise RuntimeError(f"rank {rank} failed: {exc_repr}{detail}")

    values = [outcomes[rank][1] for rank in range(size)]
    all_stats = [outcomes[rank][2] for rank in range(size)]
    # Fold every child's counters into the driver's registry,
    # mirroring what the thread backend gets for free by sharing one
    # interpreter.
    for rank in range(size):
        for label, n in outcomes[rank][3].items():
            metrics().counter(label).inc(n)
    return SpmdResult(
        values=values,
        stats=RunStats(per_rank=all_stats),
        backend="process",
    )

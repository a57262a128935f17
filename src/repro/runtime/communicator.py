"""MPI-flavoured communicator over the in-process fabric.

The API mirrors the mpi4py subset the paper's implementation uses
(point-to-point plus ``ibcast``/``allreduce``/``allgather``/
``alltoall``/``reduce_scatter``/``gather``/``split``), and
the collectives are implemented with *real distribution algorithms* —
binomial trees and rings — on top of point-to-point sends. This matters
for fidelity: the per-rank byte counts recorded by
:class:`~repro.runtime.stats.CommStats` then match what a production
MPI library would put on the wire, so the measured communication
volumes line up with the Section-7 analysis (e.g. broadcasting ``W``
costs ``O(k^2)`` words over ``O(log p)`` supersteps).

Tag discipline: SPMD code executes the same communicator calls in the
same order on every rank, so a per-communicator operation counter
namespaces each collective; user point-to-point tags live in a separate
namespace and cannot collide with collectives.

Non-blocking collectives
------------------------
Every collective body is written once, as a *generator* that performs
its sends eagerly and ``yield``s ``(src, tag)`` whenever it needs a
message. The blocking API runs the generator to completion on the
spot; the ``i``-prefixed variants (:meth:`Communicator.ibcast`,
:meth:`Communicator.iallreduce`) start the generator, advance it as far
as arrived messages allow, and return a :class:`CollectiveHandle` to
finish later — so the traffic (bytes, message count, phase attribution)
is identical by construction whether or not the caller overlaps.

Deadlock safety is by *ordered completion*: every rank initiates
collectives in the same SPMD program order, and a per-rank engine
completes outstanding handles in that same initiation order (waiting
handle *k* first drains handles *1..k-1*). Since a tree collective only
blocks on messages produced by peers executing the *same or earlier*
operations, rank-consistent completion order admits no cycle. The
engine is shared across communicators split from the same world, so
the guarantee spans row/column/world collectives of the process grid.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.runtime.fabric import ABORT_MESSAGE, Fabric, FabricTimeoutError
from repro.runtime.stats import CommStats

__all__ = ["Communicator", "CollectiveHandle", "RecvFuture"]

_REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "max": np.maximum,
    "min": np.minimum,
}

#: Seconds between engine progress sweeps while a blocking receive
#: waits with asynchronous collectives outstanding. Bounded so a
#: message relayed by one of *our* outstanding ops cannot stall a peer
#: longer than this.
_PROGRESS_POLL_S = 0.02


def _payload_bytes(payload: Any) -> int:
    """Estimate the wire size of a payload."""
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (list, tuple)):
        return sum(_payload_bytes(item) for item in payload)
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if payload is None:
        return 0
    # Fallback for small control messages (metadata tuples etc.).
    return 64


def _copy(payload: Any) -> Any:
    """Detach a payload from the sender's buffers (models a transfer)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return payload


class CollectiveHandle:
    """Completion handle of a non-blocking collective.

    ``wait()`` blocks until the collective finishes and returns its
    result (repeating ``wait`` returns the cached result). Handles must
    ultimately be waited in *initiation order* across ranks — the engine
    enforces this by draining earlier outstanding handles first.
    """

    __slots__ = ("_comm", "_gen", "_phase", "_want", "_started", "_done",
                 "_result")

    def __init__(self, comm: "Communicator",
                 gen: Generator[tuple[int, Any], Any, Any],
                 phase: str) -> None:
        self._comm = comm
        self._gen = gen
        self._phase = phase
        self._want: tuple[int, Any] | None = None
        self._started = False
        self._done = False
        self._result: Any = None

    def wait(self) -> Any:
        """Complete this collective (draining earlier handles first)."""
        return self._comm._engine.complete(self)

    # -- generator stepping (engine internals) --------------------------
    def _advance(self, blocking: bool) -> bool:
        """Run the generator until done or a message is unavailable.

        Traffic and wait time produced while stepping is attributed to
        the phase captured at initiation, so synchronous and overlapped
        executions agree on ``by_phase`` exactly.
        """
        if self._done:
            return True
        stats = self._comm.stats
        saved = stats.phase
        stats.set_phase(self._phase)
        try:
            if not self._started:
                self._started = True
                try:
                    self._want = next(self._gen)
                except StopIteration as stop:
                    self._finish(stop.value)
                    return True
            while True:
                src, tag = self._want
                if blocking:
                    payload = self._comm._fabric_get(src, tag)
                else:
                    ok, payload = self._comm._try_recv(src, tag)
                    if not ok:
                        return False
                try:
                    self._want = self._gen.send(payload)
                except StopIteration as stop:
                    self._finish(stop.value)
                    return True
        finally:
            stats.set_phase(saved)

    def _finish(self, value: Any) -> None:
        self._result = value
        self._done = True
        self._gen = None


class _AsyncEngine:
    """Per-rank registry of outstanding collectives, in initiation order.

    One engine is shared by a world communicator and everything split
    from it, so the ordered-completion rule covers the interleaved
    row/column/world collectives of a process grid.
    """

    __slots__ = ("outstanding",)

    def __init__(self) -> None:
        self.outstanding: deque[CollectiveHandle] = deque()

    def start(self, handle: CollectiveHandle) -> CollectiveHandle:
        self.outstanding.append(handle)
        # Eager pass: performs the generator's initial sends (roots and
        # ring/tree leaves transmit immediately) and consumes anything
        # already delivered.
        self.progress(handle)
        return handle

    def progress(self, handle: CollectiveHandle) -> bool:
        done = handle._advance(blocking=False)
        if done:
            try:
                self.outstanding.remove(handle)
            except ValueError:
                pass
        return done

    def progress_all(self) -> None:
        """Opportunistically advance every outstanding collective."""
        for handle in list(self.outstanding):
            self.progress(handle)

    def complete(self, handle: CollectiveHandle) -> Any:
        """Blocking-finish ``handle``, earlier outstanding handles first."""
        while not handle._done:
            head = self.outstanding[0] if self.outstanding else handle
            head._advance(blocking=True)
            if head._done and self.outstanding and self.outstanding[0] is head:
                self.outstanding.popleft()
            elif head._done:
                try:
                    self.outstanding.remove(head)
                except ValueError:
                    pass
        return handle._result


class RecvFuture:
    """Completion handle of a communicator-level non-blocking receive.

    Waiting on this future keeps the rank's outstanding asynchronous
    collectives progressing, so a point-to-point receive can never
    starve a collective a peer is blocked inside — and blocked time is
    charged to :attr:`CommStats.wait_s`.
    """

    __slots__ = ("_comm", "_src", "_tag", "_done", "_value")

    def __init__(self, comm: "Communicator", src: int, tag: Any) -> None:
        self._comm = comm
        self._src = src
        self._tag = tag
        self._done = False
        self._value: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._comm._recv_raw(self._src, self._tag)
            self._done = True
        return self._value


class Communicator:
    """One rank's endpoint of a (sub-)communicator.

    Parameters
    ----------
    fabric:
        The shared message fabric.
    rank:
        This rank's *global* id on the fabric.
    stats:
        This rank's traffic counters.
    group:
        Global ranks forming this communicator, in local-rank order.
        ``None`` means the world communicator.
    comm_id:
        Hashable namespace distinguishing this communicator's traffic.
    engine:
        The per-rank async-collective engine. Split communicators share
        their parent's engine so ordered completion spans them.
    """

    def __init__(
        self,
        fabric: Fabric,
        rank: int,
        stats: CommStats,
        group: Sequence[int] | None = None,
        comm_id: Any = "world",
        engine: _AsyncEngine | None = None,
    ) -> None:
        self.fabric = fabric
        self.global_rank = rank
        self.stats = stats
        self.group = list(group) if group is not None else list(range(fabric.size))
        if rank not in self.group:
            raise ValueError("rank is not a member of the communicator group")
        self.rank = self.group.index(rank)
        self.size = len(self.group)
        self.comm_id = comm_id
        self._op_counter = 0
        self._split_counter = 0
        self._engine = engine if engine is not None else _AsyncEngine()

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, payload: Any, dst: int, tag: Any = 0) -> None:
        """Send ``payload`` to local rank ``dst`` (records traffic)."""
        self._send_raw(payload, dst, ("user", tag))

    def recv(self, src: int, tag: Any = 0) -> Any:
        """Blocking receive from local rank ``src``."""
        return self._recv_raw(src, ("user", tag))

    def irecv(self, src: int, tag: Any = 0) -> RecvFuture:
        """Post a non-blocking receive; returns a :class:`RecvFuture`."""
        if not 0 <= src < self.size:
            raise ValueError(f"source {src} outside communicator")
        return RecvFuture(self, src, ("user", tag))

    def _send_raw(self, payload: Any, dst: int, tag: Any) -> None:
        if not 0 <= dst < self.size:
            raise ValueError(f"destination {dst} outside communicator")
        self.stats.record_send(_payload_bytes(payload))
        self.fabric.put(
            self.group[self.rank],
            self.group[dst],
            (self.comm_id, tag),
            _copy(payload),
        )

    def _recv_raw(self, src: int, tag: Any) -> Any:
        """Blocking receive that keeps outstanding collectives moving."""
        if not 0 <= src < self.size:
            raise ValueError(f"source {src} outside communicator")
        gsrc = self.group[src]
        gdst = self.group[self.rank]
        key = (self.comm_id, tag)
        started = time.perf_counter()
        try:
            if not self._engine.outstanding:
                return self.fabric.get(gsrc, gdst, key)
            deadline = time.monotonic() + self.fabric.timeout
            while True:
                if self.fabric.aborted:
                    raise self.fabric.stuck_in_recv(gsrc, gdst, key)
                ok, payload = self.fabric.try_get(gsrc, gdst, key)
                if ok:
                    return payload
                # A peer may be blocked inside a collective that needs
                # one of *our* outstanding ops to relay — keep them all
                # moving while we wait.
                self._engine.progress_all()
                ok, payload = self.fabric.try_get(gsrc, gdst, key)
                if ok:
                    return payload
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.fabric.abort()
                    raise self.fabric.stuck_in_recv(
                        gsrc, gdst, key, timed_out_after=self.fabric.timeout
                    )
                self.fabric.poll(gsrc, gdst, key,
                                 min(remaining, _PROGRESS_POLL_S))
        finally:
            self.stats.record_wait(time.perf_counter() - started)

    def _fabric_get(self, src: int, tag: Any) -> Any:
        """Plain blocking fabric receive with wait-time accounting."""
        started = time.perf_counter()
        try:
            return self.fabric.get(
                self.group[src], self.group[self.rank], (self.comm_id, tag)
            )
        finally:
            self.stats.record_wait(time.perf_counter() - started)

    def _try_recv(self, src: int, tag: Any) -> tuple[bool, Any]:
        if self.fabric.aborted:
            raise FabricTimeoutError(ABORT_MESSAGE)
        return self.fabric.try_get(
            self.group[src], self.group[self.rank], (self.comm_id, tag)
        )

    def _next_op(self) -> int:
        self._op_counter += 1
        return self._op_counter

    # ------------------------------------------------------------------
    # Collective execution (blocking = start + complete immediately)
    # ------------------------------------------------------------------
    def _run(self, gen: Generator[tuple[int, Any], Any, Any]) -> Any:
        return self._start(gen).wait()

    def _start(self, gen: Generator[tuple[int, Any], Any, Any]
               ) -> CollectiveHandle:
        handle = CollectiveHandle(self, gen, self.stats.phase)
        return self._engine.start(handle)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    #: Payloads at least this large (bytes) use the van de Geijn
    #: scatter+allgather broadcast instead of the binomial tree.
    LARGE_BCAST_BYTES = 1 << 15

    def ibcast(self, payload: Any, root: int = 0,
               algorithm: str | None = None) -> CollectiveHandle:
        """Non-blocking broadcast; the handle's ``wait`` returns the payload
        on every rank.

        Two algorithms, mirroring production MPI libraries:

        ``"binomial"``
            Latency-optimal tree: ``O(log p)`` steps, but the root (and
            inner nodes) send up to ``log p`` full copies.
        ``"scatter_allgather"``
            Bandwidth-optimal (van de Geijn): the root scatters ``p``
            chunks, then a ring allgather reassembles them — per-rank
            volume ``≈ 2m(p-1)/p`` regardless of p, which is what the
            Section-7.1 analysis assumes for the feature-block
            broadcasts.

        ``algorithm=None`` selects by payload *and communicator* size
        (large arrays on wide communicators take the bandwidth-optimal
        path), as real MPI does — on narrow communicators the ring's
        extra message latency outweighs the volume saving.
        """
        return self._start(self._bcast_gen(payload, root, algorithm))

    def _bcast_gen(self, payload: Any, root: int,
                   algorithm: str | None) -> Generator:
        op = ("bcast", self._next_op())
        if algorithm is None:
            is_large = (
                self.size >= 8
                and isinstance(payload, np.ndarray)
                and payload.nbytes >= self.LARGE_BCAST_BYTES
            )
            # Every rank must agree on the algorithm; only the root has
            # the payload, so agreement rides a tiny metadata broadcast.
            flag = yield from self._binomial_bcast_gen(
                is_large if self.rank == root else None, root,
                ("bcast_meta", op),
            )
            algorithm = "scatter_allgather" if flag else "binomial"
        if algorithm == "binomial" or self.size == 1:
            result = yield from self._binomial_bcast_gen(
                payload if self.rank == root else None, root, op
            )
            return result
        if algorithm != "scatter_allgather":
            raise ValueError(f"unknown bcast algorithm {algorithm!r}")
        result = yield from self._scatter_allgather_bcast_gen(
            payload, root, op
        )
        return result

    def _scatter_allgather_bcast_gen(self, payload: Any, root: int,
                                     op: Any) -> Generator:
        """Van de Geijn broadcast for large array payloads.

        The embedded scatter and allgather draw their tags from the
        parent operation (not the op counter), so a deferred broadcast
        consumes exactly one counter increment on every rank no matter
        when each rank learns which algorithm was chosen.
        """
        if self.rank == root:
            arr = np.ascontiguousarray(payload)
            meta = (arr.shape, arr.dtype.str)
        else:
            meta = None
        meta = yield from self._binomial_bcast_gen(meta, root, ("sag_meta", op))
        shape, dtype = meta
        if self.rank == root:
            flat = arr.reshape(-1)
            bounds = np.linspace(0, flat.size, self.size + 1).astype(int)
            chunks = [flat[bounds[i]:bounds[i + 1]] for i in range(self.size)]
        else:
            chunks = None
        mine = yield from self._scatter_gen(chunks, root, ("sag_scatter", op))
        gathered = yield from self._allgather_gen(mine, ("sag_allgather", op))
        return np.concatenate(gathered).reshape(shape).astype(dtype, copy=False)

    def allreduce(self, payload: Any, op: str = "sum") -> Any:
        """Reduce-to-root followed by broadcast (``2 log p`` supersteps)."""
        return self._run(self._allreduce_gen(payload, op))

    def iallreduce(self, payload: Any, op: str = "sum") -> CollectiveHandle:
        """Non-blocking :meth:`allreduce`."""
        return self._start(self._allreduce_gen(payload, op))

    def _allreduce_gen(self, payload: Any, op: str) -> Generator:
        tag = ("allreduce", self._next_op())
        reduced = yield from self._binomial_reduce_gen(
            payload, 0, _REDUCE_OPS[op], tag
        )
        result = yield from self._binomial_bcast_gen(
            reduced if self.rank == 0 else None, 0, tag
        )
        return result

    def allgather(self, payload: Any) -> list[Any]:
        """Ring allgather: ``p - 1`` steps, each forwarding one block.

        Per-rank volume is ``(p - 1) * blocksize`` — the bandwidth-
        optimal algorithm, matching the cost the Section-7 analysis
        assigns to feature-block replication.
        """
        return self._run(
            self._allgather_gen(payload, ("allgather", self._next_op()))
        )

    def _allgather_gen(self, payload: Any, base: Any) -> Generator:
        blocks: list[Any] = [None] * self.size
        blocks[self.rank] = payload
        current = payload
        right = (self.rank + 1) % self.size
        left = (self.rank - 1) % self.size
        for step in range(self.size - 1):
            tag = (base, step)
            self._send_raw(current, right, tag)
            current = yield (left, tag)
            blocks[(self.rank - step - 1) % self.size] = current
        return blocks

    def alltoall(self, payloads: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all: direct sends (``p - 1`` messages)."""
        if len(payloads) != self.size:
            raise ValueError("alltoall needs one payload per rank")
        return self._run(self._alltoall_gen(payloads))

    def _alltoall_gen(self, payloads: Sequence[Any]) -> Generator:
        op = self._next_op()
        received: list[Any] = [None] * self.size
        received[self.rank] = payloads[self.rank]
        for offset in range(1, self.size):
            dst = (self.rank + offset) % self.size
            src = (self.rank - offset) % self.size
            tag = ("alltoall", op, offset)
            self._send_raw(payloads[dst], dst, tag)
            received[src] = yield (src, tag)
        return received

    def reduce_scatter(self, blocks: Sequence[np.ndarray],
                       op: str = "sum") -> Any:
        """Ring reduce-scatter over per-rank blocks.

        Each rank contributes ``p`` blocks and receives the fully
        reduced block of its own index; per-rank volume is
        ``(p - 1) * blocksize``. This is the primitive behind summing
        the 1.5D algorithm's partial output blocks (Section 6.3).
        """
        return self._run(self._reduce_scatter_gen(blocks, op))

    def _reduce_scatter_gen(self, blocks: Sequence[np.ndarray],
                            op: str) -> Generator:
        if len(blocks) != self.size:
            raise ValueError("reduce_scatter needs one block per rank")
        op_fn = _REDUCE_OPS[op]
        op_id = self._next_op()
        right = (self.rank + 1) % self.size
        left = (self.rank - 1) % self.size
        # Start by sending the block owned by our left neighbour's chain.
        current = blocks[(self.rank + 1) % self.size]
        for step in range(self.size - 1):
            tag = ("reduce_scatter", op_id, step)
            self._send_raw(current, left, tag)
            incoming = yield (right, tag)
            target = (self.rank + step + 2) % self.size
            if step == self.size - 2:
                return op_fn(incoming, blocks[self.rank])
            current = op_fn(incoming, blocks[target])
        # size == 1: nothing to exchange.
        return blocks[self.rank]

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        """Gather payloads at ``root`` (direct sends)."""
        return self._run(
            self._gather_gen(payload, root, ("gather", self._next_op()))
        )

    def _gather_gen(self, payload: Any, root: int, tag: Any) -> Generator:
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = payload
            for src in range(self.size):
                if src != root:
                    out[src] = yield (src, tag)
            return out
        self._send_raw(payload, root, tag)
        return None

    def _scatter_gen(self, payloads: Sequence[Any] | None, root: int,
                     tag: Any) -> Generator:
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError("root must supply one payload per rank")
            for dst in range(self.size):
                if dst != root:
                    self._send_raw(payloads[dst], dst, tag)
            return payloads[root]
        result = yield (root, tag)
        return result

    # ------------------------------------------------------------------
    # Communicator management
    # ------------------------------------------------------------------
    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition into sub-communicators by ``color`` (MPI_Comm_split).

        Ranks sharing a color form a new communicator ordered by
        ``key`` (default: current local rank). Used by the process grid
        for row/column communicators. The child shares this rank's
        async engine, so ordered completion spans parent and child
        collectives.
        """
        key = self.rank if key is None else key
        self._split_counter += 1
        members = self.allgather((color, key, self.group[self.rank]))
        same = sorted(
            (k, g) for c, k, g in members if c == color
        )
        group = [g for _k, g in same]
        return Communicator(
            self.fabric,
            self.global_rank,
            self.stats,
            group=group,
            comm_id=(self.comm_id, "split", self._split_counter, color),
            engine=self._engine,
        )

    # ------------------------------------------------------------------
    # Internal tree algorithms (generator bodies)
    # ------------------------------------------------------------------
    def _binomial_bcast_gen(self, payload: Any, root: int,
                            op: Any) -> Generator:
        """Binomial-tree broadcast relative to ``root``.

        The root's sends are performed eagerly at initiation; inner
        nodes forward as soon as their subtree payload arrives.
        """
        vrank = (self.rank - root) % self.size
        mask = 1
        # Receive phase: find the bit at which we get the payload.
        while mask < self.size:
            if vrank & mask:
                src = ((vrank ^ mask) + root) % self.size
                payload = yield (src, ("bc", op, mask))
                break
            mask <<= 1
        # Send phase: forward to the subtrees below our receive bit.
        mask >>= 1
        while mask > 0:
            if vrank + mask < self.size:
                dst = ((vrank + mask) + root) % self.size
                self._send_raw(payload, dst, ("bc", op, mask))
            mask >>= 1
        return payload

    def _binomial_reduce_gen(
        self, payload: Any, root: int,
        op_fn: Callable[[Any, Any], Any], op: Any
    ) -> Generator:
        """Binomial-tree reduction relative to ``root``.

        Leaves send eagerly at initiation; inner nodes accumulate their
        children's contributions as they arrive, then forward upward.
        """
        vrank = (self.rank - root) % self.size
        mask = 1
        acc = payload
        while mask < self.size:
            if vrank & mask:
                dst = ((vrank ^ mask) + root) % self.size
                self._send_raw(acc, dst, ("rd", op, mask))
                break
            partner = vrank | mask
            if partner < self.size:
                src = (partner + root) % self.size
                incoming = yield (src, ("rd", op, mask))
                acc = op_fn(acc, incoming)
            mask <<= 1
        return acc if vrank == 0 else None

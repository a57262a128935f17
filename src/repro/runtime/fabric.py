"""The message fabric under the simulated MPI ranks.

The :class:`Fabric` is the transport layer underneath the
:class:`~repro.runtime.communicator.Communicator`: per-``(src, dst,
tag)`` mailboxes with blocking receives and abort propagation so one
failing rank unblocks everyone else. Ranks are
Python threads of one process and a "transfer" is a reference hand-off
guarded by a condition variable: zero-copy, and the compiled attention
sweep, BLAS and scipy all release the GIL, so rank threads overlap on
real cores wherever the time goes (DESIGN.md S10 records the
measurement that retired the spawned-process fabric).

On top of the mailbox model sit the *non-blocking* primitives:
:meth:`Fabric.try_get` (probe-and-pop) and :meth:`Fabric.poll` (bounded
wait for arrivals). Blocking :meth:`Fabric.get` is built on those
primitives, and its deadlock
timeout report — each stuck rank's blocked ``(src, dst, tag)`` plus
every undelivered mailbox, joined in rank order by
:func:`format_deadlock` — is identical across runs.

Communication *cost* is accounted separately (see
:mod:`repro.runtime.stats`): the communicator's collective algorithms —
not the transport — decide what goes on the simulated wire.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict, deque
from typing import Any, Hashable

__all__ = ["Fabric", "FabricTimeoutError"]

#: Default seconds a blocked receive waits before declaring deadlock.
DEFAULT_TIMEOUT = 60.0

#: Maximum mailbox lines included in a timeout report.
_SUMMARY_LIMIT = 8

#: Error text used when a rank is unblocked by another rank's failure.
ABORT_MESSAGE = "fabric aborted by another rank"


class FabricTimeoutError(RuntimeError):
    """A receive timed out, or was aborted because another rank failed."""

    #: The receive this rank was stuck in and the traffic nobody
    #: collected (``recv(src, dst, tag); <undelivered mailboxes>``) — the
    #: same text whether this rank's own timer fired or another rank's
    #: abort woke it, so a deadlock reads the same whichever rank gives
    #: up first. ``None`` when the rank was not in a blocking receive.
    blocked: str | None = None


def _edge(src: int, dst: int, tag: Hashable) -> str:
    return f"recv(src={src}, dst={dst}, tag={tag!r})"


def _undelivered(pending: dict[tuple[int, int, Hashable], int]) -> str:
    """Summarise the mailboxes holding messages nobody received."""
    # Ties broken by the key's text: mailbox insertion order depends on
    # which sender ran first.
    boxes = sorted(
        ((key, count) for key, count in pending.items() if count > 0),
        key=lambda item: (-item[1], repr(item[0])),
    )
    if not boxes:
        return "no undelivered messages (sender never sent)"
    lines = [
        f"(src={k[0]}, dst={k[1]}, tag={k[2]!r}) x{count}"
        for k, count in boxes[:_SUMMARY_LIMIT]
    ]
    more = len(boxes) - _SUMMARY_LIMIT
    if more > 0:
        lines.append(f"... and {more} more mailboxes")
    return (
        f"{sum(c for _, c in boxes)} undelivered message(s) in "
        f"{len(boxes)} mailbox(es): " + ", ".join(lines)
    )


def format_timeout(
    src: int,
    dst: int,
    tag: Hashable,
    timeout: float,
    pending: dict[tuple[int, int, Hashable], int],
) -> str:
    """Deadlock report naming the blocked edge and undelivered traffic.

    ``pending`` maps ``(src, dst, tag)`` to the number of messages
    deposited but never received — the first place to look when a tag
    mismatch or a diverging collective sequence hangs a rank.
    """
    return (
        f"{_edge(src, dst, tag)} timed out after {timeout}s — likely "
        f"deadlock; {_undelivered(pending)}"
    )


def format_deadlock(reports: list[tuple[int, str]]) -> str:
    """The one message a driver raises when no rank failed on its own.

    ``reports`` holds ``(rank, text)`` for every rank that ended in a
    :class:`FabricTimeoutError` — its ``blocked`` text, else its
    message. Joining all of them in rank order (rather than surfacing
    whichever rank's timer fired first) makes the report the same on
    every run of the same deadlock.
    """
    lines = [f"  rank {rank}: {text}" for rank, text in sorted(reports)]
    return (
        "fabric timed out — likely deadlock; stuck ranks in rank order:\n"
        + "\n".join(lines)
    )


class Fabric:
    """Shared state connecting ``size`` simulated thread ranks.

    Messages are NumPy arrays (or arbitrary payloads) deposited into
    per-``(src, dst, tag)`` mailboxes; blocking ``recv`` waits on a
    condition variable, so rank interleaving is handled by the OS
    scheduler exactly as in a real multi-process MPI job — with the
    obvious difference that "transfer" is a reference hand-off.

    Parameters
    ----------
    size:
        Number of ranks.
    timeout:
        Deadlock guard: any receive blocked longer than this many
        seconds raises :class:`FabricTimeoutError` instead of hanging
        the test suite. Must be finite and positive.
    """

    def __init__(self, size: int, timeout: float = DEFAULT_TIMEOUT) -> None:
        if size < 1:
            raise ValueError("fabric needs at least one rank")
        # A NaN deadline never expires (every comparison with it is
        # false) and a zero or negative one calls a program that merely
        # has not finished a deadlock.
        if not (timeout > 0 and math.isfinite(timeout)):
            raise ValueError(
                "fabric timeout must be a finite positive number of "
                f"seconds, got {timeout!r}"
            )
        self.size = size
        self.timeout = timeout
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._mailboxes: dict[tuple[int, int, Hashable], deque] = defaultdict(deque)
        self._aborted = False

    # -- mailbox primitives ----------------------------------------------
    def put(self, src: int, dst: int, tag: Hashable, payload: Any) -> None:
        """Deposit a message; wakes any blocked receivers. Never blocks."""
        self._check_ranks(src, dst)
        with self._condition:
            self._mailboxes[(src, dst, tag)].append(payload)
            self._condition.notify_all()

    def try_get(self, src: int, dst: int, tag: Hashable) -> tuple[bool, Any]:
        """Non-blocking probe-and-pop: ``(True, payload)`` or ``(False, None)``."""
        self._check_ranks(src, dst)
        with self._condition:
            box = self._mailboxes.get((src, dst, tag))
            if box:
                return True, box.popleft()
        return False, None

    def poll(self, src: int, dst: int, tag: Hashable,
             timeout: float) -> None:
        """Block up to ``timeout`` seconds for inbound activity.

        Returns as soon as *any* message lands (not only the requested
        key), so callers interleaving several pending receives can make
        progress on all of them.
        """
        key = (src, dst, tag)
        with self._condition:
            # Atomic re-check before sleeping: a deposit between the
            # caller's probe and this lock acquisition must not be lost.
            box = self._mailboxes.get(key)
            if box or self._aborted:
                return
            self._condition.wait(timeout=timeout)

    def pending_counts(self) -> dict[tuple[int, int, Hashable], int]:
        """Undelivered-message counts per mailbox (for timeout reports)."""
        with self._condition:
            return {k: len(v) for k, v in self._mailboxes.items() if v}

    @property
    def aborted(self) -> bool:
        """Whether any rank tripped the abort flag."""
        return self._aborted

    def abort(self) -> None:
        """Unblock every waiting rank with an error (failure propagation)."""
        with self._condition:
            self._aborted = True
            self._condition.notify_all()

    # -- blocking receive --------------------------------------------------
    def get(self, src: int, dst: int, tag: Hashable,
            timeout: float | None = None) -> Any:
        """Blocking receive of the oldest matching message.

        On timeout the abort flag is tripped (unblocking all other
        ranks). Both the rank whose timer fired and the ranks that
        abort wakes raise an error naming their own blocked edge plus
        every undelivered mailbox.
        """
        self._check_ranks(src, dst)
        limit = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + limit
        while True:
            if self.aborted:
                raise self.stuck_in_recv(src, dst, tag)
            ok, payload = self.try_get(src, dst, tag)
            if ok:
                return payload
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.abort()
                raise self.stuck_in_recv(src, dst, tag, timed_out_after=limit)
            self.poll(src, dst, tag, remaining)

    def stuck_in_recv(
        self,
        src: int,
        dst: int,
        tag: Hashable,
        timed_out_after: float | None = None,
    ) -> FabricTimeoutError:
        """The error of a rank that cannot finish ``recv(src, dst, tag)``.

        ``timed_out_after`` is the limit that expired when this rank's
        own timer fired; ``None`` means another rank's abort woke it.
        Either way the error's ``blocked`` text is the same.
        """
        pending = self.pending_counts()
        blocked = f"{_edge(src, dst, tag)}; {_undelivered(pending)}"
        error = FabricTimeoutError(
            f"{ABORT_MESSAGE} while blocked in {blocked}"
            if timed_out_after is None
            else format_timeout(src, dst, tag, timed_out_after, pending)
        )
        error.blocked = blocked
        return error

    # ------------------------------------------------------------------
    def _check_ranks(self, src: int, dst: int) -> None:
        if not (0 <= src < self.size and 0 <= dst < self.size):
            raise ValueError(
                f"rank out of range: src={src}, dst={dst}, size={self.size}"
            )

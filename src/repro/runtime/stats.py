"""Per-rank communication and compute accounting.

The theoretical analysis of Section 7 is phrased in the BSP model: the
*communication volume* is the maximum number of words sent by any
processor. These counters measure exactly that — every ``send`` of the
simulated communicator records its payload size against the sending
rank (optionally under a phase label), and local kernels record flops
via :class:`~repro.util.counters.FlopCounter`. The benchmark figures
are produced from these counters through the cost model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.util.counters import FlopCounter

__all__ = ["CommStats", "RunStats"]

#: Word size used when converting bytes to "words" (fp32, as in the
#: paper's experiments).
WORD_BYTES = 4


class CommStats:
    """Counters for one rank.

    Attributes
    ----------
    bytes_sent, messages_sent:
        Cumulative traffic originated by this rank.
    flops:
        Local compute, via the embedded :class:`FlopCounter`.
    by_phase:
        ``phase -> bytes`` breakdown (e.g. "psi", "redistribute").
    wall_s:
        Measured wall-clock seconds of this rank's program, set by the
        executor. Rank threads share the GIL outside the compiled
        kernels, BLAS and scipy, so this is an observation of this
        box, not the paper's scaling signal (that is the modeled time
        of :mod:`repro.runtime.costmodel`).
    wait_s:
        Seconds this rank spent *blocked on a receive* (inside the
        communicator waiting for a message or a collective step to
        arrive). ``wall_s - wait_s`` is the compute share; the overlap
        work in the 1.5D layers exists to shrink ``wait_s`` without
        touching the traffic counters above.
    wait_by_phase:
        ``phase -> seconds`` breakdown of ``wait_s``, attributed to the
        phase active when the operation was *initiated* (so synchronous
        and overlapped runs attribute waits to the same phases).
    tracer:
        Optional per-rank :class:`~repro.obs.tracer.Tracer`, installed
        by the executor when tracing is on. Sends recorded here become
        zero-length ``"send"`` slices (``seq``, ``phase``, ``nbytes``)
        on the rank's timeline and waits timed ``"wait"`` slices; the
        driver reads the rank's whole span record off this attribute
        after the run.
    """

    __slots__ = ("rank", "bytes_sent", "messages_sent", "flops", "by_phase",
                 "_phase", "wall_s", "wait_s", "wait_by_phase", "tracer")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.bytes_sent = 0
        self.messages_sent = 0
        self.flops = FlopCounter()
        self.by_phase: dict[str, int] = {}
        self._phase = "default"
        self.wall_s = 0.0
        self.wait_s = 0.0
        self.wait_by_phase: dict[str, float] = {}
        self.tracer = None

    # ------------------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        """Label subsequent traffic (e.g. per pipeline stage)."""
        self._phase = phase

    @property
    def phase(self) -> str:
        """The currently active traffic label."""
        return self._phase

    def record_send(self, nbytes: int) -> None:
        """Charge one outgoing message of ``nbytes`` to this rank."""
        nbytes = int(nbytes)
        self.bytes_sent += nbytes
        self.messages_sent += 1
        self.by_phase[self._phase] = (
            self.by_phase.get(self._phase, 0) + nbytes
        )
        if self.tracer is not None:
            now = time.perf_counter()
            self.tracer.add_slice(
                "send", now, now, seq=self.messages_sent,
                phase=self._phase, nbytes=nbytes,
            )

    def record_wait(self, seconds: float, phase: str | None = None) -> None:
        """Charge blocked-on-recv time (attributed to ``phase``)."""
        if seconds <= 0.0:
            return
        label = self._phase if phase is None else phase
        self.wait_s += seconds
        self.wait_by_phase[label] = (
            self.wait_by_phase.get(label, 0.0) + seconds
        )
        if self.tracer is not None:
            # Callers invoke record_wait immediately after the blocking
            # wait returns, so "now" is the interval's end to within
            # call overhead — good enough for a timeline slice.
            end = time.perf_counter()
            self.tracer.add_slice("wait", end - seconds, end, phase=label)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CommStats(rank={self.rank}, msgs={self.messages_sent}, "
            f"bytes={self.bytes_sent}, flops={self.flops.total}, "
            f"wait_s={self.wait_s:.3f})"
        )


@dataclass
class RunStats:
    """Aggregate over all ranks of one SPMD execution."""

    per_rank: list[CommStats] = field(default_factory=list)

    @property
    def max_bytes_sent(self) -> int:
        """BSP communication volume in bytes (max over ranks)."""
        return max((s.bytes_sent for s in self.per_rank), default=0)

    @property
    def max_words_sent(self) -> int:
        """BSP communication volume in fp32 words (max over ranks)."""
        return self.max_bytes_sent // WORD_BYTES

    @property
    def total_bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.per_rank)

    @property
    def max_messages_sent(self) -> int:
        return max((s.messages_sent for s in self.per_rank), default=0)

    @property
    def max_flops(self) -> int:
        """Critical-path compute (max flops over ranks)."""
        return max((s.flops.total for s in self.per_rank), default=0)

    @property
    def max_wall_s(self) -> float:
        """Slowest rank's measured wall-clock seconds (0 if unset)."""
        return max((s.wall_s for s in self.per_rank), default=0.0)

    @property
    def max_wait_s(self) -> float:
        """Largest per-rank blocked-on-recv time."""
        return max((s.wait_s for s in self.per_rank), default=0.0)

    @property
    def total_wait_s(self) -> float:
        return sum(s.wait_s for s in self.per_rank)

    def phase_bytes(self) -> dict[str, int]:
        """Per-phase max-over-ranks byte counts."""
        phases: dict[str, int] = {}
        for stats in self.per_rank:
            for phase, nbytes in stats.by_phase.items():
                phases[phase] = max(phases.get(phase, 0), nbytes)
        return phases

    @property
    def wait_fraction(self) -> float:
        """Blocked share of the slowest rank's wall-clock.

        ``max_wait_s / max_wall_s`` — the same summary-level definition
        the strong-scaling bench reports; 0 when wall time is unset.
        """
        wall = self.max_wall_s
        return (self.max_wait_s / wall) if wall > 0 else 0.0

    def max_wait_by_phase(self) -> dict[str, float]:
        """Per-phase max-over-ranks blocked seconds."""
        phases: dict[str, float] = {}
        for stats in self.per_rank:
            for phase, seconds in stats.wait_by_phase.items():
                phases[phase] = max(phases.get(phase, 0.0), seconds)
        return phases


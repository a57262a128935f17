"""A rank's sends on its tracer, and the diff that finds a diverging rank."""

import numpy as np

from repro.obs import Tracer, diff_sends
from repro.runtime import run_spmd
from tests import _spmd_programs as programs


def _sends(tracer):
    return [s for s in tracer.spans if s.name == "send"]


def _with_sends(rank, *sends):
    """A rank tracer holding ``(phase, nbytes)`` sends, numbered from 1."""
    tracer = Tracer(rank=rank)
    for seq, (phase, nbytes) in enumerate(sends, start=1):
        tracer.add_slice("send", 0.0, 0.0, seq=seq, phase=phase, nbytes=nbytes)
    return tracer


class TestTraceRecording:
    def test_disabled_by_default(self):
        result = run_spmd(2, lambda comm: comm.allreduce(np.ones(2)),
                          timeout=10)
        assert all(s.tracer is None for s in result.stats.per_rank)

    def test_records_sends_with_phases(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        result = run_spmd(2, programs.traced_sends, timeout=10)
        for stats in result.stats.per_rank:
            sends = _sends(stats.tracer)
            # Every message, in the order it left, under the phase that
            # was active, and the sizes add up to the rank's counter.
            assert [s.attrs["seq"] for s in sends] == list(
                range(1, stats.messages_sent + 1)
            )
            phases = [s.attrs["phase"] for s in sends]
            assert phases == sorted(phases) and set(phases) <= {
                "alpha", "beta"
            }
            for phase, nbytes in stats.by_phase.items():
                assert nbytes == sum(
                    s.attrs["nbytes"] for s in sends
                    if s.attrs["phase"] == phase
                )
            assert all(s.t0 == s.t1 for s in sends)
            starts = [s.t0 for s in sends]
            assert starts == sorted(starts)


class TestDiffTraces:
    def test_agreement(self):
        # Sizes may differ between ranks; phases are what must line up.
        a = _with_sends(0, ("x", 10), ("y", 99))
        b = _with_sends(1, ("x", 10), ("y", 50))
        assert diff_sends(a, b) == "traces agree"

    def test_phase_divergence_detected(self):
        a = _with_sends(0, ("setup", 8), ("psi", 10), ("psi", 10))
        b = _with_sends(3, ("setup", 8), ("redistribute", 10), ("psi", 10))
        report = diff_sends(a, b)
        assert "divergence at event 1" in report
        assert "rank 0 sent in phase 'psi'" in report
        assert "rank 3 sent in phase 'redistribute'" in report

    def test_length_divergence_detected(self):
        a = _with_sends(0, ("x", 10), ("x", 24))
        b = _with_sends(1, ("x", 10))
        for report in (diff_sends(a, b), diff_sends(b, a)):
            assert "rank 0 has extra events from index 1" in report
            assert "#2 x 24 B" in report

    def test_non_send_spans_are_ignored(self):
        a = _with_sends(0, ("x", 10))
        b = _with_sends(1, ("x", 10))
        b.add_slice("wait", 0.0, 0.5, phase="other")
        with b.span("sched.step"):
            pass
        assert diff_sends(a, b) == "traces agree"

    def test_symmetric_collectives_give_identical_traces(self, monkeypatch):
        """Ring collectives send the same message sequence on every
        rank, so their send slices agree exactly — the baseline
        diff_sends compares against. (Tree collectives are
        rank-asymmetric by design: roots and leaves send different
        counts.)"""
        monkeypatch.setenv("REPRO_TRACE", "1")
        result = run_spmd(4, programs.ring_collectives, timeout=60.0)
        tracers = [s.tracer for s in result.stats.per_rank]
        assert _sends(tracers[0])
        for other in tracers[1:]:
            assert diff_sends(tracers[0], other) == "traces agree"

    def test_rank_on_another_code_path_is_named(self, monkeypatch):
        """Rank 2 labels its second round differently: the diff against
        any other rank stops at that round's first send."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        result = run_spmd(4, programs.ring_collectives, timeout=10,
                          stray_rank=2)
        tracers = [s.tracer for s in result.stats.per_rank]
        assert diff_sends(tracers[0], tracers[1]) == "traces agree"
        setup_sends = sum(
            s.attrs["phase"] == "setup" for s in _sends(tracers[0])
        )
        report = diff_sends(tracers[0], tracers[2])
        assert f"divergence at event {setup_sends}:" in report
        assert "rank 0 sent in phase 'work'" in report
        assert "rank 2 sent in phase 'stray'" in report

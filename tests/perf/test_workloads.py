"""Tests of the tracing-overhead gate's zero-cost check: it passes on
the current tree and fails on a single unguarded recorder call."""

from __future__ import annotations

from repro.mpi.comm import Comm
from repro.perf import get_gate, run_gate
from repro.perf.workloads import zero_cost_check

ZERO = {"recorder_calls": 0.0, "wait_edges": 0.0, "clock_reads": 0.0}


class TestStructuralCheck:
    def test_one_unguarded_recorder_call_fails_the_check(self, monkeypatch):
        """An instant marker recorded without the ``enabled`` guard is
        counted, even though the disabled recorder drops it."""
        flush = Comm.flush_caches

        def unguarded_flush(self, nbytes=50_000_000):
            flush(self, nbytes)
            self.world.obs.record(self.world.kernel.now, "flush", rank=self.rank)

        monkeypatch.setattr(Comm, "flush_caches", unguarded_flush)
        counts = zero_cost_check()
        assert counts["recorder_calls"] > 0
        assert counts["wait_edges"] == 0 and counts["clock_reads"] == 0

    def test_passes_against_the_current_tree(self):
        assert zero_cost_check() == ZERO
        # The gate runs the same check in a fresh interpreter.
        result, _ = run_gate(get_gate("tracing-overhead"))
        assert result.passed, result.failures()
        assert result.metrics == ZERO

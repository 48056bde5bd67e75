"""The causal critical-path profiler, property-tested.

The headline contracts:

* **Exact partition** — for every scheme x platform x size x iteration
  cell, the extracted critical path's segments tile ``[0, total]``
  bit-exactly: first begins at 0, last ends at the job's virtual time,
  adjacent segments share a boundary, and the telescoping
  ``Fraction`` sum of durations equals the total with no float slop.
* **What-if fidelity** — re-pricing the path under a perturbed machine
  predicts the *actual* re-run time within 5% (in practice: to float
  round-off) for every scheme on every figure platform.
* **Zero perturbation** — recording wait-for edges must not change
  virtual time; traced and untraced runs stay bit-identical.
* **Deadlock forensics** — a real wait cycle is named in the
  :class:`~repro.sim.errors.DeadlockError` message: who is blocked, on
  what, since when, plus the tail of the wait-for graph.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.explain import explain_scheme, explain_schemes
from repro.core import PAPER_ORDER, TimingPolicy, run_pingpong, strided_for_bytes
from repro.machine.registry import get_platform
from repro.mpi import SimBuffer, run_mpi
from repro.obs import (
    NULL_RECORDER,
    PERTURBATIONS,
    RESOURCES,
    extract_critical_path,
    span_slack,
)
from repro.sim.errors import DeadlockError

FIGURE_PLATFORMS = ("skx-impi", "skx-mvapich2", "ls5-cray", "knl-impi")


def _traced_pingpong(key, nbytes, platform, iterations=1):
    return run_pingpong(
        key,
        strided_for_bytes(nbytes),
        platform,
        policy=TimingPolicy(iterations=iterations, flush=False),
        materialize=False,
        trace=True,
    )


class TestExactPartition:
    @given(
        key=st.sampled_from(PAPER_ORDER),
        nbytes=st.sampled_from([800, 65_536, 1_000_000]),
        platform=st.sampled_from(FIGURE_PLATFORMS + ("ideal",)),
        iterations=st.integers(1, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_path_tiles_virtual_time_bit_exactly(
        self, key, nbytes, platform, iterations
    ):
        result = _traced_pingpong(key, nbytes, platform, iterations)
        path = extract_critical_path(result.tracer, result.virtual_time)
        path.assert_partitions()  # raises on any tiling violation
        # and the telescoping sum really is bit-exact, not 1e-9-close
        total = sum((Fraction(s.end) - Fraction(s.begin) for s in path.segments),
                    Fraction(0))
        assert total == Fraction(result.virtual_time)
        assert {s.resource for s in path.segments} <= set(RESOURCES)
        assert {s.kind for s in path.segments} <= {"work", "wait", "drain"}

    def test_by_resource_partitions_too(self):
        result = _traced_pingpong("vector", 1_000_000, "skx-impi")
        path = extract_critical_path(result.tracer, result.virtual_time)
        shares = path.by_resource()
        assert set(shares) == set(RESOURCES)
        assert sum(shares.values()) == pytest.approx(result.virtual_time, abs=1e-12)

    def test_slack_is_nonnegative_and_zero_on_path(self):
        result = _traced_pingpong("packing-vector", 1_000_000, "skx-impi")
        path = extract_critical_path(result.tracer, result.virtual_time)
        slack = span_slack(result.tracer, path)
        assert slack, "expected at least one span"
        assert all(s >= -1e-12 for _, s in slack)
        # the big pack span on the critical path has (near-)zero slack
        assert any(
            span.name == "pack.pack" and s < 1e-12 for span, s in slack
        )


class TestBoundingVerdicts:
    @pytest.mark.parametrize("platform", FIGURE_PLATFORMS)
    def test_every_scheme_gets_a_bounding_resource(self, platform):
        """Acceptance: ``repro explain`` names a bounding resource for
        all 8 schemes on all 4 figure platforms."""
        verdicts = explain_schemes(platform=platform)
        assert set(verdicts) == set(PAPER_ORDER)
        for key, exp in verdicts.items():
            assert exp.bound_by in RESOURCES, (platform, key)
            assert exp.shares[exp.bound_by] > 0.0
            assert exp.total > 0.0

    def test_verdicts_are_physically_sensible(self):
        """Contiguous reference is wire-bound; the pack-heavy derived
        type schemes are pack-bound at 1 MB on skx-impi."""
        verdicts = explain_schemes(platform="skx-impi")
        assert verdicts["reference"].bound_by == "wire"
        for key in ("vector", "subarray", "packing-vector", "copying"):
            assert verdicts[key].bound_by == "pack", key


class TestWhatIf:
    @pytest.mark.parametrize("key", PAPER_ORDER)
    @pytest.mark.parametrize("platform", FIGURE_PLATFORMS)
    def test_predictions_match_reruns_within_5pct(self, key, platform):
        """Acceptance: every built-in perturbation's predicted time
        matches an actual re-run on the transformed platform within 5%
        for every scheme on every figure platform."""
        exp = explain_scheme(key, platform, 1_000_000, validate=True)
        assert len(exp.whatifs) >= 3
        assert exp.validated
        for w in exp.whatifs:
            assert w.error is not None and w.error <= 0.05, (key, platform, w)

    def test_predictions_are_actually_tight(self):
        """The 5% acceptance bound is loose: the pricing is exact up to
        float round-off on a protocol-stable cell."""
        exp = explain_scheme("vector", "skx-impi", 1_000_000, validate=True)
        for w in exp.whatifs:
            assert w.error < 1e-9, w

    def test_eager_cell_validates_too(self):
        """Small (eager-protocol) messages: uses_eager is byte-based, so
        the protocol choice survives the perturbation and predictions
        stay valid."""
        exp = explain_scheme("reference", "skx-impi", 800, validate=True)
        for w in exp.whatifs:
            assert w.error is not None and w.error <= 0.05, w

    def test_perturbation_catalogue_shape(self):
        assert len(PERTURBATIONS) >= 3
        for key, pert in PERTURBATIONS.items():
            assert pert.key == key
            assert set(pert.scales) <= set(RESOURCES)
            # transform must return a new platform, not mutate
            plat = get_platform("skx-impi")
            changed = pert.transform(plat)
            assert changed is not plat


class TestZeroPerturbation:
    @pytest.mark.parametrize("key", ("reference", "vector", "onesided", "buffered"))
    def test_edge_recording_does_not_change_virtual_time(self, key):
        kwargs = dict(
            policy=TimingPolicy(iterations=2, flush=True), materialize=False
        )
        layout = strided_for_bytes(65_536)
        off = run_pingpong(key, layout, "skx-impi", trace=False, **kwargs)
        on = run_pingpong(key, layout, "skx-impi", trace=True, **kwargs)
        assert on.virtual_time == off.virtual_time
        assert on.events == off.events
        assert on.stats.times == off.stats.times
        # and the traced run really did record the wait-for graph
        assert on.tracer.wait_edges()

    def test_wait_edges_carry_wakers_and_causes(self):
        result = _traced_pingpong("reference", 1_000_000, "skx-impi")
        edges = result.tracer.wait_edges()
        assert edges
        for e in edges:
            assert e.resume_time >= e.block_begin
            assert e.notify_time <= e.resume_time + 1e-15
            assert "blocked on" in e.format()
        # rendezvous at 1 MB: someone was woken by a CTS/data cause
        labels = {e.cause.label for e in edges if e.cause is not None}
        assert labels & {"rts", "send-complete", "data-landing", "barrier-release"}

    def test_untraced_run_records_no_edges(self):
        result = run_pingpong(
            "reference", strided_for_bytes(1_000_000), "skx-impi",
            policy=TimingPolicy(iterations=2, flush=True), materialize=False,
        )
        assert result.tracer is NULL_RECORDER
        assert result.tracer.wait_edges() == []


class TestDeadlockForensics:
    def test_cycle_is_named_with_reasons_and_edges(self):
        """Two ranks both Recv first: the DeadlockError names each
        blocked task, its block reason, the block time, and appends the
        wait-for graph tail."""

        def main(comm):
            peer = 1 - comm.rank
            comm.Recv(SimBuffer.virtual(64), source=peer, tag=7)
            comm.Send(SimBuffer.virtual(64), dest=peer, tag=7)

        with pytest.raises(DeadlockError) as exc:
            run_mpi(main, 2, "ideal", trace=True)
        msg = str(exc.value)
        assert "rank0" in msg and "rank1" in msg
        assert "Recv(src=" in msg  # the block() reason string
        assert "since t=" in msg
        # the wait-for graph tail appears when any wait resolved first
        assert exc.value.blocked  # structured payload survives

    def test_deadlock_edges_show_resolved_waits(self):
        """When some waits resolved before the deadlock, their edges are
        printed so the cycle can be traced causally."""

        def main(comm):
            peer = 1 - comm.rank
            # one successful exchange first, then the deadlock
            if comm.rank == 0:
                comm.Send(SimBuffer.virtual(64), dest=peer)
                comm.Recv(SimBuffer.virtual(64), source=peer)
                comm.Recv(SimBuffer.virtual(64), source=peer, tag=3)
            else:
                comm.Recv(SimBuffer.virtual(64), source=peer)
                comm.Send(SimBuffer.virtual(64), dest=peer)
                comm.Recv(SimBuffer.virtual(64), source=peer, tag=3)

        with pytest.raises(DeadlockError) as exc:
            run_mpi(main, 2, "ideal", trace=True)
        msg = str(exc.value)
        assert "wait-for graph" in msg
        assert "woken by" in msg
        assert exc.value.edges
